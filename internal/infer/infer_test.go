package infer

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func testModel(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := models.Build("googlenet", models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testInput(seed uint64) *tensor.Tensor {
	rng := rand.New(rand.NewPCG(seed, 2))
	in := tensor.New(1, 3, 32, 32)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.NormFloat64())
	}
	return in
}

func maxAbs(a, b *tensor.Tensor) float64 {
	var m float64
	for i := range a.Data() {
		if d := math.Abs(float64(a.Data()[i]) - float64(b.Data()[i])); d > m {
			m = d
		}
	}
	return m
}

func TestInterpVsPlannedEquivalence(t *testing.T) {
	g := testModel(t)
	in := map[string]*tensor.Tensor{"image": testInput(1)}
	interp, err := New(g, Config{Runtime: Interp})
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{
		{Runtime: Planned},
		{Runtime: Planned, OptLevel: 1},
		{Runtime: Interp, BLAS: blas.Blocked, ConvAlgo: ops.ConvIm2Col},
		{Runtime: Planned, BLAS: blas.Packed, ConvAlgo: ops.ConvIm2Col, OptLevel: 1},
		{Runtime: Interp, Parallelism: 4},
	}
	for _, cfg := range configs {
		ex, err := New(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		got, err := ex.Run(in)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if d := maxAbs(got["logits"], want["logits"]); d > 1e-3 {
			t.Errorf("%s deviates from interp reference by %g", cfg, d)
		}
	}
}

func TestPlannedOptimizesGraph(t *testing.T) {
	g := testModel(t)
	ex, err := New(g, Config{Runtime: Planned, OptLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bn := ex.Graph().Stats().OpCounts[graph.OpBatchNorm]; bn != 0 {
		t.Errorf("planned opt=1 left %d BatchNorm nodes", bn)
	}
	// The original graph must be untouched.
	if bn := g.Stats().OpCounts[graph.OpBatchNorm]; bn == 0 {
		t.Error("optimizer mutated the caller's graph")
	}
}

func TestMissingInput(t *testing.T) {
	g := testModel(t)
	for _, cfg := range []Config{{Runtime: Interp}, {Runtime: Planned}} {
		ex, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Run(map[string]*tensor.Tensor{}); !errors.Is(err, ErrMissingInput) {
			t.Errorf("%s: got %v, want ErrMissingInput", cfg, err)
		}
	}
}

func TestRunReusable(t *testing.T) {
	// Executors are reusable across calls (intermediate tensors must not
	// leak between runs).
	g := testModel(t)
	for _, cfg := range []Config{{Runtime: Interp}, {Runtime: Planned}} {
		ex, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := map[string]*tensor.Tensor{"image": testInput(2)}
		a, err := ex.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ex.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if maxAbs(a["logits"], b["logits"]) != 0 {
			t.Errorf("%s: repeated runs differ", cfg)
		}
	}
}

func TestKernelWrapperInvoked(t *testing.T) {
	g := testModel(t)
	calls := 0
	cfg := Config{
		KernelWrapper: func(name string, k ops.Kernel) ops.Kernel {
			return func(ctx *ops.Context, n *graph.Node, ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
				calls++
				return k(ctx, n, ins)
			}
		},
	}
	ex, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(map[string]*tensor.Tensor{"image": testInput(3)}); err != nil {
		t.Fatal(err)
	}
	if calls != len(g.Nodes) {
		t.Errorf("wrapper called %d times, want %d", calls, len(g.Nodes))
	}
}

func TestBLASWrapperInvoked(t *testing.T) {
	g := testModel(t)
	wrapped := false
	cfg := Config{
		ConvAlgo: ops.ConvIm2Col,
		BLASWrapper: func(b blas.Backend) blas.Backend {
			wrapped = true
			return b
		},
	}
	if _, err := New(g, cfg); err != nil {
		t.Fatal(err)
	}
	if !wrapped {
		t.Error("BLAS wrapper not applied")
	}
}

func TestInvalidGraphRejected(t *testing.T) {
	g := graph.New("bad")
	g.AddNode("n", graph.OpIdentity, []string{"missing"}, []string{"y"}, nil)
	g.Outputs = []string{"y"}
	if _, err := New(g, Config{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestUnknownRuntime(t *testing.T) {
	if _, err := New(testModel(t), Config{Runtime: RuntimeKind(42)}); err == nil {
		t.Fatal("expected unknown-runtime error")
	}
}

func TestConfigString(t *testing.T) {
	s := Config{Runtime: Planned, BLAS: blas.Packed, ConvAlgo: ops.ConvIm2Col, Parallelism: 2, OptLevel: 1}.String()
	want := "planned/blas=packed/conv=im2col/par=2/opt=1"
	if s != want {
		t.Errorf("Config.String() = %q, want %q", s, want)
	}
}

// TestQuickRandomConfigEquivalence property-tests the central functional-
// equivalence guarantee: any runtime configuration computes the same model
// function (within float tolerance) as the reference interpreter.
func TestQuickRandomConfigEquivalence(t *testing.T) {
	g, err := models.Build("mnasnet", models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]*tensor.Tensor{"image": testInput(9)}
	ref, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rt, bl, ca, par, opt uint8) bool {
		cfg := Config{
			Runtime:     RuntimeKind(int(rt)%2 + 1),
			BLAS:        blas.Kind(int(bl)%3 + 1),
			ConvAlgo:    ops.ConvAlgo(int(ca)%2 + 1),
			Parallelism: int(par % 4),
			OptLevel:    int(opt % 2),
		}
		ex, err := New(g, cfg)
		if err != nil {
			return false
		}
		got, err := ex.Run(in)
		if err != nil {
			return false
		}
		return maxAbs(got["logits"], want["logits"]) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
