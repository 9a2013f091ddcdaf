package faults

import (
	"errors"
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func runModel(t *testing.T, cfg infer.Config, trigger float32) (map[string]*tensor.Tensor, error) {
	t.Helper()
	g, err := models.Build("mnasnet", models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := infer.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 3, 32, 32)
	for i := range in.Data() {
		in.Data()[i] = float32(i%7)/7 - 0.5
	}
	if trigger != 0 {
		in.Data()[0] = trigger
	}
	return ex.Run(map[string]*tensor.Tensor{"image": in})
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

func clean(t *testing.T) map[string]*tensor.Tensor {
	t.Helper()
	out, err := runModel(t, infer.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOOBManifestations(t *testing.T) {
	inj := Injection{Class: OOB, TargetOp: graph.OpConv, Seed: 2}
	want := clean(t)

	// Unhardened: silent corruption.
	out, err := runModel(t, Arm(infer.Config{}, inj), 0)
	if err != nil {
		t.Fatalf("unhardened OOB should corrupt silently, got %v", err)
	}
	if maxAbs(out["logits"], want["logits"]) == 0 {
		t.Fatal("OOB produced no corruption")
	}
	// Hardened variants turn it into a detectable crash.
	hardenings := []struct {
		name string
		cfg  infer.Config
		err  error
	}{
		{"bounds", infer.Config{BoundsCheck: true}, ErrBoundsViolation},
		{"sanitizer", infer.Config{Sanitizer: true}, ErrSanitizer},
		{"aslr", infer.Config{ASLR: true}, ErrSegfault},
	}
	for _, h := range hardenings {
		if _, err := runModel(t, Arm(h.cfg, inj), 0); !errors.Is(err, h.err) {
			t.Errorf("%s: got %v, want %v", h.name, err, h.err)
		}
	}
}

func TestFPEManifestations(t *testing.T) {
	inj := Injection{Class: FPE, TargetOp: graph.OpConv, Seed: 1}
	out, err := runModel(t, Arm(infer.Config{}, inj), 0)
	if err != nil {
		t.Fatalf("unhandled FPE should propagate silently: %v", err)
	}
	if !hasNaN(out) {
		// NaN may be squashed by downstream relu/softmax; corruption still
		// counts if outputs differ from clean.
		if maxAbs(out["logits"], clean(t)["logits"]) == 0 {
			t.Fatal("FPE had no observable effect")
		}
	}
	// Error-handling variant catches it at the kernel boundary.
	if _, err := runModel(t, Arm(infer.Config{CheckFinite: true}, inj), 0); err == nil {
		t.Fatal("CheckFinite variant did not catch the FPE")
	}
}

func hasNaN(outs map[string]*tensor.Tensor) bool {
	for _, t := range outs {
		if t.HasNaN() {
			return true
		}
	}
	return false
}

func TestACFAlwaysCrashes(t *testing.T) {
	inj := Injection{Class: ACF, TargetOp: graph.OpConv}
	if _, err := runModel(t, Arm(infer.Config{}, inj), 0); !errors.Is(err, ErrAssertion) {
		t.Fatalf("got %v, want ErrAssertion", err)
	}
}

func TestUNPAndUAFAndIO(t *testing.T) {
	cases := []struct {
		class Class
		seed  uint64
	}{
		{UNP, 2}, {UNP, 1}, {UAF, 3}, {UAF, 1}, {IntOverflow, 2}, {IntOverflow, 1},
	}
	want := clean(t)
	for _, c := range cases {
		inj := Injection{Class: c.class, TargetOp: graph.OpConv, Seed: c.seed}
		out, err := runModel(t, Arm(infer.Config{}, inj), 0)
		if err == nil && maxAbs(out["logits"], want["logits"]) == 0 {
			t.Errorf("%s seed %d: neither crashed nor corrupted", c.class, c.seed)
		}
		// Sanitizer detects every memory-error class.
		if c.class != IntOverflow {
			if _, err := runModel(t, Arm(infer.Config{Sanitizer: true}, inj), 0); !errors.Is(err, ErrSanitizer) {
				t.Errorf("%s: sanitizer missed it: %v", c.class, err)
			}
		}
	}
}

func TestDifferentRuntimeImmune(t *testing.T) {
	// The CVE lives in the Interp runtime; Planned variants never execute
	// the vulnerable code.
	inj := Injection{Class: OOB, TargetOp: graph.OpConv, TargetRuntime: infer.Interp, Seed: 2}
	want := clean(t)
	out, err := runModel(t, Arm(infer.Config{Runtime: infer.Planned}, inj), 0)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbs(out["logits"], want["logits"]) > 1e-4 {
		t.Fatal("planned-runtime variant was affected by an interp-only fault")
	}
}

func TestTriggerGating(t *testing.T) {
	// Crafted-input vulnerability: fires only when the magic value appears.
	const magic = float32(123456.0)
	inj := Injection{Class: ACF, TargetOp: graph.OpConv, Trigger: magic}
	cfg := Arm(infer.Config{}, inj)
	if _, err := runModel(t, cfg, 0); err != nil {
		t.Fatalf("benign input must not trigger: %v", err)
	}
	if _, err := runModel(t, cfg, magic); !errors.Is(err, ErrAssertion) {
		t.Fatalf("crafted input must trigger: %v", err)
	}
}

func TestCodeBitFlipHitsOnlyTargetLibrary(t *testing.T) {
	inj := Injection{Class: CodeBitFlip, TargetBLAS: blas.Naive, Seed: 4}
	im2col := infer.Config{ConvAlgo: 2 /* im2col routes conv through BLAS */}

	want, err := runModel(t, im2col, 0)
	if err != nil {
		t.Fatal(err)
	}
	hitCfg := im2col
	hitCfg.BLAS = blas.Naive
	out, err := runModel(t, Arm(hitCfg, inj), 0)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbs(out["logits"], want["logits"]) == 0 {
		t.Fatal("target library fault had no effect")
	}
	immuneCfg := im2col
	immuneCfg.BLAS = blas.Blocked
	out, err = runModel(t, Arm(immuneCfg, inj), 0)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbs(out["logits"], want["logits"]) > 1e-4 {
		t.Fatal("non-target library was affected (FrameFlip property violated)")
	}
}

func TestFlipWeightBit(t *testing.T) {
	g, err := models.Build("mnasnet", models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var target string
	for name := range g.Initializers {
		if g.Initializers[name].Size() > 0 {
			target = name
			break
		}
	}
	before := g.Initializers[target].Data()[0]
	if !FlipWeightBit(g, target, 0, 30) {
		t.Fatal("flip missed an existing target")
	}
	after := g.Initializers[target].Data()[0]
	if before == after {
		t.Fatal("bit flip changed nothing")
	}
	// Flip back restores the value (involution).
	FlipWeightBit(g, target, 0, 30)
	if g.Initializers[target].Data()[0] != before {
		t.Fatal("double flip is not identity")
	}
	if FlipWeightBit(g, "no-such-weight", 0, 30) {
		t.Fatal("flip hit a missing target")
	}
	if FlipWeightBit(g, target, 1<<30, 30) {
		t.Fatal("flip accepted out-of-range index")
	}
}

func TestDelayFault(t *testing.T) {
	inj := Injection{Class: Delay, Latency: 100 * 1000} // 100µs per node
	cfg := Arm(infer.Config{}, inj)
	if cfg.KernelWrapper == nil {
		t.Fatal("delay fault did not install a kernel wrapper")
	}
}

// countingBLAS forwards to inner and counts the Gemm calls it receives.
type countingBLAS struct {
	inner blas.Backend
	calls *int
}

func (c countingBLAS) Name() string { return c.inner.Name() }
func (c countingBLAS) Gemm(m, n, k int, a, b, cc []float32) {
	*c.calls++
	c.inner.Gemm(m, n, k, a, b, cc)
}

// TestCodeBitFlipSeesEveryDepthwiseChannel pins how far a BLAS code fault
// reaches: the faulty library has no depthwise loop of its own, so its Gemm
// still runs once per (batch, group) slab of every im2col convolution —
// once per channel of a depthwise one — and once per Gemm node.
func TestCodeBitFlipSeesEveryDepthwiseChannel(t *testing.T) {
	var calls, want, depthwise int
	cfg := infer.Config{
		BLAS: blas.Naive, ConvAlgo: ops.ConvIm2Col,
		BLASWrapper: func(b blas.Backend) blas.Backend { return countingBLAS{b, &calls} },
		KernelWrapper: func(_ string, k ops.Kernel) ops.Kernel {
			return func(ctx *ops.Context, n *graph.Node, ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
				switch n.Op {
				case graph.OpDepthwiseConv:
					want += ins[0].Dim(0) * ins[0].Dim(1)
					depthwise++
				case graph.OpConv, graph.OpConvRelu, graph.OpConvBNRelu:
					want += ins[0].Dim(0) * n.Int("group", 1)
				case graph.OpGemm, graph.OpMatMul:
					want++
				}
				return k(ctx, n, ins)
			}
		},
	}
	clean, err := runModel(t, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls, want, depthwise = 0, 0, 0
	out, err := runModel(t, Arm(cfg, Injection{Class: CodeBitFlip, TargetBLAS: blas.Naive, Seed: 4}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if depthwise == 0 || calls != want {
		t.Fatalf("faulty Gemm ran %d times over %d depthwise convs, want %d", calls, depthwise, want)
	}
	if maxAbs(out["logits"], clean["logits"]) == 0 {
		t.Fatal("the fault had no effect")
	}
}
