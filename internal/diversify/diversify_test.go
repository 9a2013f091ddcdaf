package diversify

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/partition"
	"repro/internal/tensor"
)

func TestSpecJSONRoundtrip(t *testing.T) {
	s := Spec{
		Name:       "x",
		Transforms: []GraphTransform{{Kind: TDummyOps, N: 3}, {Kind: TSelectiveOpt, P: 0.5}},
		Runtime:    "planned", BLAS: "packed", ConvAlgo: "im2col",
		Parallelism: 2, OptLevel: 1,
		CheckFinite: true, ASLR: true, TEE: "tdx", Seed: 9,
	}
	b, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "x" || len(got.Transforms) != 2 || got.Runtime != "planned" ||
		!got.CheckFinite || got.TEE != "tdx" || got.Seed != 9 {
		t.Fatalf("roundtrip = %+v", got)
	}
}

func TestParseSpecRejectsBadFields(t *testing.T) {
	cases := []string{
		`{"runtime":"jvm"}`,
		`{"blas":"cuda"}`,
		`{"conv_algo":"fft"}`,
		`{"tee":"sev"}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := ParseSpec([]byte(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestRuntimeConfigResolution(t *testing.T) {
	cfg, err := Spec{}.RuntimeConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Runtime != infer.Interp {
		t.Fatalf("default runtime = %v", cfg.Runtime)
	}
	cfg, err = Spec{Runtime: "planned", BLAS: "blocked", ConvAlgo: "im2col", OptLevel: 2}.RuntimeConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Runtime != infer.Planned || cfg.OptLevel != 2 {
		t.Fatalf("resolved = %+v", cfg)
	}
}

func TestApplyUnknownTransform(t *testing.T) {
	g := models.MustBuild("mnasnet", models.Config{})
	if _, err := Apply(Spec{Name: "bad", Transforms: []GraphTransform{{Kind: "quantum"}}}, g); err == nil {
		t.Fatal("unknown transform accepted")
	}
}

func TestApplyDeterministicPerSeed(t *testing.T) {
	g := models.MustBuild("resnet-50", models.Config{Depth: 0.34})
	s := Spec{Name: "d", Seed: 5, Transforms: []GraphTransform{{Kind: TDummyOps, N: 4}, {Kind: TShuffleChannel, N: 2}}}
	a, err := Apply(s, g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Apply(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("same seed produced different structures")
	}
	for i := range a.Nodes {
		if a.Nodes[i].Name != b.Nodes[i].Name {
			t.Fatal("same seed produced different node names")
		}
	}
}

func TestApplyLeavesOriginalIntact(t *testing.T) {
	g := models.MustBuild("mnasnet", models.Config{})
	before := len(g.Nodes)
	if _, err := Apply(Spec{Name: "d", Transforms: []GraphTransform{{Kind: TDummyOps, N: 5}}}, g); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != before {
		t.Fatal("Apply mutated the input graph")
	}
}

// TestPoolVariantsEquivalentOnPartitions applies every recipe to real
// partition subgraphs, as the offline pipeline builds its pool, and verifies
// every diversified variant computes the same function as the undiversified
// subgraph.
func TestPoolVariantsEquivalentOnPartitions(t *testing.T) {
	g := models.MustBuild("googlenet", models.Config{})
	p, err := partition.NewPartitioner(g)
	if err != nil {
		t.Fatal(err)
	}
	set, err := p.Partition(partition.Options{Target: 3})
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*graph.Graph, 3)
	for i := range subs {
		subs[i], err = p.Extract(set, i)
		if err != nil {
			t.Fatal(err)
		}
	}
	specs := append(RealSetupSpecs(), HeavyTVMSpec())

	// Feed each partition with a reference forward pass.
	values := map[string]*tensor.Tensor{}
	in := tensor.New(1, 3, 32, 32)
	for i := range in.Data() {
		in.Data()[i] = float32(i%11)/11 - 0.5
	}
	values["image"] = in
	for pi, sub := range subs {
		ins := map[string]*tensor.Tensor{}
		for _, vi := range sub.Inputs {
			ins[vi.Name] = values[vi.Name]
		}
		ref, err := infer.New(sub, infer.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(ins)
		if err != nil {
			t.Fatal(err)
		}
		for name, tt := range want {
			values[name] = tt
		}
		for _, s := range specs {
			dg, err := Apply(s, sub)
			if err != nil {
				t.Fatalf("p%d %s: %v", pi, s.Name, err)
			}
			rc, err := s.RuntimeConfig()
			if err != nil {
				t.Fatal(err)
			}
			ex, err := infer.New(dg, rc)
			if err != nil {
				t.Fatalf("p%d %s: %v", pi, s.Name, err)
			}
			got, err := ex.Run(ins)
			if err != nil {
				t.Fatalf("p%d %s: %v", pi, s.Name, err)
			}
			for name := range want {
				if d := maxRel(got[name], want[name]); d > 2e-2 {
					t.Errorf("p%d %s: output %q deviates by %g", pi, s.Name, name, d)
				}
			}
		}
	}
}

func maxRel(a, b *tensor.Tensor) float64 {
	var worst float64
	for i := range a.Data() {
		d := math.Abs(float64(a.Data()[i]) - float64(b.Data()[i]))
		den := math.Abs(float64(b.Data()[i])) + 1e-5
		if r := d / den; r > worst {
			worst = r
		}
	}
	return worst
}

func TestPresetSpecsAreValid(t *testing.T) {
	all := append(RealSetupSpecs(), HeavyTVMSpec(), ReplicaSpec("r"))
	all = append(all, HardenedSpecs()...)
	seen := map[string]bool{}
	for _, s := range all {
		if s.Name == "" || seen[s.Name] {
			t.Errorf("spec name %q empty or duplicated", s.Name)
		}
		seen[s.Name] = true
		if _, err := s.RuntimeConfig(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if _, err := s.TEEType(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// lowered hides a backend's depthwise loop and row-panel GEMM behind the plain
// Backend interface, so every convolution takes the per-channel im2col +
// Gemm lowering: the reference path.
type lowered struct{ blas.Backend }

// TestDepthwiseModelsMatchIm2ColLowering runs the zoo's depthwise models
// under every real-setup recipe at 1, 2 and 4 workers and checks their
// outputs bit for bit against the same recipe on the reference path.
func TestDepthwiseModelsMatchIm2ColLowering(t *testing.T) {
	for _, name := range []string{"mobilenetv3", "mnasnet"} {
		g := models.MustBuild(name, models.Config{BatchSize: 2})
		x := tensor.New(g.Inputs[0].Shape...)
		for i := range x.Data() {
			x.Data()[i] = float32(math.Sin(float64(i)))
		}
		in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
		for _, s := range RealSetupSpecs() {
			vg, err := Apply(s, g)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 4} {
				s.Parallelism = par
				cfg, err := s.RuntimeConfig()
				if err != nil {
					t.Fatal(err)
				}
				got := runOutputs(t, vg, cfg, in)
				cfg.BLASWrapper = func(b blas.Backend) blas.Backend { return lowered{b} }
				want := runOutputs(t, vg, cfg, in)
				for k, w := range want {
					for i, v := range got[k].Data() {
						if math.Float32bits(v) != math.Float32bits(w.Data()[i]) {
							t.Fatalf("%s/%s/par=%d: %s[%d] = %x, reference %x", name, s.Name, par, k, i,
								math.Float32bits(v), math.Float32bits(w.Data()[i]))
						}
					}
				}
			}
		}
	}
}

func runOutputs(t *testing.T, g *graph.Graph, cfg infer.Config, in map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	t.Helper()
	ex, err := infer.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
