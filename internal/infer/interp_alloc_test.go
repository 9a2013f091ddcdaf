//go:build !race

// The race detector's sync.Pool drops pooled buffers at random, so the pin
// below holds only in a build without it.

package infer_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/diversify"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/tensor"
)

// TestInterpRunAllocsPin pins a warm interp Run of the served mobilenetv3
// (scale 0.05, input 8, the whole graph as one partition) on the ort-cpu
// recipe. The interpreter allocates every node's output tensor and its value
// map by design (680 allocations per Run); what the pin holds back is
// per-call kernel overhead, which took the count to 1,151 when every
// parallel region and GEMM panel loop built a closure and every depthwise
// channel ran its own im2col + GEMM.
func TestInterpRunAllocsPin(t *testing.T) {
	spec := diversify.RealSetupSpecs()[0]
	if spec.Name != "ort-cpu" || spec.Runtime != "interp" {
		t.Fatalf("recipe 0 is %s on %s, want ort-cpu on interp", spec.Name, spec.Runtime)
	}
	g, err := diversify.Apply(spec, models.MustBuild("mobilenetv3", models.Config{Scale: 0.05, InputSize: 8}))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.RuntimeConfig()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := infer.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(g.Inputs[0].Shape...)
	rng := rand.New(rand.NewPCG(31, 4))
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
	for i := 0; i < 3; i++ {
		if _, err := ex.Run(in); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := ex.Run(in); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm interp Run: %v allocs", got)
	if got > 700 {
		t.Errorf("warm interp Run allocates %v, want <= 700", got)
	}
}
