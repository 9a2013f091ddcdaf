package check

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/tensor"
)

// randPair returns two tensors that differ by benign float-rounding noise.
func randPair(seed uint64, n int, jitter float64) (*tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewPCG(seed, 17))
	a := tensor.New(n)
	b := tensor.New(n)
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		a.Data()[i] = float32(v)
		b.Data()[i] = float32(v * (1 + jitter*rng.NormFloat64()))
	}
	return a, b
}

// TestEvaluateMatchesCompare cross-checks the fused single-pass Evaluate
// against per-criterion Compare over every metric, on agreeing and
// disagreeing pairs.
func TestEvaluateMatchesCompare(t *testing.T) {
	policies := []Policy{
		DefaultPolicy(),
		{Criteria: []Criterion{{Metric: Cosine, Threshold: 0.999}}},
		{Criteria: []Criterion{{Metric: MSE, Threshold: 1e-6}}},
		{Criteria: []Criterion{{Metric: MaxAbsDiff, Threshold: 1e-3}}},
		{Criteria: []Criterion{{Metric: AllClose, RTol: 1e-3, ATol: 1e-4}}},
		{Criteria: []Criterion{
			{Metric: MSE, Threshold: 1e-5},
			{Metric: MaxAbsDiff, Threshold: 1e-2},
			{Metric: Cosine, Threshold: 0.99},
			{Metric: AllClose, RTol: 1e-2, ATol: 1e-3},
		}},
		// More allclose criteria than the fused sweep keeps on the stack.
		{Criteria: []Criterion{
			{Metric: AllClose, RTol: 1e-1, ATol: 1e-2},
			{Metric: AllClose, RTol: 1e-2, ATol: 1e-3},
			{Metric: AllClose, RTol: 1e-3, ATol: 1e-4},
			{Metric: AllClose, RTol: 1e-4, ATol: 1e-5},
			{Metric: AllClose, RTol: 1e-5, ATol: 1e-6},
		}},
	}
	cases := []struct {
		name   string
		jitter float64
	}{
		{"identical", 0},
		{"benign", 1e-6},
		{"divergent", 0.5},
	}
	for _, tc := range cases {
		a, b := randPair(42, 512, tc.jitter)
		for pi, p := range policies {
			want := true
			for _, c := range p.Criteria {
				_, ok, err := Compare(a, b, c)
				if err != nil {
					t.Fatal(err)
				}
				want = want && ok
			}
			got, err := Evaluate(a, b, p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s policy %d: Evaluate = %v, Compare conjunction = %v", tc.name, pi, got, want)
			}
		}
	}
}

// TestEvaluateNaN verifies the fused NaN semantics: any non-finite difference
// fails every criterion, matching Compare for realistic thresholds.
func TestEvaluateNaN(t *testing.T) {
	a := tensor.MustFromSlice([]float32{1, 2, 3}, 3)
	b := tensor.MustFromSlice([]float32{1, float32(math.NaN()), 3}, 3)
	for _, p := range []Policy{
		DefaultPolicy(),
		{Criteria: []Criterion{{Metric: MSE, Threshold: math.Inf(1)}}},
		{Criteria: []Criterion{{Metric: MaxAbsDiff, Threshold: math.Inf(1)}}},
	} {
		ok, err := Evaluate(a, b, p)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("NaN pair passed policy %+v", p)
		}
	}
	// NaN on both sides is still a failure (NaN != NaN for agreement).
	ok, err := Evaluate(b, b, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("NaN self-comparison passed")
	}
}

// TestEvaluateEdgeCases pins the special-case semantics inherited from
// Compare: zero-length tensors, all-zero tensors, shape mismatch, empty and
// unknown-metric policies.
func TestEvaluateEdgeCases(t *testing.T) {
	zero2 := tensor.New(2)
	if ok, err := Evaluate(zero2, zero2, DefaultPolicy()); err != nil || !ok {
		t.Errorf("all-zero pair: ok=%v err=%v, want pass", ok, err)
	}
	empty := tensor.New(0)
	if ok, err := Evaluate(empty, empty, DefaultPolicy()); err != nil || !ok {
		t.Errorf("empty pair: ok=%v err=%v, want pass", ok, err)
	}
	if ok, err := Evaluate(tensor.New(2), tensor.New(3), DefaultPolicy()); err != nil || ok {
		t.Errorf("shape mismatch: ok=%v err=%v, want inconsistent without error", ok, err)
	}
	one := tensor.MustFromSlice([]float32{1, 1}, 2)
	if ok, err := Evaluate(one, one, Policy{}); err != nil || !ok {
		t.Errorf("empty policy must use default: ok=%v err=%v", ok, err)
	}
	if _, err := Evaluate(one, one, Policy{Criteria: []Criterion{{Metric: Metric(99)}}}); err == nil {
		t.Error("unknown metric must error")
	}
}

// TestEvaluateDefaultPolicyAllocs locks in the zero-allocation guarantee of
// the fused checkpoint evaluation on the default policy, and of Consistent
// over already-built result maps — the per-checkpoint monitor hot path.
func TestEvaluateDefaultPolicyAllocs(t *testing.T) {
	a, b := randPair(7, 4096, 1e-6)
	pol := DefaultPolicy()
	if n := testing.AllocsPerRun(100, func() {
		if ok, err := Evaluate(a, b, pol); err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	}); n != 0 {
		t.Errorf("Evaluate allocs/run = %v, want 0", n)
	}
	am := map[string]*tensor.Tensor{"y": a}
	bm := map[string]*tensor.Tensor{"y": b}
	if n := testing.AllocsPerRun(100, func() {
		if ok, err := Consistent(am, bm, pol); err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	}); n != 0 {
		t.Errorf("Consistent allocs/run = %v, want 0", n)
	}
}
