// Package check implements MVTEE's checkpoint consistency evaluation (§4.3,
// §5.2): criteria-based comparison of variant outputs under configurable
// metrics (cosine similarity, mean squared error, maximum absolute
// difference, allclose) with per-configuration thresholds to distinguish
// attacks from benign divergences, and the cross-process voting strategies
// (unanimous consent by default, majority as the async-mode quorum).
package check

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Metric identifies a consistency measure between two tensors.
type Metric int

// Supported metrics, matching §5.2's implementation list.
const (
	Cosine     Metric = iota + 1 // cosine similarity; pass if >= Threshold
	MSE                          // mean squared error; pass if <= Threshold
	MaxAbsDiff                   // max |a-b|; pass if <= Threshold
	AllClose                     // np.testing.assert_allclose analogue: |a-b| <= ATol + RTol*|b| elementwise
)

func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case MSE:
		return "mse"
	case MaxAbsDiff:
		return "maxabs"
	case AllClose:
		return "allclose"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Criterion is one thresholded metric.
type Criterion struct {
	Metric    Metric
	Threshold float64 // Cosine: min similarity; MSE/MaxAbsDiff: max error
	RTol      float64 // AllClose relative tolerance
	ATol      float64 // AllClose absolute tolerance
}

// defaultCriteria backs DefaultPolicy; Evaluate and Consistent fall back to
// it directly when a policy is empty, so the default path allocates nothing.
var defaultCriteria = []Criterion{
	{Metric: AllClose, RTol: 1e-3, ATol: 1e-4},
	{Metric: Cosine, Threshold: 0.9999},
}

// DefaultPolicy returns the policy used when a configuration does not
// specify one: allclose with tolerances wide enough for benign cross-variant
// float divergence, plus a cosine floor.
func DefaultPolicy() Policy {
	return Policy{Criteria: append([]Criterion(nil), defaultCriteria...)}
}

// Policy is a conjunction of criteria; a pair of outputs is consistent only
// if every criterion passes on every checkpoint tensor.
type Policy struct {
	Criteria []Criterion
}

// ErrShapeMismatch reports incomparable tensors.
var ErrShapeMismatch = errors.New("check: tensor shapes differ")

// Compare evaluates one criterion on a tensor pair, returning the metric
// score and whether the criterion passes.
func Compare(a, b *tensor.Tensor, c Criterion) (float64, bool, error) {
	if !a.SameShape(b) {
		return 0, false, fmt.Errorf("%w: %v vs %v", ErrShapeMismatch, a.Shape(), b.Shape())
	}
	ad, bd := a.Data(), b.Data()
	switch c.Metric {
	case Cosine:
		var dot, na, nb float64
		for i := range ad {
			x, y := float64(ad[i]), float64(bd[i])
			dot += x * y
			na += x * x
			nb += y * y
		}
		if na == 0 && nb == 0 {
			return 1, 1 >= c.Threshold, nil
		}
		if na == 0 || nb == 0 {
			return 0, 0 >= c.Threshold, nil
		}
		sim := dot / (math.Sqrt(na) * math.Sqrt(nb))
		return sim, sim >= c.Threshold && !math.IsNaN(sim), nil
	case MSE:
		var s float64
		for i := range ad {
			d := float64(ad[i]) - float64(bd[i])
			s += d * d
		}
		mse := s / float64(len(ad))
		return mse, mse <= c.Threshold && !math.IsNaN(mse), nil
	case MaxAbsDiff:
		var m float64
		for i := range ad {
			d := math.Abs(float64(ad[i]) - float64(bd[i]))
			if d > m || math.IsNaN(d) {
				m = d
			}
			if math.IsNaN(d) {
				return math.NaN(), false, nil
			}
		}
		return m, m <= c.Threshold, nil
	case AllClose:
		var worst float64
		for i := range ad {
			d := math.Abs(float64(ad[i]) - float64(bd[i]))
			lim := c.ATol + c.RTol*math.Abs(float64(bd[i]))
			if math.IsNaN(d) {
				return math.NaN(), false, nil
			}
			if d > lim {
				if ex := d - lim; ex > worst {
					worst = ex
				}
			}
		}
		return worst, worst == 0, nil
	default:
		return 0, false, fmt.Errorf("check: unknown metric %d", int(c.Metric))
	}
}

// allCloseTol is one allclose criterion's tolerance pair.
type allCloseTol struct{ rtol, atol float64 }

// Evaluate reports whether the tensor pair satisfies every criterion of the
// policy (the default policy when p is empty). Unlike running Compare per
// criterion, Evaluate makes a single pass over the data, accumulating the
// cosine dot/norms, the squared-error sum, the running max-abs difference and
// the allclose violation state together, and allocates nothing — this is the
// monitor's checkpoint hot path.
//
// Semantics match Compare criterion-by-criterion, with one deliberate
// tightening: a non-finite element difference (a NaN in either tensor, or
// same-signed infinities) makes the pair inconsistent under *every*
// criterion, so the sweep stops early. Compare's cosine metric could pass
// such a pair only with a degenerate threshold <= 0; for divergence
// detection a NaN output must never count as agreement.
//
// Shape mismatch is inconsistency, not an error (as in Consistent).
func Evaluate(a, b *tensor.Tensor, p Policy) (bool, error) {
	crits := p.Criteria
	if len(crits) == 0 {
		crits = defaultCriteria
	}
	if !a.SameShape(b) {
		return false, nil
	}

	// Classify the criteria, folding same-metric duplicates into their
	// strictest bound so the sweep evaluates each accumulator once.
	var needCos, needMSE, needMax bool
	var cosTh, mseTh, maxTh float64
	// The first four allclose pairs live on the stack; a policy with more
	// still takes the fused sweep, at one allocation.
	var acBuf [4]allCloseTol
	ac := acBuf[:0]
	for _, c := range crits {
		switch c.Metric {
		case Cosine:
			if !needCos || c.Threshold > cosTh {
				cosTh = c.Threshold
			}
			needCos = true
		case MSE:
			if !needMSE || c.Threshold < mseTh {
				mseTh = c.Threshold
			}
			needMSE = true
		case MaxAbsDiff:
			if !needMax || c.Threshold < maxTh {
				maxTh = c.Threshold
			}
			needMax = true
		case AllClose:
			ac = append(ac, allCloseTol{c.RTol, c.ATol})
		default:
			return false, fmt.Errorf("check: unknown metric %d", int(c.Metric))
		}
	}

	ad, bd := a.Data(), b.Data()
	bd = bd[:len(ad)] // SameShape holds; let the compiler drop bounds checks
	// Fast path for the shape of the default policy — one allclose tolerance
	// plus a cosine floor — with a branch-free inner loop.
	if len(ac) == 1 && needCos && !needMSE && !needMax {
		rtol, atol := ac[0].rtol, ac[0].atol
		// Two independent accumulator sets break the loop-carried FP-add
		// latency chains; without them the three serial sums cap the sweep
		// well below the load/multiply throughput of the core.
		var dot0, na0, nb0, dot1, na1, nb1 float64
		i := 0
		for ; i+1 < len(ad); i += 2 {
			x0, y0 := float64(ad[i]), float64(bd[i])
			x1, y1 := float64(ad[i+1]), float64(bd[i+1])
			d0 := math.Abs(x0 - y0)
			d1 := math.Abs(x1 - y1)
			// Negated form so a NaN difference (all comparisons false)
			// also fails here.
			if !(d0 <= atol+rtol*math.Abs(y0)) || !(d1 <= atol+rtol*math.Abs(y1)) {
				return false, nil
			}
			// math.FMA compiles to one fused multiply-add instruction on
			// current amd64/arm64, halving the accumulator µops. The cosine
			// sums are order-sensitive approximations already (two lanes);
			// the fused rounding changes nothing observable at policy
			// thresholds. The allclose limit above deliberately stays
			// mul-then-add so its rounding matches Compare exactly.
			dot0 = math.FMA(x0, y0, dot0)
			na0 = math.FMA(x0, x0, na0)
			nb0 = math.FMA(y0, y0, nb0)
			dot1 = math.FMA(x1, y1, dot1)
			na1 = math.FMA(x1, x1, na1)
			nb1 = math.FMA(y1, y1, nb1)
		}
		for ; i < len(ad); i++ {
			x, y := float64(ad[i]), float64(bd[i])
			d := math.Abs(x - y)
			if !(d <= atol+rtol*math.Abs(y)) {
				return false, nil
			}
			dot0 += x * y
			na0 += x * x
			nb0 += y * y
		}
		return cosinePasses(dot0+dot1, na0+na1, nb0+nb1, cosTh), nil
	}

	var dot, na, nb, sumSq, maxd float64
	for i := range ad {
		x, y := float64(ad[i]), float64(bd[i])
		diff := x - y
		d := math.Abs(diff)
		if math.IsNaN(d) {
			return false, nil
		}
		if needCos {
			dot += x * y
			na += x * x
			nb += y * y
		}
		if needMSE {
			sumSq += diff * diff
		}
		if d > maxd {
			maxd = d
		}
		for _, t := range ac {
			if d > t.atol+t.rtol*math.Abs(y) {
				return false, nil
			}
		}
	}
	if needCos && !cosinePasses(dot, na, nb, cosTh) {
		return false, nil
	}
	if needMSE {
		mse := sumSq / float64(len(ad))
		if !(mse <= mseTh) || math.IsNaN(mse) {
			return false, nil
		}
	}
	if needMax && !(maxd <= maxTh) {
		return false, nil
	}
	return true, nil
}

// cosinePasses applies Compare's cosine decision to fused accumulators.
func cosinePasses(dot, na, nb, threshold float64) bool {
	if na == 0 && nb == 0 {
		return 1 >= threshold
	}
	if na == 0 || nb == 0 {
		return 0 >= threshold
	}
	sim := dot / (math.Sqrt(na) * math.Sqrt(nb))
	return sim >= threshold && !math.IsNaN(sim)
}

// Consistent reports whether two named-tensor result sets agree under the
// policy: same tensor names, and every criterion passes on every tensor. Each
// pair is checked with the single-pass Evaluate.
func Consistent(a, b map[string]*tensor.Tensor, p Policy) (bool, error) {
	if len(a) != len(b) {
		return false, nil
	}
	for name, at := range a {
		bt, ok := b[name]
		if !ok {
			return false, nil
		}
		pass, err := Evaluate(at, bt, p)
		if err != nil {
			return false, err
		}
		if !pass {
			return false, nil
		}
	}
	return true, nil
}

// Strategy is the voting rule applied at checkpoints.
type Strategy int

// Voting strategies (§4.3: unanimous consent by default; majority is the
// quorum rule of async mode).
const (
	Unanimous Strategy = iota + 1
	Majority
)

func (s Strategy) String() string {
	switch s {
	case Unanimous:
		return "unanimous"
	case Majority:
		return "majority"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Verdict is the outcome of a checkpoint vote.
type Verdict struct {
	// OK reports whether the vote met the strategy's agreement level.
	OK bool
	// Chosen is the index of the representative output to replicate
	// downstream (-1 when no quorum exists).
	Chosen int
	// Agreeing lists indices in the winning cluster.
	Agreeing []int
	// Dissenters lists indices outside the winning cluster (crashed
	// variants — nil results — always dissent).
	Dissenters []int
}

// Vote clusters variant outputs by pairwise consistency and applies the
// strategy. results entries may be nil (crashed/failed variant).
func Vote(results []map[string]*tensor.Tensor, p Policy, s Strategy) (Verdict, error) {
	n := len(results)
	if n == 0 {
		return Verdict{OK: false, Chosen: -1}, errors.New("check: empty vote")
	}
	// Pairwise agreement.
	agree := make([][]bool, n)
	for i := range agree {
		agree[i] = make([]bool, n)
		agree[i][i] = results[i] != nil
	}
	rec := telemetry.Enabled()
	if rec {
		mVotes.Inc()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if results[i] == nil || results[j] == nil {
				continue
			}
			ok, err := Consistent(results[i], results[j], p)
			if err != nil {
				return Verdict{OK: false, Chosen: -1}, err
			}
			agree[i][j], agree[j][i] = ok, ok
			if rec && !ok {
				mPairDisagree.Inc()
				observeDivergence(results[i], results[j])
			}
		}
	}
	// Greedy clustering around each pivot; keep the largest cluster.
	best := []int{}
	for pivot := 0; pivot < n; pivot++ {
		if results[pivot] == nil {
			continue
		}
		var cl []int
		for j := 0; j < n; j++ {
			if agree[pivot][j] {
				cl = append(cl, j)
			}
		}
		if len(cl) > len(best) {
			best = cl
		}
	}
	v := Verdict{Chosen: -1}
	if len(best) > 0 {
		v.Chosen = best[0]
		v.Agreeing = best
	}
	inBest := make(map[int]bool, len(best))
	for _, i := range best {
		inBest[i] = true
	}
	for i := 0; i < n; i++ {
		if !inBest[i] {
			v.Dissenters = append(v.Dissenters, i)
		}
	}
	sort.Ints(v.Dissenters)
	switch s {
	case Unanimous:
		v.OK = len(best) == n
	case Majority:
		v.OK = len(best)*2 > n
	default:
		return v, fmt.Errorf("check: unknown strategy %d", int(s))
	}
	return v, nil
}
