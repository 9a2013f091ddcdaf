package blas

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/workpool"
)

// gemmShapes covers the edge cases the tiled kernels must get right: empty
// and unit dimensions, inner dimensions not divisible by the micro-kernel
// width or k-block, and sizes that don't align to 2-row or 4-column tiles.
// The deep-layer shapes follow: spatial sizes of 1×1 and 2×2 give n of 1 to
// 5, which exercise the small-N tail and the row remainders of the 4×4 tile
// at k around one k-block and at a 3×3×128 im2col depth.
var gemmShapes = append([][3]int{
	{0, 4, 4}, {4, 0, 4}, {4, 4, 0}, {0, 0, 0},
	{1, 1, 1}, {1, 5, 3}, {2, 4, 7}, {3, 3, 3},
	{5, 4, 4}, {7, 9, 13}, {16, 16, 16}, {8, 8, 65},
	{33, 29, 31}, {64, 48, 37}, {2, 130, 5}, {31, 1, 63},
	{6, 7, 129}, {17, 4, 66},
	{128, 1, 1152}, {64, 4, 576}, {256, 4, 128},
}, deepLayerShapes()...)

func deepLayerShapes() [][3]int {
	var shapes [][3]int
	for _, m := range []int{1, 3, 4, 5, 7, 128, 512} {
		for n := 1; n <= 5; n++ {
			for _, k := range []int{63, 64, 65, 1152} {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	return shapes
}

// TestCrossBackendEquivalence runs every backend over randomized matrices of
// the edge-case shapes at every parallelism level, asserting that (a) each
// backend's result is BITWISE identical at every parallelism level — the MVX
// determinism requirement: a variant's output must not depend on its thread
// count — and (b) all backends agree with the float64 reference within the
// tolerance the default check policy would grant them.
func TestCrossBackendEquivalence(t *testing.T) {
	parLevels := []int{1, 2, 4, 8}
	rng := rand.New(rand.NewPCG(7, 11))
	for _, sh := range gemmShapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := randMat(rng, m*k)
		b := randMat(rng, k*n)
		ref := refGemm(m, n, k, a, b)
		for _, kind := range Kinds() {
			be := MustNew(kind)
			var seq []float32
			for _, par := range parLevels {
				c := make([]float32, m*n)
				for i := range c {
					c[i] = 99 // poison: every element must be overwritten
				}
				pool := workpool.New(par)
				ParallelGemm(be, ranger(pool), m, n, k, a, b, c)
				pool.Close()
				if par == 1 {
					seq = c
					if d := maxAbsDiff(c, ref); d > 1e-3 {
						t.Errorf("%v %dx%dx%d: deviates from reference by %g", kind, m, n, k, d)
					}
					continue
				}
				for i := range c {
					if math.Float32bits(c[i]) != math.Float32bits(seq[i]) {
						t.Fatalf("%v %dx%dx%d: par=%d differs bitwise from sequential at %d: %x vs %x",
							kind, m, n, k, par, i, math.Float32bits(c[i]), math.Float32bits(seq[i]))
					}
				}
			}
		}
	}
}

// ranger converts a possibly-nil pool into the Ranger parameter without
// handing ParallelGemm a typed-nil interface.
func ranger(p *workpool.Pool) Ranger {
	if p == nil {
		return nil
	}
	return p
}

// TestBackendsAgreePairwise verifies the diversification contract directly:
// distinct implementations, results within the default check policy's
// allclose tolerance (rtol 1e-3, atol 1e-4) of each other.
func TestBackendsAgreePairwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	const m, n, k = 37, 41, 53
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	results := map[Kind][]float32{}
	for _, kind := range Kinds() {
		c := make([]float32, m*n)
		MustNew(kind).Gemm(m, n, k, a, b, c)
		results[kind] = c
	}
	kinds := Kinds()
	for i := 0; i < len(kinds); i++ {
		for j := i + 1; j < len(kinds); j++ {
			x, y := results[kinds[i]], results[kinds[j]]
			for e := range x {
				d := math.Abs(float64(x[e]) - float64(y[e]))
				lim := 1e-4 + 1e-3*math.Abs(float64(y[e]))
				if d > lim {
					t.Fatalf("%v vs %v at %d: |%g-%g| = %g exceeds allclose limit %g",
						kinds[i], kinds[j], e, x[e], y[e], d, lim)
				}
			}
		}
	}
}

// TestNaNInfPropagationUniform is the regression test for the zero-skip
// divergence bug: naive and blocked once skipped a[i,p] == 0 terms, absorbing
// a NaN or Inf in B into 0 while packed propagated NaN — a spurious
// cross-variant divergence source at checkpoints. Every backend must now
// propagate non-finite B values through zero A rows identically.
func TestNaNInfPropagationUniform(t *testing.T) {
	const m, n, k = 5, 6, 7
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	a := make([]float32, m*k) // all zeros: the absorbing case
	b := make([]float32, k*n)
	for i := range b {
		b[i] = 1
	}
	const nanCol, infCol = 2, 4
	b[3*n+nanCol] = nan // row 3, col 2
	b[5*n+infCol] = inf // row 5, col 4: 0*Inf = NaN
	for _, kind := range Kinds() {
		be := MustNew(kind)
		c := make([]float32, m*n)
		be.Gemm(m, n, k, a, b, c)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				got := c[i*n+j]
				isNaN := math.IsNaN(float64(got))
				if j == nanCol || j == infCol {
					if !isNaN {
						t.Errorf("%v: C[%d,%d] = %g, want NaN (non-finite B must propagate)", kind, i, j, got)
					}
				} else if isNaN || got != 0 {
					t.Errorf("%v: C[%d,%d] = %g, want 0", kind, i, j, got)
				}
			}
		}
	}
}

// TestParallelGemmFallback ensures wrapped backends (fault-injection style)
// without panel support still execute through ParallelGemm.
func TestParallelGemmFallback(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 9))
	const m, n, k = 6, 5, 4
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	want := make([]float32, m*n)
	MustNew(Naive).Gemm(m, n, k, a, b, want)
	got := make([]float32, m*n)
	pool := workpool.New(4)
	defer pool.Close()
	ParallelGemm(opaque{MustNew(Naive)}, pool, m, n, k, a, b, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("wrapped backend result differs at %d", i)
		}
	}
}

type opaque struct{ be Backend }

func (o opaque) Name() string                        { return fmt.Sprintf("opaque(%s)", o.be.Name()) }
func (o opaque) Gemm(m, n, k int, a, b, c []float32) { o.be.Gemm(m, n, k, a, b, c) }
