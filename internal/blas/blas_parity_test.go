package blas

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/workpool"
)

// The scalar references below restate, one output element at a time, the
// arithmetic each backend performed before its kernels were tiled and
// vectorised. The kernels must reproduce them bit for bit: a faster kernel
// that rounds differently would change every variant's outputs.

// refDot (naive, packed): one dot product from 0 in ascending p, stored
// into C.
func refDot(m, n, k int, a, b []float32) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

// refBlocked: per k-block of blockK, a partial sum from 0 in ascending p,
// added into a zeroed C in block order.
func refBlocked(m, n, k int, a, b []float32) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p0 := 0; p0 < k; p0 += blockK {
				var s float32
				for p := p0; p < min(p0+blockK, k); p++ {
					s += float32(a[i*k+p] * b[p*n+j])
				}
				acc += s
			}
			c[i*n+j] = acc
		}
	}
	return c
}

var scalarRefs = map[Kind]func(m, n, k int, a, b []float32) []float32{
	Naive:   refDot,
	Blocked: refBlocked,
	Packed:  refDot,
}

// parityKinds are the backends whose scalar reference is exact on this
// GOARCH. Outside amd64 the compiler may fuse the naive and packed products
// (and refDot's) into FMAs, each in its own way, so only blocked, whose
// kernels and reference round every product explicitly, is compared there.
func parityKinds() []Kind {
	if runtime.GOARCH != "amd64" {
		return []Kind{Blocked}
	}
	return Kinds()
}

// TestKernelParityWithScalarReference asserts every backend is bitwise equal
// to its scalar reference on every gemmShapes shape at parallelism 1, 2 and
// 4, for the parityKinds of this GOARCH.
func TestKernelParityWithScalarReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 4))
	pools := map[int]*workpool.Pool{}
	for _, par := range []int{1, 2, 4} {
		pools[par] = workpool.New(par)
		defer pools[par].Close()
	}
	for _, sh := range gemmShapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := randMat(rng, m*k)
		b := randMat(rng, k*n)
		for _, kind := range parityKinds() {
			want := scalarRefs[kind](m, n, k, a, b)
			for _, par := range []int{1, 2, 4} {
				c := make([]float32, m*n)
				for i := range c {
					c[i] = float32(math.NaN()) // every element must be overwritten
				}
				ParallelGemm(MustNew(kind), ranger(pools[par]), m, n, k, a, b, c)
				for i := range c {
					if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%v %dx%dx%d par=%d: element %d = %x, scalar reference %x",
							kind, m, n, k, par, i, math.Float32bits(c[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestKernelParityNonFinite repeats the parity check with NaN and ±Inf
// scattered through A and B: the non-finite results must land on the same
// elements as the reference's, and every finite result must match bit for
// bit. (Which NaN payload survives an add of two NaNs is the hardware's
// choice, so NaNs compare as NaN, not by bits.)
func TestKernelParityNonFinite(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 5))
	for _, sh := range [][3]int{{7, 5, 65}, {9, 9, 130}, {128, 1, 1152}, {5, 4, 64}} {
		m, n, k := sh[0], sh[1], sh[2]
		a := randMat(rng, m*k)
		b := randMat(rng, k*n)
		sprinkleNonFinite(rng, a)
		sprinkleNonFinite(rng, b)
		for _, kind := range parityKinds() {
			want := scalarRefs[kind](m, n, k, a, b)
			c := make([]float32, m*n)
			MustNew(kind).Gemm(m, n, k, a, b, c)
			for i := range c {
				if !sameFloat(c[i], want[i]) {
					t.Fatalf("%v %dx%dx%d: element %d = %v, scalar reference %v", kind, m, n, k, i, c[i], want[i])
				}
			}
		}
	}
}

// sprinkleNonFinite overwrites about one element in 97 with NaN, +Inf or -Inf.
func sprinkleNonFinite(rng *rand.Rand, x []float32) {
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := range x {
		if rng.IntN(97) == 0 {
			x[i] = special[rng.IntN(len(special))]
		}
	}
}

// sameFloat reports bitwise equality, treating any two NaNs as equal.
func sameFloat(x, y float32) bool {
	if x != x || y != y {
		return x != x && y != y
	}
	return math.Float32bits(x) == math.Float32bits(y)
}
