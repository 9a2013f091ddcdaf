package blas

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/workpool"
)

// BenchmarkGemm compares the three diversity-bearing backends — the
// per-kernel cost axis behind variant execution-time differences (§6.4).
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{32, 128, 256, 384} {
		a := randMat(rng, n*n)
		bm := randMat(rng, n*n)
		c := make([]float32, n*n)
		for _, kind := range Kinds() {
			be := MustNew(kind)
			b.Run(fmt.Sprintf("%s/%d", be.Name(), n), func(b *testing.B) {
				b.SetBytes(int64(4 * n * n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					be.Gemm(n, n, n, a, bm, c)
				}
			})
		}
	}
}

// BenchmarkGemmParallel measures row-panel parallel execution through a
// persistent worker pool at the Context.Parallelism levels variants use.
// On a single-core host the parallel levels measure dispatch overhead only;
// panel scaling needs real cores.
func BenchmarkGemmParallel(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 1))
	const n = 256
	a := randMat(rng, n*n)
	bm := randMat(rng, n*n)
	c := make([]float32, n*n)
	for _, par := range []int{1, 4} {
		pool := workpool.New(par)
		var r Ranger
		if pool != nil {
			r = pool
		}
		for _, kind := range Kinds() {
			be := MustNew(kind)
			b.Run(fmt.Sprintf("%s/%d/p%d", be.Name(), n, par), func(b *testing.B) {
				b.SetBytes(int64(4 * n * n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ParallelGemm(be, r, n, n, n, a, bm, c)
				}
			})
		}
		pool.Close()
	}
}

// BenchmarkGemmDeepLayers measures the shapes the served convnets run in
// their deep layers, where the spatial size falls to 2×2 or 1×1 and the GEMM
// n is 4 or 1: 3×3 convs over 128 and 64 channels, pointwise convs, and
// one shape off every tile and k-block boundary.
func BenchmarkGemmDeepLayers(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 1))
	for _, sh := range [][3]int{{128, 1, 1152}, {64, 4, 576}, {256, 4, 128}, {512, 1, 1152}, {128, 4, 1152}, {64, 2, 65}} {
		m, n, k := sh[0], sh[1], sh[2]
		a := randMat(rng, m*k)
		bm := randMat(rng, k*n)
		c := make([]float32, m*n)
		for _, kind := range Kinds() {
			be := MustNew(kind)
			b.Run(fmt.Sprintf("%s/%dx%dx%d", be.Name(), m, n, k), func(b *testing.B) {
				for b.Loop() {
					be.Gemm(m, n, k, a, bm, c)
				}
				b.ReportMetric(float64(m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
