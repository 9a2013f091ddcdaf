//go:build !race

// The race detector's sync.Pool drops pooled buffers at random, so the pins
// below hold only in a build without it.

package blas

import "testing"

// TestSequentialKernelsAllocateNothing pins the sequential kernels at zero
// allocations: ParallelGemm with a nil ranger at served shapes (a
// depthwise channel's 1-row GEMM and a small 3×3 conv's), and DepthwiseConv,
// on every built-in backend.
func TestSequentialKernelsAllocateNothing(t *testing.T) {
	g := Plane{H: 8, W: 8, KH: 3, KW: 3, Stride: 1, Pad: 1, OH: 8, OW: 8}
	x, w, dc := make([]float32, 4*8*8), make([]float32, 4*9), make([]float32, 4*8*8)
	for _, kind := range Kinds() {
		be := MustNew(kind)
		for _, s := range []struct{ m, k, n int }{{1, 9, 16}, {16, 27, 64}} {
			a, b, c := make([]float32, s.m*s.k), make([]float32, s.k*s.n), make([]float32, s.m*s.n)
			ParallelGemm(be, nil, s.m, s.n, s.k, a, b, c) // fills packed's buffer pool
			if got := testing.AllocsPerRun(100, func() { ParallelGemm(be, nil, s.m, s.n, s.k, a, b, c) }); got != 0 {
				t.Errorf("%v: sequential ParallelGemm m=%d k=%d n=%d allocates %v per call, want 0", kind, s.m, s.k, s.n, got)
			}
		}
		if got := testing.AllocsPerRun(100, func() { DepthwiseConv(be, g, 4, x, w, dc) }); got != 0 {
			t.Errorf("%v: DepthwiseConv allocates %v per call, want 0", kind, got)
		}
	}
}
