package blas

// blockedTile4x4SSE is the SSE2 form of blockedTile4x4Go (blocked_amd64.s).
// It reads len(s)/4 elements of each of the four A rows and does no bounds
// checks of its own.
//
//go:noescape
func blockedTile4x4SSE(a []float32, k int, s, c []float32, n int)

// blockedTile4x4 adds the k-block partial sums of the 4×4 C tile at c (row
// stride n) from the A rows at a (row stride k) and the interleaved [p][4] B
// strip s, through the SSE2 micro-kernel. SSE2 is the amd64 baseline, so no
// CPU detection is needed.
func blockedTile4x4(a []float32, k int, s, c []float32, n int) {
	plen := len(s) / 4
	if plen == 0 {
		return
	}
	_ = a[3*k+plen-1]
	_ = c[3*n+3]
	blockedTile4x4SSE(a, k, s, c, n)
}
