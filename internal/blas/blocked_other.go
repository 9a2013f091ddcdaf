//go:build !amd64

package blas

// blockedTile4x4 runs the portable tile where no assembly kernel exists.
func blockedTile4x4(a []float32, k int, s, c []float32, n int) {
	blockedTile4x4Go(a, k, s, c, n)
}
