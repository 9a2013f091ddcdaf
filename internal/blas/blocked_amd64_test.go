package blas

import (
	"math/rand/v2"
	"testing"
)

// TestSSETileMatchesGoTile drives the SSE micro-kernel and its portable Go
// form with the same operands, strides and starting C, over every strip
// depth up to blockK and with NaN and ±Inf scattered through A, the strip
// and C, and requires the same bits (NaN for NaN) in every C element,
// including the ones between the tile's rows that neither may touch.
func TestSSETileMatchesGoTile(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 6))
	for plen := 1; plen <= blockK; plen++ {
		for _, special := range []bool{false, true} {
			k := plen + rng.IntN(5)
			n := 4 + rng.IntN(5)
			a := randMat(rng, 3*k+plen)
			s := randMat(rng, 4*plen)
			c := randMat(rng, 3*n+4)
			if special {
				sprinkleNonFinite(rng, a)
				sprinkleNonFinite(rng, s)
				sprinkleNonFinite(rng, c)
			}
			got := append([]float32(nil), c...)
			want := append([]float32(nil), c...)
			blockedTile4x4SSE(a, k, s, got, n)
			blockedTile4x4Go(a, k, s, want, n)
			for i := range got {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("plen=%d k=%d n=%d special=%v: C[%d] = %v (SSE), %v (Go)",
						plen, k, n, special, i, got[i], want[i])
				}
			}
		}
	}
}
