package blas

import "fmt"

// Plane is the geometry of a depthwise convolution on one channel: an H×W
// input plane, zero-padded by Pad on every border and swept by a KH×KW
// filter at Stride, gives an OH×OW output plane.
type Plane struct {
	H, W, KH, KW, Stride, Pad, OH, OW int
}

// depthwiseBackend is implemented by the built-in backends: convolve n
// consecutive channel planes, each with its own filter, without an im2col
// patch. Each backend writes its loop in its own traversal order; a loop
// shared by the backends would be a common-mode fault.
type depthwiseBackend interface {
	depthwise(g Plane, n int, x, w, c []float32)
}

// HasDepthwise reports whether DepthwiseConv runs planes of geometry g on
// be: be is a built-in backend and the filter fits one k-block, so each
// output element is a single sum in blocked as in the other two backends.
// A wrapped backend (a fault injector, say) has no depthwise loop; its
// caller keeps lowering each plane to im2col + Gemm, so the wrapper sees the
// same Gemm calls as ever.
func HasDepthwise(be Backend, g Plane) bool {
	_, ok := be.(depthwiseBackend)
	return ok && g.KH*g.KW <= blockK
}

// DepthwiseConv computes n depthwise channel planes on be, which must
// satisfy HasDepthwise(be, g): output plane i of c is input plane i of x
// convolved with filter i of w (n·H·W, n·KH·KW and n·OH·OW floats). Every
// output element gets the arithmetic be's Gemm gives it over the plane's
// im2col patch, with the filter as a 1×(KH·KW) A: the sum, from +0, of each
// tap's weight times its input in ascending (fh, fw) order, where a padding
// tap contributes weight·0 (so a non-finite weight still propagates).
func DepthwiseConv(be Backend, g Plane, n int, x, w, c []float32) {
	if g.Stride < 1 || g.OH != (g.H+2*g.Pad-g.KH)/g.Stride+1 || g.OW != (g.W+2*g.Pad-g.KW)/g.Stride+1 ||
		len(x) < n*g.H*g.W || len(w) < n*g.KH*g.KW || len(c) < n*g.OH*g.OW {
		panic(fmt.Sprintf("blas: depthwise geometry %+v does not fit n=%d len(x)=%d len(w)=%d len(c)=%d",
			g, n, len(x), len(w), len(c)))
	}
	be.(depthwiseBackend).depthwise(g, n, x, w, c)
}

// depthwise streams each output row the way naiveRows streams a C row: zero
// it, then add each tap's weight times the input that tap reads (zero in the
// padding) across the whole row, tap by tap in ascending (fh, fw) order.
func (naiveBackend) depthwise(g Plane, n int, x, w, c []float32) {
	taps := g.KH * g.KW
	for ch := 0; ch < n; ch++ {
		xp := x[ch*g.H*g.W : (ch+1)*g.H*g.W]
		wp := w[ch*taps : (ch+1)*taps]
		for oh := 0; oh < g.OH; oh++ {
			ci := c[(ch*g.OH+oh)*g.OW : (ch*g.OH+oh+1)*g.OW]
			for j := range ci {
				ci[j] = 0
			}
			for p, wv := range wp {
				var xr []float32 // the tap's input row; nil in the padding
				if ih := oh*g.Stride - g.Pad + p/g.KW; ih >= 0 && ih < g.H {
					xr = xp[ih*g.W : ih*g.W+g.W]
				}
				iw := p%g.KW - g.Pad
				for j := range ci {
					var xv float32
					if uint(iw) < uint(len(xr)) {
						xv = xr[iw]
					}
					ci[j] += wv * xv
					iw += g.Stride
				}
			}
		}
	}
}

// depthwise sweeps each output row in 4-pixel tiles, the way blockedTile1x4
// sweeps a C row: the output row is zeroed, then four partial sums start at
// 0, take every tap's rounded product in ascending order, and are added into
// it; the row's last OW%4 pixels go through a 1-pixel tile. A tap row in the
// padding reads as nil, a tap column in it as 0 (blockedAt).
func (blockedBackend) depthwise(g Plane, n int, x, w, c []float32) {
	taps := g.KH * g.KW
	owAlign := g.OW &^ 3
	for ch := 0; ch < n; ch++ {
		xp := x[ch*g.H*g.W : (ch+1)*g.H*g.W]
		wp := w[ch*taps : (ch+1)*taps]
		for oh := 0; oh < g.OH; oh++ {
			co := c[(ch*g.OH+oh)*g.OW : (ch*g.OH+oh+1)*g.OW]
			clear(co)
			ih0 := oh*g.Stride - g.Pad
			ow := 0
			for ; ow < owAlign; ow += 4 {
				iw0 := ow*g.Stride - g.Pad
				var s0, s1, s2, s3 float32
				for fh := 0; fh < g.KH; fh++ {
					ih := ih0 + fh
					var xr []float32 // nil: the whole tap row is padding
					if ih >= 0 && ih < g.H {
						xr = xp[ih*g.W : ih*g.W+g.W]
					}
					for fw, wv := range wp[fh*g.KW : fh*g.KW+g.KW] {
						iw := iw0 + fw
						s0 += float32(wv * blockedAt(xr, iw))
						s1 += float32(wv * blockedAt(xr, iw+g.Stride))
						s2 += float32(wv * blockedAt(xr, iw+2*g.Stride))
						s3 += float32(wv * blockedAt(xr, iw+3*g.Stride))
					}
				}
				addRow4(co[ow:ow+4], s0, s1, s2, s3)
			}
			for ; ow < g.OW; ow++ {
				iw0 := ow*g.Stride - g.Pad
				var s0 float32
				for fh := 0; fh < g.KH; fh++ {
					ih := ih0 + fh
					var xr []float32
					if ih >= 0 && ih < g.H {
						xr = xp[ih*g.W : ih*g.W+g.W]
					}
					for fw, wv := range wp[fh*g.KW : fh*g.KW+g.KW] {
						s0 += float32(wv * blockedAt(xr, iw0+fw))
					}
				}
				co[ow] += s0
			}
		}
	}
}

// blockedAt is the input at column iw of the tap row xr, or the padding's
// zero outside it (a nil xr is a padding row).
func blockedAt(xr []float32, iw int) float32 {
	if uint(iw) < uint(len(xr)) {
		return xr[iw]
	}
	return 0
}

// depthwise packs each output pixel's KH×KW patch into a contiguous stack
// vector, the way gemmPanels packs a column of B, then takes one straight
// full-length dot product of it with the filter.
func (packedBackend) depthwise(g Plane, n int, x, w, c []float32) {
	taps := g.KH * g.KW
	var patch [blockK]float32
	for ch := 0; ch < n; ch++ {
		xp := x[ch*g.H*g.W : (ch+1)*g.H*g.W]
		wp := w[ch*taps : (ch+1)*taps]
		cp := c[ch*g.OH*g.OW : (ch+1)*g.OH*g.OW]
		for i := range cp {
			ih0 := i/g.OW*g.Stride - g.Pad
			iw0 := i%g.OW*g.Stride - g.Pad
			pk := patch[:taps]
			for fh := 0; fh < g.KH; fh++ {
				ih := ih0 + fh
				row := pk[fh*g.KW : fh*g.KW+g.KW]
				if ih < 0 || ih >= g.H {
					clear(row)
					continue
				}
				for fw := range row {
					if iw := iw0 + fw; iw >= 0 && iw < g.W {
						row[fw] = xp[ih*g.W+iw]
					} else {
						row[fw] = 0
					}
				}
			}
			pk = pk[:len(wp)]
			var s float32
			for p := range wp {
				s += wp[p] * pk[p]
			}
			cp[i] = s
		}
	}
}
