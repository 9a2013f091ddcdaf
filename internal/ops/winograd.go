package ops

import (
	"repro/internal/tensor"
)

// Winograd F(2×2, 3×3) convolution — a third kernel strategy for the variant
// pool. ML compilers like TVM emit Winograd kernels as auto-tuning trial
// candidates (§4.2 "tensor operation strategies"); its radically different
// arithmetic (4×4 tile transforms instead of dot products) makes it a strong
// implementation-diversity axis. Applies to ungrouped 3×3 stride-1
// convolutions; other shapes fall back to the direct kernel.

// winogradApplicable reports whether the parameters fit F(2x2,3x3).
func winogradApplicable(p convParams) bool {
	return p.kh == 3 && p.kw == 3 && p.stride == 1 && p.group == 1
}

// convWinograd computes the convolution via F(2x2,3x3) tile transforms.
func convWinograd(ctx *Context, x, w *tensor.Tensor, bias []float32, p convParams) *tensor.Tensor {
	j, out := newConvJob(ctx, x, w, bias, p)

	// Precompute U = G·g·Gᵀ for every (oc, ic) filter: 4×4 transformed
	// filters.
	uBuf := getScratch(p.cout * p.cin * 16)
	j.u = *uBuf
	for oc := 0; oc < p.cout; oc++ {
		for ic := 0; ic < p.cin; ic++ {
			g := j.wd[(oc*p.cin+ic)*9 : (oc*p.cin+ic)*9+9]
			transformFilter(g, j.u[(oc*p.cin+ic)*16:(oc*p.cin+ic)*16+16])
		}
	}
	nb := x.Dim(0)
	if pool := ctx.workers(); pool != nil {
		jc := j
		pool.RunRange(nb, func(lo, hi int) { jc.winograd(lo, hi) })
	} else {
		j.winograd(0, nb)
	}
	putScratch(uBuf)
	applyFusedActivation(out, p)
	return out
}

// winograd computes the output of images [lo,hi).
func (j *convJob) winograd(lo, hi int) {
	p := &j.p
	hin, win, hout, wout := j.hin, j.win, j.hout, j.wout
	xd, od, u, bias := j.xd, j.od, j.u, j.bias
	tilesH := (hout + 1) / 2
	tilesW := (wout + 1) / 2
	var dArr, vArr, mArr [16]float32
	var yArr [4]float32
	d := dArr[:] // input tile
	v := vArr[:] // transformed input tile
	m := mArr[:] // accumulated elementwise products
	y := yArr[:] // output tile
	vAllBuf := getScratch(p.cin * 16)
	vAll := *vAllBuf
	for b := lo; b < hi; b++ {
		for th := 0; th < tilesH; th++ {
			for tw := 0; tw < tilesW; tw++ {
				// Gather and transform the 4×4 input tile of every input
				// channel once per tile position.
				ih0 := th*2 - p.pad
				iw0 := tw*2 - p.pad
				for ic := 0; ic < p.cin; ic++ {
					xc := xd[((b*p.cin+ic)*hin)*win:]
					for r := 0; r < 4; r++ {
						ir := ih0 + r
						for c := 0; c < 4; c++ {
							iw := iw0 + c
							if ir >= 0 && ir < hin && iw >= 0 && iw < win {
								d[r*4+c] = xc[ir*win+iw]
							} else {
								d[r*4+c] = 0
							}
						}
					}
					transformInput(d, v)
					copy(vAll[ic*16:ic*16+16], v)
				}
				for oc := 0; oc < p.cout; oc++ {
					for i := range m {
						m[i] = 0
					}
					for ic := 0; ic < p.cin; ic++ {
						uf := u[(oc*p.cin+ic)*16 : (oc*p.cin+ic)*16+16]
						vf := vAll[ic*16 : ic*16+16]
						for i := 0; i < 16; i++ {
							m[i] += uf[i] * vf[i]
						}
					}
					transformOutput(m, y)
					var bv float32
					if bias != nil {
						bv = bias[oc]
					}
					base := ((b*p.cout + oc) * hout) * wout
					for r := 0; r < 2; r++ {
						oh := th*2 + r
						if oh >= hout {
							continue
						}
						for c := 0; c < 2; c++ {
							ow := tw*2 + c
							if ow >= wout {
								continue
							}
							od[base+oh*wout+ow] = y[r*2+c] + bv
						}
					}
				}
			}
		}
	}
	putScratch(vAllBuf)
}

// transformFilter computes U = G·g·Gᵀ for a 3×3 filter g into a 4×4 u.
//
//	G = [ 1    0    0  ]
//	    [ 1/2  1/2  1/2]
//	    [ 1/2 -1/2  1/2]
//	    [ 0    0    1  ]
func transformFilter(g, u []float32) {
	var t [12]float32 // G·g (4×3)
	for c := 0; c < 3; c++ {
		g0, g1, g2 := g[c], g[3+c], g[6+c]
		t[c] = g0
		t[3+c] = 0.5 * (g0 + g1 + g2)
		t[6+c] = 0.5 * (g0 - g1 + g2)
		t[9+c] = g2
	}
	for r := 0; r < 4; r++ {
		t0, t1, t2 := t[r*3], t[r*3+1], t[r*3+2]
		u[r*4] = t0
		u[r*4+1] = 0.5 * (t0 + t1 + t2)
		u[r*4+2] = 0.5 * (t0 - t1 + t2)
		u[r*4+3] = t2
	}
}

// transformInput computes V = Bᵀ·d·B for a 4×4 tile d.
//
//	Bᵀ = [1  0 -1  0]
//	     [0  1  1  0]
//	     [0 -1  1  0]
//	     [0  1  0 -1]
func transformInput(d, v []float32) {
	var t [16]float32 // Bᵀ·d
	for c := 0; c < 4; c++ {
		d0, d1, d2, d3 := d[c], d[4+c], d[8+c], d[12+c]
		t[c] = d0 - d2
		t[4+c] = d1 + d2
		t[8+c] = d2 - d1
		t[12+c] = d1 - d3
	}
	for r := 0; r < 4; r++ {
		t0, t1, t2, t3 := t[r*4], t[r*4+1], t[r*4+2], t[r*4+3]
		v[r*4] = t0 - t2
		v[r*4+1] = t1 + t2
		v[r*4+2] = t2 - t1
		v[r*4+3] = t1 - t3
	}
}

// transformOutput computes Y = Aᵀ·m·A for a 4×4 m into a 2×2 y.
//
//	Aᵀ = [1 1  1  0]
//	     [0 1 -1 -1]
func transformOutput(m, y []float32) {
	var t [8]float32 // Aᵀ·m (2×4)
	for c := 0; c < 4; c++ {
		m0, m1, m2, m3 := m[c], m[4+c], m[8+c], m[12+c]
		t[c] = m0 + m1 + m2
		t[4+c] = m1 - m2 - m3
	}
	for r := 0; r < 2; r++ {
		t0, t1, t2, t3 := t[r*4], t[r*4+1], t[r*4+2], t[r*4+3]
		y[r*2] = t0 + t1 + t2
		y[r*2+1] = t1 - t2 - t3
	}
}
