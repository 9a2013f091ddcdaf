package ops

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// convParams collects the resolved convolution hyper-parameters of a node.
type convParams struct {
	kh, kw     int
	stride     int
	pad        int
	group      int
	cin, cout  int // full channel counts (not per-group)
	hasBias    bool
	fusedRelu  bool
	fusedRelu6 bool
}

func resolveConv(n *graph.Node, x, w *tensor.Tensor, nin int) (convParams, error) {
	var p convParams
	if x.Dims() != 4 {
		return p, fmt.Errorf("conv input must be NCHW, got shape %v", x.Shape())
	}
	if w.Dims() != 4 {
		return p, fmt.Errorf("conv weight must be [Cout,Cin/g,Kh,Kw], got %v", w.Shape())
	}
	p.cout, p.kh, p.kw = w.Dim(0), w.Dim(2), w.Dim(3)
	p.cin = x.Dim(1)
	p.stride = n.Int("stride", 1)
	p.pad = n.Int("pad", 0)
	p.group = n.Int("group", 1)
	if n.Op == graph.OpDepthwiseConv {
		p.group = p.cin
	}
	if p.group < 1 || p.cin%p.group != 0 || p.cout%p.group != 0 {
		return p, fmt.Errorf("conv groups %d incompatible with cin=%d cout=%d", p.group, p.cin, p.cout)
	}
	if w.Dim(1) != p.cin/p.group {
		return p, fmt.Errorf("conv weight cin/g %d != input cin %d / groups %d", w.Dim(1), p.cin, p.group)
	}
	p.hasBias = nin >= 3
	switch n.Str("activation", "") {
	case "relu":
		p.fusedRelu = true
	case "relu6":
		p.fusedRelu6 = true
	}
	if n.Op == graph.OpConvRelu || n.Op == graph.OpConvBNRelu {
		p.fusedRelu = true
	}
	return p, nil
}

func convOutDim(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

func convKernel(ctx *Context, n *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("conv wants >=2 inputs, got %d", len(inputs))
	}
	x, w := inputs[0], inputs[1]
	p, err := resolveConv(n, x, w, len(inputs))
	if err != nil {
		return nil, err
	}
	var bias []float32
	if p.hasBias {
		bias = inputs[2].Data()
	}
	var out *tensor.Tensor
	switch algo := ctx.convAlgo(); {
	case algo == ConvIm2Col:
		// convIm2Col and convWinograd apply their own fused activation.
		return []*tensor.Tensor{convIm2Col(ctx, x, w, bias, p)}, nil
	case algo == ConvWinograd && winogradApplicable(p):
		return []*tensor.Tensor{convWinograd(ctx, x, w, bias, p)}, nil
	default:
		out = convDirect(ctx, x, w, bias, p)
	}
	applyFusedActivation(out, p)
	return []*tensor.Tensor{out}, nil
}

func applyFusedActivation(out *tensor.Tensor, p convParams) {
	switch {
	case p.fusedRelu:
		out.Apply(relu)
	case p.fusedRelu6:
		out.Apply(relu6)
	}
}

// convDirect is the straightforward nested-loop convolution.
func convDirect(ctx *Context, x, w *tensor.Tensor, bias []float32, p convParams) *tensor.Tensor {
	nb, hin, win := x.Dim(0), x.Dim(2), x.Dim(3)
	hout := convOutDim(hin, p.kh, p.stride, p.pad)
	wout := convOutDim(win, p.kw, p.stride, p.pad)
	out := ctx.NewTensorUninit(nb, p.cout, hout, wout)
	xd, wd, od := x.Data(), w.Data(), out.Data()
	cinG := p.cin / p.group
	coutG := p.cout / p.group

	ctx.parallelFor(nb*p.cout, func(idx int) {
		b, oc := idx/p.cout, idx%p.cout
		g := oc / coutG
		icBase := g * cinG
		var bv float32
		if bias != nil {
			bv = bias[oc]
		}
		for oh := 0; oh < hout; oh++ {
			ihBase := oh*p.stride - p.pad
			for ow := 0; ow < wout; ow++ {
				iwBase := ow*p.stride - p.pad
				acc := bv
				for ic := 0; ic < cinG; ic++ {
					xc := xd[((b*p.cin+icBase+ic)*hin)*win:]
					wc := wd[((oc*cinG+ic)*p.kh)*p.kw:]
					for fh := 0; fh < p.kh; fh++ {
						ih := ihBase + fh
						if ih < 0 || ih >= hin {
							continue
						}
						for fw := 0; fw < p.kw; fw++ {
							iw := iwBase + fw
							if iw < 0 || iw >= win {
								continue
							}
							acc += xc[ih*win+iw] * wc[fh*p.kw+fw]
						}
					}
				}
				od[((b*p.cout+oc)*hout+oh)*wout+ow] = acc
			}
		}
	})
	return out
}

// convIm2Col lowers convolution to GEMM via an im2col buffer, routing the
// matrix product through the context's BLAS backend. This is the kernel path
// a library-level fault (e.g., a FrameFlip-style bit flip in one BLAS
// backend) propagates through. The GEMM writes each (batch, group) slab of
// the output directly; one pass over the slab then adds the bias and applies
// the fused activation, act(gemm + bias). A pointwise conv (1×1, stride 1,
// pad 0) needs no im2col: its input channel slab already is the B matrix.
func convIm2Col(ctx *Context, x, w *tensor.Tensor, bias []float32, p convParams) *tensor.Tensor {
	nb, hin, win := x.Dim(0), x.Dim(2), x.Dim(3)
	hout := convOutDim(hin, p.kh, p.stride, p.pad)
	wout := convOutDim(win, p.kw, p.stride, p.pad)
	out := ctx.NewTensorUninit(nb, p.cout, hout, wout)
	xd, wd, od := x.Data(), w.Data(), out.Data()
	cinG := p.cin / p.group
	coutG := p.cout / p.group
	be := ctx.blas()

	k := cinG * p.kh * p.kw
	spatial := hout * wout
	pointwise := p.kh == 1 && p.kw == 1 && p.stride == 1 && p.pad == 0
	// When the outer (batch, group) loop is trivial — the common single-image
	// inference case — parallelize inside the GEMM instead.
	var gemmRanger blas.Ranger
	if nb*p.group == 1 {
		gemmRanger = ctx.ranger()
	}
	ctx.parallelFor(nb*p.group, func(idx int) {
		b, g := idx/p.group, idx%p.group
		xg := xd[(b*p.cin+g*cinG)*hin*win:]
		dst := od[(b*p.cout+g*coutG)*spatial : (b*p.cout+(g+1)*coutG)*spatial]
		if pointwise {
			blas.ParallelGemm(be, gemmRanger, coutG, spatial, k, wd[g*coutG*k:(g+1)*coutG*k], xg[:k*spatial], dst)
		} else {
			colBuf := getScratch(k * spatial)
			im2col(*colBuf, xg, hin, win, hout, wout, cinG, p)
			blas.ParallelGemm(be, gemmRanger, coutG, spatial, k, wd[g*coutG*k:(g+1)*coutG*k], *colBuf, dst)
			putScratch(colBuf)
		}
		for oc := 0; oc < coutG; oc++ {
			var bv float32
			if bias != nil {
				bv = bias[g*coutG+oc]
			}
			biasActivate(dst[oc*spatial:(oc+1)*spatial], bv, p)
		}
	})
	return out
}

// im2col fills col with the patches of the cinG input channels at xg.
// Layout: rows = (ic, fh, fw), cols = (oh, ow) — matches the weight row
// layout so GEMM accumulates in the same index order as direct.
func im2col(col, xg []float32, hin, win, hout, wout, cinG int, p convParams) {
	spatial := hout * wout
	row := 0
	for ic := 0; ic < cinG; ic++ {
		xc := xg[ic*hin*win:]
		for fh := 0; fh < p.kh; fh++ {
			for fw := 0; fw < p.kw; fw++ {
				dst := col[row*spatial:]
				ci := 0
				for oh := 0; oh < hout; oh++ {
					ih := oh*p.stride - p.pad + fh
					for ow := 0; ow < wout; ow++ {
						iw := ow*p.stride - p.pad + fw
						if ih >= 0 && ih < hin && iw >= 0 && iw < win {
							dst[ci] = xc[ih*win+iw]
						} else {
							dst[ci] = 0
						}
						ci++
					}
				}
				row++
			}
		}
	}
}

// biasActivate sets row[i] = act(row[i] + bv) with the conv's fused
// activation. The bias is added even when there is none (bv = 0), as the
// unfused formulation did, so a -0 from the GEMM (a fault-injecting backend
// can return one) still becomes +0.
func biasActivate(row []float32, bv float32, p convParams) {
	switch {
	case p.fusedRelu:
		for i, v := range row {
			row[i] = relu(v + bv)
		}
	case p.fusedRelu6:
		for i, v := range row {
			row[i] = relu6(v + bv)
		}
	default:
		for i, v := range row {
			row[i] = v + bv
		}
	}
}

// --- pooling ------------------------------------------------------------------

func maxPoolKernel(ctx *Context, n *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return poolKernel(ctx, n, inputs, true)
}

func avgPoolKernel(ctx *Context, n *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return poolKernel(ctx, n, inputs, false)
}

func poolKernel(ctx *Context, n *graph.Node, inputs []*tensor.Tensor, isMax bool) ([]*tensor.Tensor, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("pool wants 1 input, got %d", len(inputs))
	}
	x := inputs[0]
	if x.Dims() != 4 {
		return nil, fmt.Errorf("pool input must be NCHW, got %v", x.Shape())
	}
	k := n.Int("kernel", 2)
	stride := n.Int("stride", k)
	pad := n.Int("pad", 0)
	nb, c, hin, win := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hout := convOutDim(hin, k, stride, pad)
	wout := convOutDim(win, k, stride, pad)
	out := ctx.NewTensorUninit(nb, c, hout, wout)
	xd, od := x.Data(), out.Data()

	ctx.parallelFor(nb*c, func(idx int) {
		xc := xd[idx*hin*win:]
		oc := od[idx*hout*wout:]
		for oh := 0; oh < hout; oh++ {
			for ow := 0; ow < wout; ow++ {
				var acc float32
				count := 0
				first := true
				for fh := 0; fh < k; fh++ {
					ih := oh*stride - pad + fh
					if ih < 0 || ih >= hin {
						continue
					}
					for fw := 0; fw < k; fw++ {
						iw := ow*stride - pad + fw
						if iw < 0 || iw >= win {
							continue
						}
						v := xc[ih*win+iw]
						if isMax {
							if first || v > acc {
								acc = v
							}
							first = false
						} else {
							acc += v
							count++
						}
					}
				}
				if !isMax && count > 0 {
					acc /= float32(count)
				}
				oc[oh*wout+ow] = acc
			}
		}
	})
	return []*tensor.Tensor{out}, nil
}

func globalAvgPoolKernel(ctx *Context, _ *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("global avg pool wants 1 input, got %d", len(inputs))
	}
	x := inputs[0]
	if x.Dims() != 4 {
		return nil, fmt.Errorf("global avg pool input must be NCHW, got %v", x.Shape())
	}
	nb, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := ctx.NewTensorUninit(nb, c, 1, 1)
	xd, od := x.Data(), out.Data()
	area := float32(h * w)
	ctx.parallelFor(nb*c, func(idx int) {
		var s float32
		for _, v := range xd[idx*h*w : (idx+1)*h*w] {
			s += v
		}
		od[idx] = s / area
	})
	return []*tensor.Tensor{out}, nil
}

func padKernel(ctx *Context, n *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("pad wants 1 input, got %d", len(inputs))
	}
	x := inputs[0]
	if x.Dims() != 4 {
		return nil, fmt.Errorf("pad input must be NCHW, got %v", x.Shape())
	}
	pads := n.IntsOr("pads", []int{0, 0, 0, 0}) // top, bottom, left, right
	if len(pads) != 4 {
		return nil, fmt.Errorf("pads attr must have 4 entries, got %d", len(pads))
	}
	nb, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ho, wo := h+pads[0]+pads[1], w+pads[2]+pads[3]
	// Pad relies on zero-filled borders; NewTensor (not Uninit) guarantees
	// them even for arena-recycled buffers.
	out := ctx.NewTensor(nb, c, ho, wo)
	xd, od := x.Data(), out.Data()
	for bc := 0; bc < nb*c; bc++ {
		for ih := 0; ih < h; ih++ {
			src := xd[bc*h*w+ih*w : bc*h*w+(ih+1)*w]
			dst := od[bc*ho*wo+(ih+pads[0])*wo+pads[2]:]
			copy(dst[:w], src)
		}
	}
	return []*tensor.Tensor{out}, nil
}
