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

// convJob is one convolution call: operands, geometry and the per-algorithm
// state its range bodies read. The bodies cover a range of output slabs, so
// a sequential context calls them directly. A parallel one hands a copy of
// the job to its pool inside a closure built on that branch alone: escape
// analysis is flow-insensitive, so a closure that captured the job itself
// would move it to the heap on every call.
type convJob struct {
	xd, wd, od, bias     []float32
	p                    convParams
	hin, win, hout, wout int

	// im2col: the BLAS backend, the ranger its GEMMs split rows over (set
	// when there is a single (batch, group) slab), and whether the conv is
	// depthwise on a backend with a depthwise loop of its own.
	be        blas.Backend
	ranger    blas.Ranger
	depthwise bool

	// winograd: the transformed 4×4 filters, one per (oc, ic).
	u []float32
}

func newConvJob(ctx *Context, x, w *tensor.Tensor, bias []float32, p convParams) (convJob, *tensor.Tensor) {
	nb, hin, win := x.Dim(0), x.Dim(2), x.Dim(3)
	hout := convOutDim(hin, p.kh, p.stride, p.pad)
	wout := convOutDim(win, p.kw, p.stride, p.pad)
	out := ctx.NewTensorUninit(nb, p.cout, hout, wout)
	return convJob{
		xd: x.Data(), wd: w.Data(), od: out.Data(), bias: bias, p: p,
		hin: hin, win: win, hout: hout, wout: wout,
	}, out
}

// convDirect is the straightforward nested-loop convolution.
func convDirect(ctx *Context, x, w *tensor.Tensor, bias []float32, p convParams) *tensor.Tensor {
	j, out := newConvJob(ctx, x, w, bias, p)
	n := x.Dim(0) * p.cout
	if pool := ctx.workers(); pool != nil {
		jc := j
		pool.RunRange(n, func(lo, hi int) { jc.direct(lo, hi) })
	} else {
		j.direct(0, n)
	}
	return out
}

// direct computes the (batch, output channel) planes [lo,hi).
func (j *convJob) direct(lo, hi int) {
	p := &j.p
	hin, win, hout, wout := j.hin, j.win, j.hout, j.wout
	xd, wd, od := j.xd, j.wd, j.od
	cinG := p.cin / p.group
	coutG := p.cout / p.group
	for idx := lo; idx < hi; idx++ {
		b, oc := idx/p.cout, idx%p.cout
		g := oc / coutG
		icBase := g * cinG
		var bv float32
		if j.bias != nil {
			bv = j.bias[oc]
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
	}
}

// convIm2Col lowers convolution to GEMM via an im2col buffer, routing the
// matrix product through the context's BLAS backend. This is the kernel path
// a library-level fault (e.g., a FrameFlip-style bit flip in one BLAS
// backend) propagates through. The GEMM writes each (batch, group) slab of
// the output directly; one pass over the slab then adds the bias and applies
// the fused activation, act(gemm + bias). A pointwise conv (1×1, stride 1,
// pad 0) needs no im2col: its input channel slab already is the B matrix. A
// depthwise conv on a built-in backend runs that backend's own depthwise
// loop over each channel plane (blas.DepthwiseConv), which computes what its
// 1-row GEMM over the plane's im2col patch would, without the patch; a
// wrapped backend keeps the per-channel im2col + GEMM lowering.
func convIm2Col(ctx *Context, x, w *tensor.Tensor, bias []float32, p convParams) *tensor.Tensor {
	j, out := newConvJob(ctx, x, w, bias, p)
	j.be = ctx.blas()
	j.depthwise = p.group == p.cin && p.cout == p.cin && blas.HasDepthwise(j.be, j.plane())
	n := x.Dim(0) * p.group
	switch pool := ctx.workers(); {
	case pool == nil:
		j.im2col(0, n)
	case n == 1:
		// A single (batch, group) slab — the common single-image inference
		// case — parallelizes inside the GEMM instead.
		j.ranger = pool
		j.im2col(0, 1)
	default:
		jc := j
		pool.RunRange(n, func(lo, hi int) { jc.im2col(lo, hi) })
	}
	return out
}

// plane is the conv's geometry on one channel.
func (j *convJob) plane() blas.Plane {
	return blas.Plane{H: j.hin, W: j.win, KH: j.p.kh, KW: j.p.kw, Stride: j.p.stride, Pad: j.p.pad, OH: j.hout, OW: j.wout}
}

// im2col computes the (batch, group) slabs [lo,hi) of the output.
func (j *convJob) im2col(lo, hi int) {
	p := &j.p
	hw := j.hin * j.win
	spatial := j.hout * j.wout
	if j.depthwise {
		// group == cin == cout: slab idx is input and output plane idx and
		// reads filter idx%cin. One call covers the run of planes up to the
		// end of the range or of the image, whichever comes first.
		taps := p.kh * p.kw
		g := j.plane()
		for idx := lo; idx < hi; {
			c := idx % p.cin
			n := min(hi-idx, p.cin-c)
			blas.DepthwiseConv(j.be, g, n, j.xd[idx*hw:(idx+n)*hw], j.wd[c*taps:(c+n)*taps], j.od[idx*spatial:(idx+n)*spatial])
			for i := 0; i < n; i++ {
				var bv float32
				if j.bias != nil {
					bv = j.bias[c+i]
				}
				biasActivate(j.od[(idx+i)*spatial:(idx+i+1)*spatial], bv, *p)
			}
			idx += n
		}
		return
	}
	cinG := p.cin / p.group
	coutG := p.cout / p.group
	k := cinG * p.kh * p.kw
	pointwise := p.kh == 1 && p.kw == 1 && p.stride == 1 && p.pad == 0
	for idx := lo; idx < hi; idx++ {
		b, g := idx/p.group, idx%p.group
		xg := j.xd[(b*p.cin+g*cinG)*hw:]
		wg := j.wd[g*coutG*k : (g+1)*coutG*k]
		dst := j.od[(b*p.cout+g*coutG)*spatial : (b*p.cout+(g+1)*coutG)*spatial]
		if pointwise {
			blas.ParallelGemm(j.be, j.ranger, coutG, spatial, k, wg, xg[:k*spatial], dst)
		} else {
			colBuf := getScratch(k * spatial)
			im2col(*colBuf, xg, j.hin, j.win, j.hout, j.wout, cinG, *p)
			blas.ParallelGemm(j.be, j.ranger, coutG, spatial, k, wg, *colBuf, dst)
			putScratch(colBuf)
		}
		for oc := 0; oc < coutG; oc++ {
			var bv float32
			if j.bias != nil {
				bv = j.bias[g*coutG+oc]
			}
			biasActivate(dst[oc*spatial:(oc+1)*spatial], bv, *p)
		}
	}
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
	j := poolJob{xd: x.Data(), od: out.Data(), isMax: isMax, k: k, stride: stride, pad: pad,
		hin: hin, win: win, hout: hout, wout: wout}
	if pool := ctx.workers(); pool != nil {
		jc := j // the closure's copy, as in convJob
		pool.RunRange(nb*c, func(lo, hi int) { jc.run(lo, hi) })
	} else {
		j.run(0, nb*c)
	}
	return []*tensor.Tensor{out}, nil
}

// poolJob is one max/avg pooling call; run covers a range of planes.
type poolJob struct {
	xd, od               []float32
	isMax                bool
	k, stride, pad       int
	hin, win, hout, wout int
}

// run pools the (batch, channel) planes [lo,hi).
func (j *poolJob) run(lo, hi int) {
	k, stride, pad := j.k, j.stride, j.pad
	hin, win, hout, wout := j.hin, j.win, j.hout, j.wout
	for idx := lo; idx < hi; idx++ {
		xc := j.xd[idx*hin*win:]
		oc := j.od[idx*hout*wout:]
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
						if j.isMax {
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
				if !j.isMax && count > 0 {
					acc /= float32(count)
				}
				oc[oh*wout+ow] = acc
			}
		}
	}
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
	if pool := ctx.workers(); pool != nil {
		pool.RunRange(nb*c, func(lo, hi int) { meanPlanes(xd, od, h*w, lo, hi) })
	} else {
		meanPlanes(xd, od, h*w, 0, nb*c)
	}
	return []*tensor.Tensor{out}, nil
}

// meanPlanes sets od[i] to the mean of the i-th size-element plane of xd for
// i in [lo,hi).
func meanPlanes(xd, od []float32, size, lo, hi int) {
	area := float32(size)
	for idx := lo; idx < hi; idx++ {
		var s float32
		for _, v := range xd[idx*size : (idx+1)*size] {
			s += v
		}
		od[idx] = s / area
	}
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
