package ops

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// gemmKernel computes Y = X·W + B for X [N,K], W [K,M], optional B [M].
func gemmKernel(ctx *Context, _ *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("gemm wants >=2 inputs, got %d", len(inputs))
	}
	x, w := inputs[0], inputs[1]
	if x.Dims() != 2 || w.Dims() != 2 {
		return nil, fmt.Errorf("gemm wants 2-D operands, got %v and %v", x.Shape(), w.Shape())
	}
	n, k := x.Dim(0), x.Dim(1)
	if w.Dim(0) != k {
		return nil, fmt.Errorf("gemm inner dims mismatch: %v x %v", x.Shape(), w.Shape())
	}
	m := w.Dim(1)
	out := ctx.NewTensorUninit(n, m)
	blas.ParallelGemm(ctx.blas(), ctx.ranger(), n, m, k, x.Data(), w.Data(), out.Data())
	if len(inputs) >= 3 {
		b := inputs[2]
		if b.Size() != m {
			return nil, fmt.Errorf("gemm bias size %d != %d", b.Size(), m)
		}
		od, bd := out.Data(), b.Data()
		for i := 0; i < n; i++ {
			row := od[i*m : (i+1)*m]
			for j := range row {
				row[j] += bd[j]
			}
		}
	}
	return []*tensor.Tensor{out}, nil
}

func matMulKernel(ctx *Context, n *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) != 2 {
		return nil, fmt.Errorf("matmul wants 2 inputs, got %d", len(inputs))
	}
	return gemmKernel(ctx, n, inputs)
}

// batchNormKernel normalizes X with per-channel scale/bias/mean/var. X may be
// NCHW or [N,C].
func batchNormKernel(ctx *Context, n *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) != 5 {
		return nil, fmt.Errorf("batchnorm wants 5 inputs, got %d", len(inputs))
	}
	x, scale, bias, mean, variance := inputs[0], inputs[1], inputs[2], inputs[3], inputs[4]
	eps := float32(n.Float("epsilon", 1e-5))
	var c, spatial, nb int
	switch x.Dims() {
	case 4:
		nb, c, spatial = x.Dim(0), x.Dim(1), x.Dim(2)*x.Dim(3)
	case 2:
		nb, c, spatial = x.Dim(0), x.Dim(1), 1
	default:
		return nil, fmt.Errorf("batchnorm input must be 2-D or 4-D, got %v", x.Shape())
	}
	for _, p := range []*tensor.Tensor{scale, bias, mean, variance} {
		if p.Size() != c {
			return nil, fmt.Errorf("batchnorm param size %d != channels %d", p.Size(), c)
		}
	}
	out := ctx.CloneTensor(x)
	od := out.Data()
	sd, bd, md, vd := scale.Data(), bias.Data(), mean.Data(), variance.Data()
	// Precompute per-channel a = scale/sqrt(var+eps), b = bias - a*mean.
	abBuf := getScratch(2 * c)
	av, bv := (*abBuf)[:c], (*abBuf)[c:]
	for i := 0; i < c; i++ {
		a := sd[i] / float32(math.Sqrt(float64(vd[i]+eps)))
		av[i] = a
		bv[i] = bd[i] - a*md[i]
	}
	if pool := ctx.workers(); pool != nil {
		pool.RunRange(nb*c, func(lo, hi int) { scaleShift(od, av, bv, spatial, lo, hi) })
	} else {
		scaleShift(od, av, bv, spatial, 0, nb*c)
	}
	putScratch(abBuf)
	return []*tensor.Tensor{out}, nil
}

// scaleShift applies seg = a·seg + b to the spatial-element planes [lo,hi)
// of od, plane idx taking channel idx%len(av)'s coefficients.
func scaleShift(od, av, bv []float32, spatial, lo, hi int) {
	c := len(av)
	for idx := lo; idx < hi; idx++ {
		ch := idx % c
		a, b := av[ch], bv[ch]
		seg := od[idx*spatial : (idx+1)*spatial]
		for i, v := range seg {
			seg[i] = a*v + b
		}
	}
}

func softmaxKernel(ctx *Context, _ *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("softmax wants 1 input, got %d", len(inputs))
	}
	x := inputs[0]
	if x.Dims() < 1 {
		return nil, fmt.Errorf("softmax wants rank >= 1, got %v", x.Shape())
	}
	last := x.Dim(x.Dims() - 1)
	out := ctx.CloneTensor(x)
	od := out.Data()
	rows := out.Size() / last
	for r := 0; r < rows; r++ {
		seg := od[r*last : (r+1)*last]
		maxV := seg[0]
		for _, v := range seg {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range seg {
			e := math.Exp(float64(v - maxV))
			seg[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range seg {
			seg[i] *= inv
		}
	}
	return []*tensor.Tensor{out}, nil
}

func flattenKernel(ctx *Context, _ *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("flatten wants 1 input, got %d", len(inputs))
	}
	x := inputs[0]
	if x.Dims() < 1 {
		return nil, fmt.Errorf("flatten wants rank >= 1, got %v", x.Shape())
	}
	nb := x.Dim(0)
	rest := x.Size() / nb
	out, err := ctx.CloneTensor(x).Reshape(nb, rest)
	if err != nil {
		return nil, err
	}
	return []*tensor.Tensor{out}, nil
}
