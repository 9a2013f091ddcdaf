package ops

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// refDepthwise is the lowering the depthwise loops replaced: per channel, an
// im2col patch, a 1-row GEMM through ParallelGemm into the output plane, then
// bias and activation in one pass.
func refDepthwise(be blas.Backend, x, w *tensor.Tensor, bias []float32, p convParams) []float32 {
	nb, hin, win := x.Dim(0), x.Dim(2), x.Dim(3)
	hout := convOutDim(hin, p.kh, p.stride, p.pad)
	wout := convOutDim(win, p.kw, p.stride, p.pad)
	spatial, k := hout*wout, p.kh*p.kw
	out := make([]float32, nb*p.cout*spatial)
	col := make([]float32, k*spatial)
	for b := 0; b < nb; b++ {
		for c := 0; c < p.cin; c++ {
			im2col(col, x.Data()[(b*p.cin+c)*hin*win:], hin, win, hout, wout, 1, p)
			dst := out[(b*p.cout+c)*spatial : (b*p.cout+c+1)*spatial]
			blas.ParallelGemm(be, nil, 1, spatial, k, w.Data()[c*k:(c+1)*k], col, dst)
			var bv float32
			if bias != nil {
				bv = bias[c]
			}
			biasActivate(dst, bv, p)
		}
	}
	return out
}

// TestDepthwiseMatchesIm2ColGemm checks each built-in backend's depthwise
// loop bit for bit against its own per-channel im2col + GEMM, over kernel
// sizes 1–7, both strides, every pad up to k/2, batches 1–3, every fused
// activation, -0 inputs, non-finite weights and 1, 2 and 4 workers.
func TestDepthwiseMatchesIm2ColGemm(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	cases := 0
	for _, kk := range []int{1, 3, 5, 7} {
		for _, stride := range []int{1, 2} {
			for pad := 0; pad <= kk/2; pad++ {
				for nb := 1; nb <= 3; nb++ {
					c := 1 + rng.IntN(6)
					hw := kk + rng.IntN(6)
					x := randT(rng, nb, c, hw, hw+rng.IntN(3))
					w := randT(rng, c, 1, kk, kk)
					bias := randT(rng, c)
					xd, wd := x.Data(), w.Data()
					for i := range xd {
						if rng.IntN(5) == 0 {
							xd[i] = negZero
						}
					}
					if rng.IntN(3) == 0 {
						wd[rng.IntN(len(wd))] = []float32{inf, -inf, nan}[rng.IntN(3)]
					}
					for _, act := range []string{"", "relu", "relu6"} {
						attrs := map[string]graph.Attr{
							"stride": graph.IntAttr(stride), "pad": graph.IntAttr(pad),
							"activation": graph.StringAttr(act),
						}
						ins := []*tensor.Tensor{x, w}
						var bd []float32
						if rng.IntN(2) == 0 {
							ins, bd = append(ins, bias), bias.Data()
						}
						node := &graph.Node{Name: "n", Op: graph.OpDepthwiseConv, Attrs: attrs}
						p, err := resolveConv(node, x, w, len(ins))
						if err != nil {
							t.Fatal(err)
						}
						for _, kind := range blas.Kinds() {
							be := blas.MustNew(kind)
							want := refDepthwise(be, x, w, bd, p)
							for _, par := range []int{1, 2, 4} {
								label := fmt.Sprintf("k=%d s=%d pad=%d x=%v act=%q bias=%v %v par=%d",
									kk, stride, pad, x.Shape(), act, bd != nil, kind, par)
								got := run(t, &Context{ConvAlgo: ConvIm2Col, BLAS: be, Parallelism: par},
									graph.OpDepthwiseConv, attrs, ins...)
								if got.Size() != len(want) {
									t.Fatalf("%s: %d outputs, want %d", label, got.Size(), len(want))
								}
								for i, v := range got.Data() {
									if math.Float32bits(v) != math.Float32bits(want[i]) {
										t.Fatalf("%s: element %d = %x, im2col+GEMM %x", label, i, math.Float32bits(v), math.Float32bits(want[i]))
									}
								}
								cases++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases bitwise equal", cases)
}

// countingBLAS is a wrapped backend: it counts the Gemm calls it receives
// and forwards them.
type countingBLAS struct {
	inner blas.Backend
	calls atomic.Int64
}

func (c *countingBLAS) Name() string { return c.inner.Name() + "+count" }
func (c *countingBLAS) Gemm(m, n, k int, a, b, cc []float32) {
	c.calls.Add(1)
	c.inner.Gemm(m, n, k, a, b, cc)
}

// TestDepthwiseWrappedBackendKeepsGemmPerChannel checks that a wrapped
// backend (a fault injector stands in the same place) still receives one
// Gemm call per (batch, channel) plane and the im2col + GEMM result.
func TestDepthwiseWrappedBackendKeepsGemmPerChannel(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 2))
	x := randT(rng, 2, 5, 6, 6)
	w := randT(rng, 5, 1, 3, 3)
	attrs := map[string]graph.Attr{"stride": graph.IntAttr(1), "pad": graph.IntAttr(1)}
	node := &graph.Node{Name: "n", Op: graph.OpDepthwiseConv, Attrs: attrs}
	p, err := resolveConv(node, x, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range blas.Kinds() {
		for _, par := range []int{1, 4} {
			wrapped := &countingBLAS{inner: blas.MustNew(kind)}
			got := run(t, &Context{ConvAlgo: ConvIm2Col, BLAS: wrapped, Parallelism: par}, graph.OpDepthwiseConv, attrs, x, w)
			if n := wrapped.calls.Load(); n != 2*5 {
				t.Fatalf("%v par=%d: wrapped backend got %d Gemm calls, want one per plane (10)", kind, par, n)
			}
			want := refDepthwise(blas.MustNew(kind), x, w, nil, p)
			for i, v := range got.Data() {
				if math.Float32bits(v) != math.Float32bits(want[i]) {
					t.Fatalf("%v par=%d: element %d = %x, want %x", kind, par, i, math.Float32bits(v), math.Float32bits(want[i]))
				}
			}
		}
	}
}
