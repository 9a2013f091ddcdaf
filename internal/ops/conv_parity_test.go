package ops

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// refConvIm2Col is the unfused im2col formulation the fused kernel replaced:
// gather every patch into a column buffer, GEMM into a scratch product,
// copy it out with the bias added, then apply the activation over the whole
// output.
func refConvIm2Col(be blas.Backend, x, w *tensor.Tensor, bias []float32, p convParams) []float32 {
	nb, hin, win := x.Dim(0), x.Dim(2), x.Dim(3)
	hout := convOutDim(hin, p.kh, p.stride, p.pad)
	wout := convOutDim(win, p.kw, p.stride, p.pad)
	spatial := hout * wout
	cinG, coutG := p.cin/p.group, p.cout/p.group
	k := cinG * p.kh * p.kw
	xd, wd := x.Data(), w.Data()
	out := make([]float32, nb*p.cout*spatial)
	for b := 0; b < nb; b++ {
		for g := 0; g < p.group; g++ {
			col := make([]float32, k*spatial)
			for r := 0; r < k; r++ {
				ic, fh, fw := r/(p.kh*p.kw), r/p.kw%p.kh, r%p.kw
				for oh := 0; oh < hout; oh++ {
					for ow := 0; ow < wout; ow++ {
						ih, iw := oh*p.stride-p.pad+fh, ow*p.stride-p.pad+fw
						if ih >= 0 && ih < hin && iw >= 0 && iw < win {
							col[r*spatial+oh*wout+ow] = xd[((b*p.cin+g*cinG+ic)*hin+ih)*win+iw]
						}
					}
				}
			}
			prod := make([]float32, coutG*spatial)
			be.Gemm(coutG, spatial, k, wd[g*coutG*k:(g+1)*coutG*k], col, prod)
			for oc := 0; oc < coutG; oc++ {
				var bv float32
				if bias != nil {
					bv = bias[g*coutG+oc]
				}
				for i := 0; i < spatial; i++ {
					out[(b*p.cout+g*coutG+oc)*spatial+i] = prod[oc*spatial+i] + bv
				}
			}
		}
	}
	for i, v := range out {
		switch {
		case p.fusedRelu:
			out[i] = relu(v)
		case p.fusedRelu6:
			out[i] = relu6(v)
		}
	}
	return out
}

// TestConvIm2ColFusedParity checks that the fused im2col conv (GEMM straight
// into the output, pointwise convs reading the input in place, bias and
// activation in one pass) is bitwise equal to refConvIm2Col on every BLAS
// backend, sequentially and with four workers.
func TestConvIm2ColFusedParity(t *testing.T) {
	type convCase struct {
		name   string
		op     string
		x, w   []int
		stride int
		pad    int
		group  int
	}
	cases := []convCase{
		{"pointwise", graph.OpConv, []int{1, 16, 5, 5}, []int{24, 16, 1, 1}, 1, 0, 1},
		{"pointwise-1x1-spatial", graph.OpConv, []int{1, 64, 1, 1}, []int{33, 64, 1, 1}, 1, 0, 1},
		{"pointwise-strided", graph.OpConv, []int{1, 8, 6, 6}, []int{12, 8, 1, 1}, 2, 0, 1},
		{"strided", graph.OpConv, []int{1, 6, 9, 9}, []int{8, 6, 3, 3}, 2, 0, 1},
		{"padded", graph.OpConv, []int{1, 5, 4, 4}, []int{7, 5, 3, 3}, 1, 1, 1},
		{"padded-2x2-spatial", graph.OpConv, []int{1, 128, 2, 2}, []int{9, 128, 3, 3}, 1, 1, 1},
		{"grouped", graph.OpConv, []int{1, 8, 5, 5}, []int{12, 4, 3, 3}, 1, 1, 2},
		{"depthwise", graph.OpDepthwiseConv, []int{1, 6, 7, 7}, []int{6, 1, 3, 3}, 2, 1, 6},
		{"batch-2", graph.OpConv, []int{2, 6, 5, 5}, []int{10, 6, 3, 3}, 1, 1, 1},
		{"batch-2-pointwise", graph.OpConv, []int{2, 9, 3, 3}, []int{5, 9, 1, 1}, 1, 0, 1},
		{"conv-relu-op", graph.OpConvRelu, []int{1, 6, 5, 5}, []int{8, 6, 3, 3}, 1, 1, 1},
		{"conv-bn-relu-op-pointwise", graph.OpConvBNRelu, []int{1, 6, 4, 4}, []int{8, 6, 1, 1}, 1, 0, 1},
	}
	rng := rand.New(rand.NewPCG(20, 7))
	for _, cc := range cases {
		x := randT(rng, cc.x...)
		w := randT(rng, cc.w...)
		for _, act := range []string{"", "relu", "relu6"} {
			for _, withBias := range []bool{true, false} {
				attrs := map[string]graph.Attr{
					"stride": graph.IntAttr(cc.stride), "pad": graph.IntAttr(cc.pad),
					"group": graph.IntAttr(cc.group), "activation": graph.StringAttr(act),
				}
				ins := []*tensor.Tensor{x, w}
				var bias []float32
				if withBias {
					bt := randT(rng, cc.w[0])
					ins = append(ins, bt)
					bias = bt.Data()
				}
				node := &graph.Node{Name: "n", Op: cc.op, Attrs: attrs}
				p, err := resolveConv(node, x, w, len(ins))
				if err != nil {
					t.Fatalf("%s: %v", cc.name, err)
				}
				for _, kind := range blas.Kinds() {
					be := blas.MustNew(kind)
					want := refConvIm2Col(be, x, w, bias, p)
					for _, par := range []int{1, 4} {
						label := fmt.Sprintf("%s/act=%q/bias=%v/%v/par=%d", cc.name, act, withBias, kind, par)
						got := run(t, &Context{ConvAlgo: ConvIm2Col, BLAS: be, Parallelism: par}, cc.op, attrs, ins...)
						if got.Size() != len(want) {
							t.Fatalf("%s: %d outputs, want %d", label, got.Size(), len(want))
						}
						for i, v := range got.Data() {
							if math.Float32bits(v) != math.Float32bits(want[i]) {
								t.Fatalf("%s: element %d = %x, unfused %x", label, i, math.Float32bits(v), math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// negZeroBackend returns -0 for every product element, as a bit-flipping
// backend could.
type negZeroBackend struct{}

func (negZeroBackend) Name() string { return "negzero" }
func (negZeroBackend) Gemm(m, n, k int, a, b, c []float32) {
	for i := range c[:m*n] {
		c[i] = float32(math.Copysign(0, -1))
	}
}

// TestConvIm2ColNilBiasClearsNegativeZero pins the one case where adding a
// zero bias is visible: a -0 from the GEMM must come out as +0, as it did
// when the bias was added to a scratch product.
func TestConvIm2ColNilBiasClearsNegativeZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 8))
	x := randT(rng, 1, 3, 4, 4)
	w := randT(rng, 2, 3, 1, 1)
	for _, act := range []string{"", "relu", "relu6"} {
		out := run(t, &Context{ConvAlgo: ConvIm2Col, BLAS: negZeroBackend{}}, graph.OpConv,
			map[string]graph.Attr{"activation": graph.StringAttr(act)}, x, w)
		for i, v := range out.Data() {
			if math.Float32bits(v) != 0 {
				t.Fatalf("act=%q: element %d = %x, want +0", act, i, math.Float32bits(v))
			}
		}
	}
}
