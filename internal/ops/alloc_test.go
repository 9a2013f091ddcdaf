//go:build !race

// The race detector's sync.Pool drops pooled buffers at random, so the pins
// below hold only in a build without it.

package ops

import (
	"math/rand/v2"
	"testing"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/tensor"
)

var sinkOuts []*tensor.Tensor

// TestSequentialConvAllocatesOnlyOutput pins a sequential im2col conv at the
// allocations of its output tensor and result slice, for pointwise, 3×3 and
// depthwise nodes on every built-in backend: no closure, no scratch beyond
// the pooled im2col buffer.
func TestSequentialConvAllocatesOnlyOutput(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 3))
	cases := []struct {
		name, op    string
		x, w        []int
		stride, pad int
	}{
		{"pointwise", graph.OpConv, []int{1, 16, 4, 4}, []int{24, 16, 1, 1}, 1, 0},
		{"3x3", graph.OpConvRelu, []int{1, 8, 4, 4}, []int{16, 8, 3, 3}, 1, 1},
		{"depthwise", graph.OpDepthwiseConv, []int{1, 16, 4, 4}, []int{16, 1, 3, 3}, 2, 1},
	}
	for _, cc := range cases {
		ins := []*tensor.Tensor{randT(rng, cc.x...), randT(rng, cc.w...), randT(rng, cc.w[0])}
		node := &graph.Node{Name: "n", Op: cc.op, Attrs: map[string]graph.Attr{
			"stride": graph.IntAttr(cc.stride), "pad": graph.IntAttr(cc.pad)}}
		for _, kind := range blas.Kinds() {
			ctx := &Context{ConvAlgo: ConvIm2Col, BLAS: blas.MustNew(kind)}
			outs, err := convKernel(ctx, node, ins) // fills the scratch pools
			if err != nil {
				t.Fatal(err)
			}
			s := outs[0].Shape()
			want := testing.AllocsPerRun(50, func() {
				sinkOuts = []*tensor.Tensor{ctx.NewTensorUninit(s[0], s[1], s[2], s[3])}
			})
			got := testing.AllocsPerRun(50, func() {
				sinkOuts, _ = convKernel(ctx, node, ins)
			})
			if got > want {
				t.Errorf("%s/%v: sequential conv allocates %v per call, want %v (output tensor and result slice)", cc.name, kind, got, want)
			}
		}
	}
}
