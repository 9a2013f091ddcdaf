// Package ops implements the operator kernels of the MVTEE inference stack
// and their shape semantics. Several operators have more than one kernel
// implementation (e.g., direct vs. im2col convolution) and all matrix work is
// routed through a configurable BLAS backend; together these form the
// kernel-level diversification axis of the paper's variant pool (§4.2).
package ops

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/workpool"
)

// ConvAlgo selects the convolution kernel implementation.
type ConvAlgo int

// Convolution algorithm choices.
const (
	ConvDirect   ConvAlgo = iota + 1 // straightforward nested loops
	ConvIm2Col                       // im2col lowering + GEMM through the BLAS backend
	ConvWinograd                     // Winograd F(2x2,3x3) tiles; falls back to direct off-shape
)

func (a ConvAlgo) String() string {
	switch a {
	case ConvDirect:
		return "direct"
	case ConvIm2Col:
		return "im2col"
	case ConvWinograd:
		return "winograd"
	default:
		return fmt.Sprintf("ConvAlgo(%d)", int(a))
	}
}

// Allocator supplies output tensors to kernels. Executors install an arena
// here so steady-state runs recycle intermediate buffers instead of
// allocating; a nil Allocator falls back to tensor.New.
type Allocator interface {
	// NewTensor returns a zero-filled tensor of the given shape.
	NewTensor(shape ...int) *tensor.Tensor
	// NewTensorUninit returns a tensor whose contents are unspecified; the
	// caller promises to overwrite every element.
	NewTensorUninit(shape ...int) *tensor.Tensor
}

// Context carries per-variant execution configuration into kernels. A zero
// Context is usable: it defaults to the naive BLAS backend, direct
// convolution and single-threaded execution. Contexts must not be copied
// after first use (they lazily own a worker pool).
type Context struct {
	// BLAS is the linear-algebra backend; nil means blas.Naive.
	BLAS blas.Backend
	// ConvAlgo selects the convolution kernel; zero means ConvDirect.
	ConvAlgo ConvAlgo
	// Parallelism bounds intra-op workers; <=1 means sequential. Workers
	// live in a persistent pool owned by the Context, created on first
	// parallel region and reused across all operator invocations.
	Parallelism int
	// CheckFinite makes kernels fail with ErrNonFinite when an output
	// contains NaN/Inf — the "error handling" hardening variant that turns
	// silent FPE corruption into a detectable crash.
	CheckFinite bool
	// Alloc, when non-nil, supplies kernel output tensors (see Allocator).
	Alloc Allocator

	poolOnce sync.Once
	pool     *workpool.Pool
}

// workers returns the context's persistent pool, creating it on first use.
// Returns nil (sequential) when Parallelism <= 1.
func (c *Context) workers() *workpool.Pool {
	if c == nil || c.Parallelism <= 1 {
		return nil
	}
	c.poolOnce.Do(func() {
		c.pool = workpool.New(c.Parallelism)
		if c.pool != nil {
			// Contexts have no Close; release the background workers when
			// the owning Context is collected.
			runtime.AddCleanup(c, func(p *workpool.Pool) { p.Close() }, c.pool)
		}
	})
	return c.pool
}

// ranger exposes the worker pool to BLAS panel execution; nil means
// sequential.
func (c *Context) ranger() blas.Ranger {
	if p := c.workers(); p != nil {
		return p
	}
	return nil
}

// NewTensor allocates a zero-filled tensor through the context's allocator.
func (c *Context) NewTensor(shape ...int) *tensor.Tensor {
	if c != nil && c.Alloc != nil {
		return c.Alloc.NewTensor(shape...)
	}
	return tensor.New(shape...)
}

// NewTensorUninit allocates a tensor with unspecified contents through the
// context's allocator; every element must be overwritten by the caller.
func (c *Context) NewTensorUninit(shape ...int) *tensor.Tensor {
	if c != nil && c.Alloc != nil {
		return c.Alloc.NewTensorUninit(shape...)
	}
	return tensor.New(shape...)
}

// CloneTensor deep-copies t through the context's allocator.
func (c *Context) CloneTensor(t *tensor.Tensor) *tensor.Tensor {
	if c == nil || c.Alloc == nil {
		return t.Clone()
	}
	out := c.Alloc.NewTensorUninit(t.Shape()...)
	copy(out.Data(), t.Data())
	return out
}

// ErrNonFinite is returned by kernels when CheckFinite is set and an output
// tensor contains NaN or Inf.
var ErrNonFinite = errors.New("ops: non-finite value in kernel output")

func (c *Context) blas() blas.Backend {
	if c.BLAS == nil {
		return blas.MustNew(blas.Naive)
	}
	return c.BLAS
}

func (c *Context) convAlgo() ConvAlgo {
	if c.ConvAlgo == 0 {
		return ConvDirect
	}
	return c.ConvAlgo
}

// Kernel executes one operator: given the node (for attributes) and its
// resolved input tensors, it returns the output tensors in node-output order.
type Kernel func(ctx *Context, n *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error)

// Registry maps operator types to kernels. Registries are cheap value maps;
// runtimes copy and override entries to build diversified kernel sets.
type Registry map[string]Kernel

// NewRegistry returns the default kernel registry covering every operator in
// the IR vocabulary.
func NewRegistry() Registry {
	return Registry{
		graph.OpConv:          convKernel,
		graph.OpConvRelu:      convKernel, // resolveConv fuses the relu
		graph.OpConvBNRelu:    convKernel, // BN already folded into weights
		graph.OpDepthwiseConv: convKernel, // group attr drives depthwise path
		graph.OpGemm:          gemmKernel,
		graph.OpMatMul:        matMulKernel,
		graph.OpBatchNorm:     batchNormKernel,
		graph.OpRelu:          unaryKernel(relu),
		graph.OpRelu6:         unaryKernel(relu6),
		graph.OpSigmoid:       unaryKernel(sigmoid),
		graph.OpHardSwish:     unaryKernel(hardSwish),
		graph.OpHardSigmoid:   unaryKernel(hardSigmoid),
		graph.OpMaxPool:       maxPoolKernel,
		graph.OpAvgPool:       avgPoolKernel,
		graph.OpGlobalAvgPool: globalAvgPoolKernel,
		graph.OpAdd:           addKernel,
		graph.OpMul:           mulKernel,
		graph.OpConcat:        concatKernel,
		graph.OpSoftmax:       softmaxKernel,
		graph.OpFlatten:       flattenKernel,
		graph.OpIdentity:      identityKernel,
		graph.OpPad:           padKernel,
		graph.OpLayerNorm:     layerNormKernel,
		graph.OpGelu:          unaryKernel(gelu),
		graph.OpTranspose:     transposeKernel,
		graph.OpReshape:       reshapeKernel,
		graph.OpBatchMatMul:   batchMatMulKernel,
		graph.OpReduceMean:    reduceMeanKernel,
	}
}

// Clone returns a copy of the registry that can be overridden independently.
func (r Registry) Clone() Registry {
	c := make(Registry, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Run executes the kernel for n, applying the CheckFinite policy.
func (r Registry) Run(ctx *Context, n *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	k, ok := r[n.Op]
	if !ok {
		return nil, fmt.Errorf("ops: no kernel for op %q (node %q)", n.Op, n.Name)
	}
	outs, err := k(ctx, n, inputs)
	if err != nil {
		return nil, fmt.Errorf("ops: node %q (%s): %w", n.Name, n.Op, err)
	}
	if ctx != nil && ctx.CheckFinite {
		for _, o := range outs {
			if o.HasNaN() {
				return nil, fmt.Errorf("node %q (%s): %w", n.Name, n.Op, ErrNonFinite)
			}
		}
	}
	return outs, nil
}

// --- elementwise activations -------------------------------------------------

func relu(x float32) float32 {
	if x < 0 {
		return 0
	}
	return x
}

func relu6(x float32) float32 {
	if x < 0 {
		return 0
	}
	if x > 6 {
		return 6
	}
	return x
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

func hardSigmoid(x float32) float32 {
	y := x/6 + 0.5
	if y < 0 {
		return 0
	}
	if y > 1 {
		return 1
	}
	return y
}

func hardSwish(x float32) float32 { return x * hardSigmoid(x) }

func unaryKernel(f func(float32) float32) Kernel {
	return func(ctx *Context, _ *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		if len(inputs) != 1 {
			return nil, fmt.Errorf("unary op wants 1 input, got %d", len(inputs))
		}
		out := ctx.CloneTensor(inputs[0])
		out.Apply(f)
		return []*tensor.Tensor{out}, nil
	}
}

func identityKernel(ctx *Context, _ *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("Identity wants 1 input, got %d", len(inputs))
	}
	return []*tensor.Tensor{ctx.CloneTensor(inputs[0])}, nil
}
