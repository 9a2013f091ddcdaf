// Package diversify generates MVTEE's inference variants with multi-level
// diversification (§4.2): model-graph-level transformations (dummy operators,
// operator decomposition/fusion, channel manipulation, selective
// optimization, commutative rewriting), inference-instance-level choices
// (runtime family, BLAS backend, convolution algorithm, scheduling), software
// hardening levels (bounds checks, sanitizer, ASLR, error handling) and
// TEE-level placement (SGX vs TDX). A Spec describes one variant recipe in a
// JSON-serializable form; Apply materializes it against a partition subgraph.
// The offline pipeline (internal/core) applies every recipe to every
// partition to build the encrypted variant pool of Figure 2.
package diversify

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/blas"
	"repro/internal/enclave"
	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/ops"
	"repro/internal/rewrite"
)

// TransformKind enumerates the graph-level transformations.
type TransformKind string

// Graph-level transformation kinds (§4.2 list).
const (
	TFuse           TransformKind = "fuse"            // operator fusion (Conv+BN, Conv+activation)
	TSelectiveOpt   TransformKind = "selective-opt"   // probabilistic fusion subset
	TDummyOps       TransformKind = "dummy-ops"       // insert identity / add-zero operators
	TDecomposeGemm  TransformKind = "decompose-gemm"  // Gemm -> MatMul + Add
	TDecomposeBN    TransformKind = "decompose-bn"    // BatchNorm -> Mul + Add
	TShuffleChannel TransformKind = "shuffle-channel" // permute conv channels + compensate
	TReorderAdd     TransformKind = "reorder-add"     // commutative input reordering
)

// GraphTransform is one parameterized transformation step.
type GraphTransform struct {
	Kind TransformKind `json:"kind"`
	// N parameterizes count-like transforms (dummy ops, shuffles).
	N int `json:"n,omitempty"`
	// P parameterizes probability-like transforms (selective optimization).
	P float64 `json:"p,omitempty"`
}

// Spec is one variant recipe: a named combination of graph-level transforms
// and an inference-instance configuration, plus TEE placement. Specs are the
// JSON "variant configurations" consumed by the offline MVX tool (§5.1).
type Spec struct {
	Name string `json:"name"`
	// Graph-level.
	Transforms []GraphTransform `json:"transforms,omitempty"`
	// Instance-level.
	Runtime     string `json:"runtime"`     // "interp" (ORT-like) | "planned" (TVM-like)
	BLAS        string `json:"blas"`        // "naive" | "blocked" | "packed"
	ConvAlgo    string `json:"conv_algo"`   // "direct" | "im2col"
	Parallelism int    `json:"parallelism"` // intra-op threads
	OptLevel    int    `json:"opt_level"`   // planned-runtime optimization level
	// Software hardening level.
	CheckFinite  bool `json:"check_finite,omitempty"`
	BoundsCheck  bool `json:"bounds_check,omitempty"`
	Sanitizer    bool `json:"sanitizer,omitempty"`
	ASLR         bool `json:"aslr,omitempty"`
	StackProtect bool `json:"stack_protect,omitempty"`
	// TEE level.
	TEE string `json:"tee,omitempty"` // "sgx1" | "sgx2" | "tdx"
	// Seed drives the randomized transforms (deterministic per spec).
	Seed uint64 `json:"seed,omitempty"`
}

// RuntimeConfig resolves the instance-level portion of the spec into an
// executor configuration.
func (s Spec) RuntimeConfig() (infer.Config, error) {
	cfg := infer.Config{
		Parallelism:  s.Parallelism,
		OptLevel:     s.OptLevel,
		CheckFinite:  s.CheckFinite,
		BoundsCheck:  s.BoundsCheck,
		Sanitizer:    s.Sanitizer,
		ASLR:         s.ASLR,
		StackProtect: s.StackProtect,
	}
	switch s.Runtime {
	case "", "interp":
		cfg.Runtime = infer.Interp
	case "planned":
		cfg.Runtime = infer.Planned
	default:
		return cfg, fmt.Errorf("diversify: unknown runtime %q", s.Runtime)
	}
	switch s.BLAS {
	case "", "naive":
		cfg.BLAS = blas.Naive
	case "blocked":
		cfg.BLAS = blas.Blocked
	case "packed":
		cfg.BLAS = blas.Packed
	default:
		return cfg, fmt.Errorf("diversify: unknown blas %q", s.BLAS)
	}
	switch s.ConvAlgo {
	case "", "direct":
		cfg.ConvAlgo = ops.ConvDirect
	case "im2col":
		cfg.ConvAlgo = ops.ConvIm2Col
	case "winograd":
		cfg.ConvAlgo = ops.ConvWinograd
	default:
		return cfg, fmt.Errorf("diversify: unknown conv algo %q", s.ConvAlgo)
	}
	return cfg, nil
}

// TEEType resolves the TEE placement (default SGX2).
func (s Spec) TEEType() (enclave.TEEType, error) {
	switch s.TEE {
	case "", "sgx2":
		return enclave.SGX2, nil
	case "sgx1":
		return enclave.SGX1, nil
	case "tdx":
		return enclave.TDX, nil
	default:
		return 0, fmt.Errorf("diversify: unknown TEE %q", s.TEE)
	}
}

// Marshal renders the spec as its JSON configuration document.
func (s Spec) Marshal() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// ParseSpec parses a JSON variant configuration.
func ParseSpec(b []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return Spec{}, fmt.Errorf("diversify: parse spec: %w", err)
	}
	if _, err := s.RuntimeConfig(); err != nil {
		return Spec{}, err
	}
	if _, err := s.TEEType(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Apply materializes the spec's graph-level transforms against a clone of g,
// returning the diversified graph. The result is validated; transforms that
// find no applicable site are no-ops.
func Apply(s Spec, g *graph.Graph) (*graph.Graph, error) {
	out := g.Clone()
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewPCG(seed, 0xd1ce))
	for _, tr := range s.Transforms {
		var t rewrite.Transform
		switch tr.Kind {
		case TFuse:
			t = rewrite.Fuse()
		case TSelectiveOpt:
			p := tr.P
			if p == 0 {
				p = 0.5
			}
			t = rewrite.SelectiveOptimize(p)
		case TDummyOps:
			n := tr.N
			if n == 0 {
				n = 3
			}
			t = rewrite.InsertDummyOps(n)
		case TDecomposeGemm:
			t = rewrite.DecomposeGemm()
		case TDecomposeBN:
			t = rewrite.DecomposeBatchNorm()
		case TShuffleChannel:
			n := tr.N
			if n == 0 {
				n = 2
			}
			t = rewrite.ShuffleChannels(n)
		case TReorderAdd:
			t = rewrite.ReorderCommutative()
		default:
			return nil, fmt.Errorf("diversify: unknown transform %q", tr.Kind)
		}
		if err := t(out, rng); err != nil {
			return nil, fmt.Errorf("diversify: transform %q: %w", tr.Kind, err)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("diversify: %q produced invalid graph: %w", s.Name, err)
	}
	return out, nil
}

// --- preset recipe sets --------------------------------------------------------

// ReplicaSpec is the identical-variant recipe used by the fundamental
// performance evaluations (§6.1: "identical/replicated variants running on
// ONNX runtime to minimize execution time variations").
func ReplicaSpec(name string) Spec {
	return Spec{Name: name, Runtime: "interp", BLAS: "naive", ConvAlgo: "direct"}
}

// RealSetupSpecs is the diversified recipe set of the real-setup evaluations
// (§6.4): ORT-like and TVM-like runtimes over distinct BLAS backends and
// kernel algorithms, with graph-level transforms on top.
func RealSetupSpecs() []Spec {
	return []Spec{
		{
			Name: "ort-cpu", Runtime: "interp", BLAS: "blocked", ConvAlgo: "im2col",
			Transforms: []GraphTransform{{Kind: TFuse}},
			Seed:       101,
		},
		{
			Name: "ort-altep", Runtime: "interp", BLAS: "naive", ConvAlgo: "im2col",
			Transforms:  []GraphTransform{{Kind: TReorderAdd}, {Kind: TSelectiveOpt, P: 0.7}},
			CheckFinite: true,
			Seed:        202,
		},
		{
			Name: "tvm-graph", Runtime: "planned", BLAS: "packed", ConvAlgo: "im2col", OptLevel: 1,
			Transforms: []GraphTransform{{Kind: TDummyOps, N: 2}},
			ASLR:       true,
			Seed:       303,
		},
	}
}

// HeavyTVMSpec is the deliberately expensive, heavily diversified TVM-like
// recipe that lags the others — the straggler of the asynchronous
// cross-validation evaluation (§6.4, Figure 13).
func HeavyTVMSpec() Spec {
	return Spec{
		Name: "tvm-heavy", Runtime: "planned", BLAS: "packed", ConvAlgo: "direct", OptLevel: 0,
		Transforms: []GraphTransform{
			{Kind: TDecomposeBN},
			{Kind: TDecomposeGemm},
			{Kind: TDummyOps, N: 8},
			{Kind: TShuffleChannel, N: 3},
			{Kind: TReorderAdd},
		},
		Sanitizer:   true,
		CheckFinite: true,
		Seed:        404,
	}
}

// HardenedSpecs enumerates the software-hardening variant family of the
// security analysis (Table 1): different runtime, bounds checking, sanitizer,
// ASLR, error handling, and a compiler-diversity stand-in.
func HardenedSpecs() []Spec {
	return []Spec{
		{Name: "different-rt", Runtime: "planned", BLAS: "blocked", ConvAlgo: "im2col", OptLevel: 1, Seed: 11},
		{Name: "bounds-check", Runtime: "interp", BLAS: "naive", ConvAlgo: "direct", BoundsCheck: true, Seed: 12},
		{Name: "sanitizer", Runtime: "interp", BLAS: "naive", ConvAlgo: "direct", Sanitizer: true, Seed: 13},
		{Name: "aslr", Runtime: "interp", BLAS: "naive", ConvAlgo: "direct", ASLR: true, Seed: 14},
		{Name: "error-handling", Runtime: "interp", BLAS: "naive", ConvAlgo: "direct", CheckFinite: true, Seed: 15},
		{Name: "compiler", Runtime: "planned", BLAS: "packed", ConvAlgo: "winograd", StackProtect: true, OptLevel: 1, Seed: 16},
	}
}
