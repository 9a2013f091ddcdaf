package bench

import (
	"fmt"
	"io"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/monitor"
	"repro/internal/rewrite"
	"repro/internal/tensor"
	"repro/internal/variant"
)

// SecurityCase is one row of the Table 1 experiment: a vulnerability class
// injected into the TensorFlow-stand-in variant, defended by the variant
// types the paper's table lists.
type SecurityCase struct {
	Class     faults.Class
	CVE       string
	Impact    string
	Defenders []string // defending variant spec names (from diversify.HardenedSpecs)
}

// SecurityResult reports the MVX outcome for one case.
type SecurityResult struct {
	Case SecurityCase
	// Detected means the monitor observed the attack: a divergence /
	// late-dissent event, a dissenting crash, or a failed vote.
	Detected bool
	// Detail describes what the monitor saw.
	Detail string
	// Recovered means a clean majority output was still delivered.
	Recovered bool
}

// table1Cases mirrors Table 1 of the paper: TensorFlow vulnerability classes
// with example CVEs and the variant types that defend against them.
func table1Cases() []SecurityCase {
	return []SecurityCase{
		{Class: faults.OOB, CVE: "CVE-2021-41226", Impact: "DoS / data corruption / code exec",
			Defenders: []string{"different-rt", "bounds-check", "sanitizer", "aslr"}},
		{Class: faults.UNP, CVE: "CVE-2022-21739", Impact: "DoS / incorrect results",
			Defenders: []string{"different-rt", "sanitizer"}},
		{Class: faults.FPE, CVE: "CVE-2022-21725", Impact: "DoS / incorrect results",
			Defenders: []string{"different-rt", "error-handling", "compiler"}},
		{Class: faults.IntOverflow, CVE: "CVE-2022-21727", Impact: "DoS / data corruption / incorrect results",
			Defenders: []string{"different-rt", "sanitizer", "compiler"}},
		{Class: faults.UAF, CVE: "CVE-2021-37652", Impact: "DoS / data corruption / code exec",
			Defenders: []string{"different-rt", "sanitizer"}},
		{Class: faults.ACF, CVE: "CVE-2022-35935", Impact: "DoS",
			Defenders: []string{"different-rt", "error-handling"}},
	}
}

// vulnerableSpec is the TensorFlow stand-in: the plain interp runtime on the
// naive BLAS with no hardening — the stack the injected CVE lives in.
func vulnerableSpec() diversify.Spec {
	return diversify.Spec{Name: "tf-stack", Runtime: "interp", BLAS: "naive", ConvAlgo: "direct", Seed: 1}
}

// Table1 runs the §6.5 security analysis: for each vulnerability class, a
// 3-partition MVX deployment whose panel holds the vulnerable variant plus
// the class's defending variants, attacked by a crafted input that triggers
// the injected bug. The experiment asserts detection and records whether a
// clean majority recovered the batch.
func Table1(o Options) ([]SecurityResult, error) {
	o = o.withDefaults()
	model := "mnasnet"

	specs := append([]diversify.Spec{vulnerableSpec()}, diversify.HardenedSpecs()...)
	b, err := core.BuildBundle(core.OfflineConfig{
		ModelName:        model,
		ModelConfig:      o.ModelConfig,
		PartitionTargets: []int{3},
		PartitionSeed:    o.Seed,
		Specs:            specs,
	})
	if err != nil {
		return nil, err
	}

	var results []SecurityResult
	for _, sc := range table1Cases() {
		inj := faults.Injection{
			Class:         sc.Class,
			TargetOp:      graph.OpConv,
			TargetRuntime: infer.Interp, // the vulnerable framework build
			Seed:          uint64(len(sc.CVE)),
		}
		// Panel: vulnerable + class defenders, MVX on every partition so the
		// fault is covered wherever it fires.
		panel := append([]string{"tf-stack"}, sc.Defenders...)
		res, err := runSecurityCase(b, panel, inj, nil, o)
		if err != nil {
			return nil, fmt.Errorf("bench: table1 %s: %w", sc.Class, err)
		}
		res.Case = sc
		results = append(results, *res)
	}
	return results, nil
}

// FaultCases runs the §6.5 runtime-fault experiments beyond Table 1: a
// FrameFlip-style code bit flip in one BLAS library and a Rowhammer-style
// weight bit flip, each defeated by implementation- or graph-level
// diversity with full majority recovery.
func FaultCases(o Options) ([]SecurityResult, error) {
	o = o.withDefaults()
	model := "mnasnet"
	specs := []diversify.Spec{
		{Name: "blas-naive", Runtime: "interp", BLAS: "naive", ConvAlgo: "im2col", Seed: 21},
		{Name: "blas-blocked", Runtime: "interp", BLAS: "blocked", ConvAlgo: "im2col", Seed: 22},
		{Name: "blas-packed", Runtime: "interp", BLAS: "packed", ConvAlgo: "im2col", Seed: 23},
		{Name: "plain-graph", Runtime: "interp", BLAS: "naive", ConvAlgo: "direct", Seed: 24},
		{Name: "graph-fuse", Runtime: "interp", BLAS: "naive", ConvAlgo: "direct", Seed: 25,
			Transforms: []diversify.GraphTransform{{Kind: diversify.TFuse}}},
	}
	b, err := core.BuildBundle(core.OfflineConfig{
		ModelName:        model,
		ModelConfig:      o.ModelConfig,
		PartitionTargets: []int{3},
		PartitionSeed:    o.Seed,
		Specs:            specs,
	})
	if err != nil {
		return nil, err
	}

	var results []SecurityResult

	// FrameFlip analogue: single-bit code fault in the naive BLAS backend.
	res, err := runSecurityCase(b,
		[]string{"blas-naive", "blas-blocked", "blas-packed"},
		faults.Injection{Class: faults.CodeBitFlip, TargetBLAS: 1 /* blas.Naive */, Seed: 5},
		nil, o)
	if err != nil {
		return nil, fmt.Errorf("bench: frameflip: %w", err)
	}
	res.Case = SecurityCase{Class: faults.CodeBitFlip, CVE: "FrameFlip (Li et al. '24)",
		Impact: "inference depletion", Defenders: []string{"blas-blocked", "blas-packed"}}
	results = append(results, *res)

	// Rowhammer analogue on model weights: the flip targets a weight tensor
	// of the original layout; graph-level fusion renames/retransforms the
	// weights, so diversified variants miss.
	target, err := foldedWeightTarget(b)
	if err != nil {
		return nil, err
	}
	flip := func(vID string, g *graph.Graph) {
		faults.FlipWeightBit(g, target, 0, 30) // high exponent bit
	}
	res, err = runSecurityCase(b,
		[]string{"plain-graph", "graph-fuse", "graph-fuse"},
		faults.Injection{Class: faults.WeightBitFlip},
		flip, o)
	if err != nil {
		return nil, fmt.Errorf("bench: weight bitflip: %w", err)
	}
	res.Case = SecurityCase{Class: faults.WeightBitFlip, CVE: "Rowhammer / TBD (Hong et al. '19)",
		Impact: "model integrity", Defenders: []string{"graph-fuse"}}
	results = append(results, *res)
	return results, nil
}

// foldedWeightTarget picks an initializer of the original model that the
// fusion transform folds away (so the attack misses fused variants).
func foldedWeightTarget(b *core.Bundle) (string, error) {
	sub, err := b.Partitioner.Extract(b.Sets[0], 0)
	if err != nil {
		return "", err
	}
	fused := sub.Clone()
	rewrite.FuseConvBN(fused)
	for name := range sub.Initializers {
		if _, ok := fused.Initializers[name]; !ok {
			return name, nil
		}
	}
	return "", fmt.Errorf("bench: no foldable weight found")
}

// runSecurityCase deploys the panel on every partition, arms the injection
// in all variants (it only bites implementations matching its target), runs
// one batch against a clean baseline, and classifies the outcome.
func runSecurityCase(b *core.Bundle, panel []string, inj faults.Injection,
	flip func(variantID string, g *graph.Graph), o Options) (*SecurityResult, error) {
	plans := make([]monitor.PartitionPlan, len(b.Sets[0].Partitions))
	for i := range plans {
		plans[i] = monitor.PartitionPlan{Variants: panel}
	}
	d, err := core.Deploy(b, 0, core.DeployConfig{
		MVX: &monitor.MVXConfig{
			Plans:    plans,
			Response: monitor.ReportOnly,
			Criteria: realCriteria,
		},
		Encrypt: true,
		VariantOptions: func(variantID string, e core.Entry) variant.Options {
			opts := variant.Options{
				ConfigureRuntime: func(cfg infer.Config) infer.Config {
					return faults.Arm(cfg, inj)
				},
			}
			if flip != nil {
				opts.TransformGraph = func(g *graph.Graph) { flip(variantID, g) }
			}
			return opts
		},
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()

	in := Input(o.ModelConfig, 3)
	inputs := map[string]*tensor.Tensor{"image": in}
	res, _ := d.Infer(inputs) // failure is classified below, not fatal

	// Clean reference.
	base, err := core.BaselineExecutor(b.Model.Name, o.ModelConfig, infer.Config{})
	if err != nil {
		return nil, err
	}
	want, err := base.Run(inputs)
	if err != nil {
		return nil, err
	}

	out := &SecurityResult{}
	events := d.Engine.Events()
	if len(events) > 0 {
		out.Detected = true
		out.Detail = fmt.Sprintf("%s at stage %d (dissenters %v)", events[0].Kind, events[0].Stage, events[0].Variants)
	}
	if res.Err != nil {
		out.Detected = true
		if out.Detail == "" {
			out.Detail = res.Err.Error()
		}
	}
	if res.Err == nil && res.Tensors != nil {
		ok, err := check.Consistent(res.Tensors, want, check.Policy{Criteria: realCriteria})
		if err == nil && ok {
			out.Recovered = true
		}
	}
	return out, nil
}

// WriteSecurityTable renders security results.
func WriteSecurityTable(w io.Writer, title string, results []SecurityResult) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-16s %-26s %-10s %-10s %s\n", "class", "example", "detected", "recovered", "detail")
	for _, r := range results {
		fmt.Fprintf(w, "%-16s %-26s %-10v %-10v %s\n",
			r.Case.Class, r.Case.CVE, r.Detected, r.Recovered, r.Detail)
	}
}
