// Package bench is MVTEE's evaluation harness: it regenerates every figure
// and table of the paper's §6 as text tables, using the same workload
// construction (the seven pre-trained-model replicas, batch size 1, encrypted
// checkpoint transport) and the same experiment matrix. Absolute numbers
// reflect this repository's simulated substrate; the reproduction target is
// the shape — who wins, by what factor, where the crossovers fall (see
// EXPERIMENTS.md).
package bench

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/monitor"
	"repro/internal/tensor"
)

// Metrics summarizes one measured configuration.
type Metrics struct {
	// Throughput is completed batches per second.
	Throughput float64
	// Latency is the per-batch time: for sequential runs the end-to-end
	// batch time; for pipelined runs the steady-state completion interval
	// (total time / batches), the definition under which pipelining
	// improves latency as in Figure 9.
	Latency time.Duration
}

// Input builds the standard evaluation input (the 3×H×W analogue of the
// paper's 3×224×224 images) for a model configuration.
func Input(mc models.Config, seed uint64) *tensor.Tensor {
	size := mc.InputSize
	if size == 0 {
		size = 32
	}
	rng := rand.New(rand.NewPCG(seed, 99))
	in := tensor.New(1, 3, size, size)
	d := in.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return in
}

// MeasureBaseline times the original unpartitioned model (the evaluation
// baseline of §6.2).
func MeasureBaseline(ex infer.Executor, in *tensor.Tensor, warmup, n int) (Metrics, error) {
	return measureSequential(in, warmup, n, func(x map[string]*tensor.Tensor) error {
		_, err := ex.Run(x)
		return err
	})
}

// MeasureSequential times the deployment under sequential execution: each
// batch completes all pipeline stages before the next is submitted.
func MeasureSequential(d *core.Deployment, in *tensor.Tensor, warmup, n int) (Metrics, error) {
	return measureSequential(in, warmup, n, func(x map[string]*tensor.Tensor) error {
		_, err := d.Infer(x)
		return err
	})
}

// measureSequential runs warmup untimed batches, then times n more.
func measureSequential(in *tensor.Tensor, warmup, n int, run func(map[string]*tensor.Tensor) error) (Metrics, error) {
	inputs := map[string]*tensor.Tensor{"image": in}
	var start time.Time
	for i := 0; i < warmup+n; i++ {
		if i == warmup {
			start = time.Now()
		}
		if err := run(inputs); err != nil {
			return Metrics{}, err
		}
	}
	el := time.Since(start)
	return Metrics{Throughput: float64(n) / el.Seconds(), Latency: el / time.Duration(n)}, nil
}

// MeasurePipelined times the deployment under pipelined execution: a stream
// of batches processed simultaneously across stages.
func MeasurePipelined(d *core.Deployment, in *tensor.Tensor, warmup, n int) (Metrics, error) {
	mk := func(k int) []map[string]*tensor.Tensor {
		bs := make([]map[string]*tensor.Tensor, k)
		for i := range bs {
			bs[i] = map[string]*tensor.Tensor{"image": in}
		}
		return bs
	}
	if warmup > 0 {
		if _, err := d.Stream(mk(warmup)); err != nil {
			return Metrics{}, err
		}
	}
	start := time.Now()
	results, err := d.Stream(mk(n))
	if err != nil {
		return Metrics{}, err
	}
	el := time.Since(start)
	for _, r := range results {
		if r.Err != nil {
			return Metrics{}, fmt.Errorf("bench: batch %d failed: %w", r.ID, r.Err)
		}
	}
	return Metrics{Throughput: float64(n) / el.Seconds(), Latency: el / time.Duration(n)}, nil
}

// Row is one measured configuration in one execution mode, normalized
// against its figure's reference.
type Row struct {
	Model  string
	Config string // configuration label (partition count, variant plan, …)
	Mode   string // "seq" or "pipe"
	// Normalized values: >1 throughput is better than the reference, <1
	// latency is better than the reference.
	ThroughputX float64
	LatencyX    float64
	// Raw values.
	Throughput float64
	LatencyMS  float64
}

// Options tunes experiment scale.
type Options struct {
	// Models restricts the workload set; empty means all seven.
	Models []string
	// ModelConfig scales the model replicas.
	ModelConfig models.Config
	// Warmup and Batches control measurement length; zero means 2 / 10.
	Warmup, Batches int
	// Seed drives partitioning.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if len(o.Models) == 0 {
		o.Models = models.PaperNames()
	}
	if o.Warmup == 0 {
		o.Warmup = 2
	}
	if o.Batches == 0 {
		o.Batches = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// replicaPlans builds an n-partition plan with k identical variants each.
func replicaPlans(n, k int) []monitor.PartitionPlan {
	plans := make([]monitor.PartitionPlan, n)
	for i := range plans {
		plans[i].Variants = replicas(k)
	}
	return plans
}

// replicas is a panel of k identical variants (§6.1 "Variants").
func replicas(k int) []string {
	vs := make([]string, k)
	for i := range vs {
		vs[i] = "replica"
	}
	return vs
}

func row(model, config, mode string, m, ref Metrics) Row {
	return Row{
		Model: model, Config: config, Mode: mode,
		ThroughputX: m.Throughput / ref.Throughput,
		LatencyX:    m.Latency.Seconds() / ref.Latency.Seconds(),
		Throughput:  m.Throughput, LatencyMS: float64(m.Latency.Microseconds()) / 1000,
	}
}
