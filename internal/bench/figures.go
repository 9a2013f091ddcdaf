package bench

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/monitor"
	"repro/internal/tensor"
)

// A figure is one of the paper's Figures 9–14 as a list of points, measured
// for every model by either Measurer.
type figure struct {
	// bundle partitions one model into the sets the points deploy.
	bundle func(model string, o Options) (*core.Bundle, error)
	// baseline builds the unpartitioned model every point is normalized
	// to; nil when reference names one of the points instead.
	baseline func(model string, o Options) (infer.Executor, error)
	// reference is the point the others are normalized to, mode by mode;
	// its own rows read 1.
	reference string
	points    []point
}

// A point is one measured configuration: an MVX deployment of one partition
// set of the figure's bundle.
type point struct {
	label string
	set   int
	mvx   monitor.MVXConfig
	// plain turns checkpoint encryption off (Figure 10's baseline).
	plain bool
}

var (
	// heavyPanel is Figure 13's diversified MVX panel; its TVM-like variant
	// is a deliberate straggler.
	heavyPanel = []string{"ort-cpu", "ort-altep", "tvm-heavy"}
	// realPanel is Figure 14's diversified MVX panel.
	realPanel = []string{"ort-cpu", "ort-altep", "tvm-graph"}
	// realCriteria is the consistency policy of the diversified-variant
	// runs: thresholds wide enough for benign cross-runtime float
	// divergence (§4.3 "adjust thresholds based on variant noise levels").
	realCriteria = []check.Criterion{
		{Metric: check.AllClose, RTol: 5e-2, ATol: 1e-3},
		{Metric: check.Cosine, Threshold: 0.999},
	}
)

// figures is the experiment matrix of §6, one declaration per figure. Every
// point runs with encrypted checkpoint transport unless marked plain.
var figures = map[int]figure{
	// Random-balanced partitioning into 3, 5, 7 and 9 partitions on the
	// full fast path (one replica per partition).
	9: {bundle: replicaBundle(3, 5, 7, 9), baseline: replicaBaseline, points: []point{
		{label: "3p", set: 0, mvx: monitor.MVXConfig{Plans: replicaPlans(3, 1)}},
		{label: "5p", set: 1, mvx: monitor.MVXConfig{Plans: replicaPlans(5, 1)}},
		{label: "7p", set: 2, mvx: monitor.MVXConfig{Plans: replicaPlans(7, 1)}},
		{label: "9p", set: 3, mvx: monitor.MVXConfig{Plans: replicaPlans(9, 1)}},
	}},
	// Encryption and checkpoint overheads over 5 partitions: the encrypted
	// fast path isolates encryption cost, and the encrypted slow path (two
	// replicas per partition, so every checkpoint gathers, checks and
	// votes) adds the checkpointing cost.
	10: {bundle: replicaBundle(5), reference: "plain+fast", points: []point{
		{label: "plain+fast", mvx: monitor.MVXConfig{Plans: replicaPlans(5, 1)}, plain: true},
		{label: "enc+fast", mvx: monitor.MVXConfig{Plans: replicaPlans(5, 1)}},
		{label: "enc+slow", mvx: monitor.MVXConfig{Plans: replicaPlans(5, 2)}},
	}},
	// Horizontal variant scaling: 1, 3 and 5 replicas on the 3rd of 5
	// partitions, under the hybrid slow-fast path.
	11: {bundle: replicaBundle(5), baseline: replicaBaseline, points: []point{
		{label: "1var", mvx: monitor.MVXConfig{Plans: selective("replica", replicas(1), 2)}},
		{label: "3var", mvx: monitor.MVXConfig{Plans: selective("replica", replicas(3), 2)}},
		{label: "5var", mvx: monitor.MVXConfig{Plans: selective("replica", replicas(5), 2)}},
	}},
	// Vertical variant scaling: 3-replica MVX on the 3rd, on the 3rd–5th
	// and on all 5 partitions.
	12: {bundle: replicaBundle(5), baseline: replicaBaseline, points: []point{
		{label: "1-mvx", mvx: monitor.MVXConfig{Plans: selective("replica", replicas(3), 2)}},
		{label: "3-mvx", mvx: monitor.MVXConfig{Plans: selective("replica", replicas(3), 2, 3, 4)}},
		{label: "5-mvx", mvx: monitor.MVXConfig{Plans: selective("replica", replicas(3), 0, 1, 2, 3, 4)}},
	}},
	// Asynchronous cross-validation against sync: diversified MVX with
	// the straggler on the 2nd and 3rd of 5 partitions.
	13: {bundle: realBundle, reference: "sync", points: []point{
		{label: "sync", mvx: monitor.MVXConfig{
			Plans: selective("ort-cpu", heavyPanel, 1, 2), Criteria: realCriteria}},
		{label: "async", mvx: monitor.MVXConfig{
			Plans: selective("ort-cpu", heavyPanel, 1, 2), Async: true, Criteria: realCriteria}},
	}},
	// The real-world setup: asynchronous diversified MVX on the 3rd and on
	// the 3rd–5th of 5 partitions, against the original model on the
	// production runtime.
	14: {bundle: realBundle, baseline: realBaseline, points: []point{
		{label: "1-mvx", mvx: monitor.MVXConfig{
			Plans: selective("ort-cpu", realPanel, 2), Async: true, Criteria: realCriteria}},
		{label: "3-mvx", mvx: monitor.MVXConfig{
			Plans: selective("ort-cpu", realPanel, 2, 3, 4), Async: true, Criteria: realCriteria}},
	}},
}

// RunFigure measures the paper's Figure n (9–14) with m: for every model,
// one row per point and execution mode, seq before pipe, in declaration
// order.
func RunFigure(n int, m Measurer) ([]Row, error) {
	f, ok := figures[n]
	if !ok {
		return nil, fmt.Errorf("bench: no figure %d", n)
	}
	o := m.options()
	in := Input(o.ModelConfig, 1)
	var rows []Row
	for _, model := range o.Models {
		r, err := f.run(model, m, o, in)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func (f figure) run(model string, m Measurer, o Options, in *tensor.Tensor) ([]Row, error) {
	var ref [2]Metrics // seq, pipe
	if f.baseline != nil {
		ex, err := f.baseline(model, o)
		if err != nil {
			return nil, err
		}
		base, err := m.baseline(ex, in)
		if err != nil {
			return nil, fmt.Errorf("bench: %s baseline: %w", model, err)
		}
		ref = [2]Metrics{base, base}
	}
	b, err := f.bundle(model, o)
	if err != nil {
		return nil, err
	}
	got := make([][2]Metrics, len(f.points))
	for i, p := range f.points {
		seq, pipe, err := m.measure(b, p, in)
		if err != nil {
			return nil, fmt.Errorf("bench: %s %s: %w", model, p.label, err)
		}
		got[i] = [2]Metrics{seq, pipe}
		if p.label == f.reference {
			ref = got[i]
		}
	}
	var rows []Row
	for i, p := range f.points {
		for mode, name := range []string{"seq", "pipe"} {
			rows = append(rows, row(model, p.label, name, got[i][mode], ref[mode]))
		}
	}
	return rows, nil
}

// selective is a 5-partition plan running panel on the partitions in mvxOn
// and single alone on every other one (selective MVX).
func selective(single string, panel []string, mvxOn ...int) []monitor.PartitionPlan {
	plans := make([]monitor.PartitionPlan, 5)
	for i := range plans {
		plans[i].Variants = []string{single}
	}
	for _, i := range mvxOn {
		plans[i].Variants = panel
	}
	return plans
}

// replicaBundle partitions a model into the given target counts with the
// identical-replica variant pool (§6.1 "Variants").
func replicaBundle(targets ...int) func(string, Options) (*core.Bundle, error) {
	return func(model string, o Options) (*core.Bundle, error) {
		return core.BuildBundle(core.OfflineConfig{
			ModelName:        model,
			ModelConfig:      o.ModelConfig,
			PartitionTargets: targets,
			PartitionSeed:    o.Seed,
			Specs:            []diversify.Spec{diversify.ReplicaSpec("replica")},
		})
	}
}

// realBundle partitions a model into 5 with the diversified pool of §6.4
// (ORT-like and TVM-like runtimes with multi-level diversification) plus
// the heavy straggler spec.
func realBundle(model string, o Options) (*core.Bundle, error) {
	return core.BuildBundle(core.OfflineConfig{
		ModelName:        model,
		ModelConfig:      o.ModelConfig,
		PartitionTargets: []int{5},
		PartitionSeed:    o.Seed,
		Specs:            append(diversify.RealSetupSpecs(), diversify.HeavyTVMSpec()),
	})
}

// replicaBaseline is the original unpartitioned model, the evaluation
// baseline of §6.2.
func replicaBaseline(model string, o Options) (infer.Executor, error) {
	return core.BaselineExecutor(model, o.ModelConfig, infer.Config{})
}

// realBaseline is the §6.4 "original inference" baseline: the unpartitioned
// model on the production runtime recipe (the ort-cpu spec's graph
// transforms and instance configuration).
func realBaseline(model string, o Options) (infer.Executor, error) {
	spec := diversify.RealSetupSpecs()[0]
	g, err := models.Build(model, o.ModelConfig)
	if err != nil {
		return nil, err
	}
	dg, err := diversify.Apply(spec, g)
	if err != nil {
		return nil, err
	}
	rc, err := spec.RuntimeConfig()
	if err != nil {
		return nil, err
	}
	return infer.New(dg, rc)
}
