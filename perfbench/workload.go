package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	mvtee "repro"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/tensor"
)

// workload is one traffic mix over one stack shape. Every field is fixed
// here, so a workload name fully determines what runs; the seed only draws
// the input tensors and the arrival times.
type workload struct {
	name      string
	model     string
	scale     float64
	inputSize int
	// cluster fronts two Deploy'ed replicas with a cluster.Router instead of
	// serving one in-process engine.
	cluster bool
	// rate > 0 is an open loop with Poisson arrivals at that many requests
	// per second; rate == 0 is a closed loop, one request in flight per
	// connection.
	rate float64
	// slo is the workload's latency limit for slo_ok_share, set far above
	// p90 so that only stalls and failures cross it (BENCHMARK.json states
	// the same limits in each workload's description).
	slo time.Duration
}

// deadline bounds every request at twice the latency limit; an expiry is a
// lost request, never retried. It is short so that a lost request costs a
// closed-loop connection little of the window.
func (w workload) deadline() time.Duration { return 2 * w.slo }

// Stack shape shared by every workload: the serving daemon's default flags.
const (
	stages   = 5
	mvxStage = 2
	// poolSize distinct inputs per run, so batches mix inputs and a row
	// delivered to the wrong request fails the output check.
	poolSize = 32
	// The warm-up runs the workload before the window so lazy set-up, codec
	// pools and the control plane's first epochs are not measured. It sends a
	// fixed number of requests, so the memory the stack has grown by the
	// window's start (peak_rss_mb) does not depend on the host's speed: an
	// open loop for openWarmup (rate × openWarmup arrivals), a closed loop
	// closedWarmup requests.
	openWarmup   = 2 * time.Second
	closedWarmup = 3000
)

var workloads = []workload{
	{
		// Compute-bound: the daemon's default model; requests arrive alone,
		// so the engine walk and the MVX stage dominate latency.
		name: "resnet-open", model: "resnet-50",
		rate: 50, slo: 60 * time.Millisecond,
	},
	{
		// Hand-off- and cluster-bound: the smallest zoo config that still
		// partitions into five stages, behind a two-replica router. Hops,
		// seal/open, gather, vote, the batcher's coalescing and the cluster
		// tier dominate. The same model served in process with no router
		// was dropped: with one engine it leaves the CPUs idle between
		// hand-offs, and its figures followed the host's wake-up latency
		// beyond the bounds (see README.md).
		name: "cluster-closed", model: "mobilenetv3", scale: 0.05, inputSize: 8,
		cluster: true, slo: 25 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) modelConfig() mvtee.ModelConfig {
	return mvtee.ModelConfig{Scale: w.scale, InputSize: w.inputSize}
}

// criterion is the deployment's own consistency criterion, reused for the
// output check.
var criterion = mvtee.Criterion{Metric: mvtee.AllClose, RTol: 5e-2, ATol: 1e-3}

// inputPool holds the run's distinct inputs. The load generator also holds
// the output each must produce (expect); the serving process does not, so
// its memory is the stack's alone.
type inputPool struct {
	inputName string
	outputs   []string // the graph's output names
	inputs    []map[string]*tensor.Tensor
	// expected[i] is input i's output from the unprotected baseline model.
	expected []map[string]*tensor.Tensor
}

// swapTolerance is the L∞ distance within which an answer is taken to be a
// given pool entry's output. The deployment's answers differ from the
// baseline's by float32 rounding (at most about 3e-8 on these models), far
// below it; two entries whose expected outputs lie more than twice as far
// apart can be told apart by the swap check.
const swapTolerance = 1e-6

// newInputPool draws n inputs from seed, shaped as the model's one graph
// input.
func newInputPool(w workload, seed int64, n int) (*inputPool, error) {
	g, err := mvtee.BuildModel(w.model, w.modelConfig())
	if err != nil {
		return nil, err
	}
	if len(g.Inputs) != 1 {
		return nil, fmt.Errorf("model %s has %d inputs, want 1", w.model, len(g.Inputs))
	}
	p := &inputPool{inputName: g.Inputs[0].Name, outputs: g.Outputs}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := tensor.New(g.Inputs[0].Shape...)
		for j := range x.Data() {
			x.Data()[j] = float32(rng.NormFloat64())
		}
		p.inputs = append(p.inputs, map[string]*tensor.Tensor{p.inputName: x})
	}
	return p, nil
}

// baselineExecutor is core.BaselineExecutor on the production runtime recipe
// (the ort-cpu variant's kernels, without its graph transforms).
func baselineExecutor(w workload) (infer.Executor, error) {
	rc, err := mvtee.RealSetupSpecs()[0].RuntimeConfig()
	if err != nil {
		return nil, err
	}
	base, err := core.BaselineExecutor(w.model, w.modelConfig(), rc)
	if err != nil {
		return nil, fmt.Errorf("baseline executor: %w", err)
	}
	return base, nil
}

// expect runs every input through the baseline executor once.
func (p *inputPool) expect(w workload) error {
	base, err := baselineExecutor(w)
	if err != nil {
		return err
	}
	for _, in := range p.inputs {
		out, err := base.Run(in)
		if err != nil {
			return fmt.Errorf("baseline run: %w", err)
		}
		p.expected = append(p.expected, out)
	}
	return nil
}

// distance is the largest absolute element difference over the outputs of
// a (L∞), or +Inf when b lacks an output of a or shapes differ.
func distance(a, b map[string]*tensor.Tensor) float64 {
	d := 0.0
	for name, at := range a {
		bt, ok := b[name]
		if !ok || at.Size() != bt.Size() {
			return math.Inf(1)
		}
		bd := bt.Data()
		for k, v := range at.Data() {
			d = math.Max(d, math.Abs(float64(v)-float64(bd[k])))
		}
	}
	return d
}

// errSwapped marks a response that is another pool entry's output and not
// its own: a row delivered to the wrong request.
var errSwapped = errors.New("output is another input's expected output")

// check compares a response's outputs with pool entry i's expected outputs
// under the deployment's criterion, then, when the answer lies beyond
// swapTolerance of its own entry, checks that it is not another entry's
// output. It returns the response's L∞ error.
func (p *inputPool) check(i int, got map[string]*tensor.Tensor) (float64, error) {
	want := p.expected[i]
	if len(got) != len(want) {
		return 0, fmt.Errorf("got %d outputs, want %d", len(got), len(want))
	}
	for name, wt := range want {
		gt, ok := got[name]
		if !ok {
			return 0, fmt.Errorf("missing output %q", name)
		}
		_, pass, err := check.Compare(gt, wt, criterion)
		if err != nil {
			return 0, fmt.Errorf("output %q: %w", name, err)
		}
		if !pass {
			return 0, fmt.Errorf("output %q differs from the baseline", name)
		}
	}
	e := distance(want, got)
	if e > swapTolerance {
		for j := range p.expected {
			if j != i && distance(p.expected[j], got) <= swapTolerance {
				return e, fmt.Errorf("%w (sent input %d, got input %d's)", errSwapped, i, j)
			}
		}
	}
	return e, nil
}

// checkOutputs is the serving process's check of its set-up's first answer:
// every graph output present and non-empty. The load generator checks every
// value.
func (p *inputPool) checkOutputs(got map[string]*tensor.Tensor) error {
	for _, name := range p.outputs {
		if t, ok := got[name]; !ok || t.Size() == 0 {
			return fmt.Errorf("output %q missing or empty", name)
		}
	}
	return nil
}

// distinctShare is the share of ordered pool pairs (i, j) whose expected
// outputs lie more than 2 × swapTolerance apart: the pairs the swap check
// can tell apart.
func (p *inputPool) distinctShare() float64 {
	pairs, distinct := 0, 0
	for i := range p.expected {
		for j := range p.expected {
			if i != j {
				pairs++
				if distance(p.expected[i], p.expected[j]) > 2*swapTolerance {
					distinct++
				}
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(distinct) / float64(pairs)
}

// warmupSchedule draws the warm-up's requests; warmupDuration is the d
// that drive runs them for (0: every request once).
func (w workload) warmupSchedule(rng *rand.Rand) []request {
	if w.rate > 0 {
		return w.schedule(rng, openWarmup)
	}
	return w.schedule(rng, 0)[:closedWarmup]
}

func (w workload) warmupDuration() time.Duration {
	if w.rate > 0 {
		return openWarmup
	}
	return 0
}

// request is one scheduled call: which pool input it sends and, in an open
// loop, its offset from the start of its phase.
type request struct {
	input int
	at    time.Duration
}

// schedule draws a phase's requests from rng. An open loop gets
// round(rate*d) arrivals placed as sorted uniform points over d — a Poisson
// process conditioned on its count, so the offered load is the same for
// every seed. A closed loop gets an input sequence long enough for any
// achievable rate; its at fields are unused.
func (w workload) schedule(rng *rand.Rand, d time.Duration) []request {
	if w.rate > 0 {
		n := int(w.rate*d.Seconds() + 0.5)
		reqs := make([]request, n)
		for i := range reqs {
			reqs[i] = request{input: rng.Intn(poolSize), at: time.Duration(rng.Int63n(int64(d)))}
		}
		sort.Slice(reqs, func(a, b int) bool { return reqs[a].at < reqs[b].at })
		return reqs
	}
	reqs := make([]request, 1<<16)
	for i := range reqs {
		reqs[i].input = rng.Intn(poolSize)
	}
	return reqs
}
