package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/pipesim"
	"repro/internal/tensor"
)

// A Measurer measures a figure's points and baselines: Live on the real
// engine on this host, Sim on the calibrated multicore simulator.
type Measurer interface {
	options() Options
	// baseline measures the unpartitioned model ex; one measurement serves
	// both execution modes.
	baseline(ex infer.Executor, in *tensor.Tensor) (Metrics, error)
	// measure runs point p on partition set p.set of b, sequentially and
	// pipelined.
	measure(b *core.Bundle, p point, in *tensor.Tensor) (seq, pipe Metrics, err error)
}

// Live measures wall-clock behaviour of the real engine on this host. Each
// execution mode gets a fresh deployment, so pipelined state never warms a
// sequential run.
func Live(o Options) Measurer { return live{o.withDefaults()} }

type live struct{ o Options }

func (l live) options() Options { return l.o }

func (l live) baseline(ex infer.Executor, in *tensor.Tensor) (Metrics, error) {
	return MeasureBaseline(ex, in, l.o.Warmup, l.o.Batches)
}

func (l live) measure(b *core.Bundle, p point, in *tensor.Tensor) (seq, pipe Metrics, err error) {
	if seq, err = l.deployed(b, p, in, MeasureSequential); err != nil {
		return seq, pipe, fmt.Errorf("seq: %w", err)
	}
	if pipe, err = l.deployed(b, p, in, MeasurePipelined); err != nil {
		return seq, pipe, fmt.Errorf("pipe: %w", err)
	}
	return seq, pipe, nil
}

func (l live) deployed(b *core.Bundle, p point, in *tensor.Tensor,
	run func(*core.Deployment, *tensor.Tensor, int, int) (Metrics, error)) (Metrics, error) {
	mvx := p.mvx
	d, err := core.Deploy(b, p.set, core.DeployConfig{MVX: &mvx, Encrypt: !p.plain})
	if err != nil {
		return Metrics{}, err
	}
	defer d.Close()
	return run(d, in, l.o.Warmup, l.o.Batches)
}

// teeFactor scales calibrated communication and check costs to SGX-class
// enclave-transition and crypto overheads; 24 lands Figure 10's overhead
// band.
const teeFactor = 24

// SimOptions extends Options for the calibrated multicore simulation mode.
// The live engine measures wall-clock behaviour on this host; the simulation
// replays the monitor's scheduling semantics on a modeled many-core TEE
// testbed (the paper's dual 36-core Xeons), with per-variant service times
// and checkpoint costs calibrated from real executions.
type SimOptions struct {
	Options
	// SimBatches is the simulated stream length; 0 means 64.
	SimBatches int
	// Reps is the calibration repetition count (min taken); 0 means 5.
	Reps int
}

func (o SimOptions) withDefaults() SimOptions {
	o.Options = o.Options.withDefaults()
	if o.SimBatches == 0 {
		o.SimBatches = 64
	}
	if o.Reps == 0 {
		o.Reps = 5
	}
	return o
}

// Sim measures on the calibrated multicore simulator: it times every
// (partition, variant) pair of a point on this host and replays the
// monitor's scheduling over those costs (internal/pipesim).
func Sim(o SimOptions) Measurer { return sim{o.withDefaults()} }

type sim struct{ o SimOptions }

func (s sim) options() Options { return s.o.Options }

func (s sim) baseline(ex infer.Executor, in *tensor.Tensor) (Metrics, error) {
	svc, err := pipesim.CalibrateBaseline(ex, in, s.o.Reps)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics(pipesim.SimulateBaseline(svc, s.o.SimBatches)), nil
}

func (s sim) measure(b *core.Bundle, p point, in *tensor.Tensor) (seq, pipe Metrics, err error) {
	prof, err := s.calibrate(b, p, in)
	if err != nil {
		return seq, pipe, err
	}
	if seq, err = s.simulate(prof, true); err != nil {
		return seq, pipe, err
	}
	pipe, err = s.simulate(prof, false)
	return seq, pipe, err
}

// calibrate profiles point p, taking its check policy from its MVX
// configuration.
func (s sim) calibrate(b *core.Bundle, p point, in *tensor.Tensor) (*pipesim.Profile, error) {
	return pipesim.Calibrate(b, p.set, in, pipesim.CalibrationConfig{
		Plans:     p.mvx.Plans,
		Async:     p.mvx.Async,
		Policy:    p.mvx.Policy(),
		TEEFactor: teeFactor,
		Plain:     p.plain,
		Reps:      s.o.Reps,
	})
}

func (s sim) simulate(prof *pipesim.Profile, sequential bool) (Metrics, error) {
	m, err := pipesim.Simulate(prof, s.o.SimBatches, sequential, 0)
	return Metrics(m), err
}
