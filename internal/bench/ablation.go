package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/monitor"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// AblationRow is one row of a design-choice ablation table.
type AblationRow struct {
	Name   string
	Config string
	Value  float64
	Unit   string
}

// WriteAblationTable renders ablation rows.
func WriteAblationTable(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-34s %-22s %12s %s\n", "ablation", "config", "value", "unit")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %-22s %12.3f %s\n", r.Name, r.Config, r.Value, r.Unit)
	}
}

// AblationPartitioning compares the paper's random-balanced contraction
// against the naive chain-split baseline (contiguous topological slices):
// balance quality and simulated pipelined throughput.
func AblationPartitioning(o SimOptions) ([]AblationRow, error) {
	s := sim{o.withDefaults()}
	in := Input(s.o.ModelConfig, 1)
	p := point{mvx: monitor.MVXConfig{Plans: replicaPlans(5, 1)}}
	var rows []AblationRow
	for _, model := range s.o.Models {
		b, err := replicaBundle(5)(model, s.o.Options)
		if err != nil {
			return nil, err
		}
		// Random-balanced set is b.Sets[0]; build the chain-split set too.
		chain, err := b.Partitioner.SliceEven(5)
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			AblationRow{Name: "partition-balance", Config: model + "/random", Value: partition.Balance(b.Sets[0]), Unit: "max/mean cost"},
			AblationRow{Name: "partition-balance", Config: model + "/chain", Value: partition.Balance(chain), Unit: "max/mean cost"},
		)
		// Simulated pipelined throughput under both partitionings.
		for _, cs := range []struct {
			label string
			set   *partition.Set
		}{{"random", b.Sets[0]}, {"chain", chain}} {
			bb := b
			if cs.label == "chain" {
				bb, err = core.BuildBundle(core.OfflineConfig{
					Graph: b.Model,
					Sets:  []*partition.Set{chain},
					Specs: []diversify.Spec{diversify.ReplicaSpec("replica")},
				})
				if err != nil {
					return nil, err
				}
			}
			prof, err := s.calibrate(bb, p, in)
			if err != nil {
				return nil, err
			}
			m, err := s.simulate(prof, false)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Name: "pipelined-throughput", Config: model + "/" + cs.label,
				Value: m.Throughput, Unit: "batches/s",
			})
		}
	}
	return rows, nil
}

// AblationVoting measures the checkpoint evaluation cost of the two voting
// strategies across panel sizes — the reliability/resource trade-off §4.3
// mentions.
func AblationVoting(o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	out := tensor.New(1, 64, 16, 16)
	for i := range out.Data() {
		out.Data()[i] = float32(i%97) / 97
	}
	res := map[string]*tensor.Tensor{"y": out}
	var rows []AblationRow
	for _, k := range []int{2, 3, 5, 7} {
		results := make([]map[string]*tensor.Tensor, k)
		for i := range results {
			results[i] = res
		}
		for _, s := range []check.Strategy{check.Unanimous, check.Majority} {
			const iters = 50
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := check.Vote(results, check.DefaultPolicy(), s); err != nil {
					return nil, err
				}
			}
			el := time.Since(start) / iters
			rows = append(rows, AblationRow{
				Name: "vote-cost", Config: fmt.Sprintf("%dvar/%s", k, s),
				Value: float64(el.Microseconds()), Unit: "us/checkpoint",
			})
		}
	}
	return rows, nil
}

// AblationCores sweeps the simulated core budget under full 5-partition ×
// 3-variant MVX (demand: 15 busy variants) to locate the knee where
// replication outruns the machine — the resource trade-off of §7.3. Service
// times scale by demand/cores once the budget is exceeded (static
// processor-sharing approximation).
func AblationCores(o SimOptions) ([]AblationRow, error) {
	s := sim{o.withDefaults()}
	model := s.o.Models[0]
	b, err := replicaBundle(5)(model, s.o.Options)
	if err != nil {
		return nil, err
	}
	prof, err := s.calibrate(b, point{mvx: monitor.MVXConfig{Plans: replicaPlans(5, 3)}}, Input(s.o.ModelConfig, 1))
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, cores := range []int{4, 8, 15, 36, 72} {
		prof.Cores = cores
		m, err := s.simulate(prof, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name:   "pipelined-throughput",
			Config: fmt.Sprintf("%s/5p x 3var @ %d cores", model, cores),
			Value:  m.Throughput, Unit: "batches/s",
		})
	}
	return rows, nil
}

// AblationBootstrap measures the Figure 6 bring-up path: per-variant
// attested bootstrap latency (handshake, key distribution, two-stage
// install, exec, binding) and total deployment time, for both transports.
func AblationBootstrap(o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	model := "mnasnet"
	b, err := replicaBundle(5)(model, o)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, tr := range []struct {
		label string
		t     core.Transport
	}{{"inproc", core.InProc}, {"tcp", core.TCPLoopback}} {
		start := time.Now()
		d, err := core.Deploy(b, 0, core.DeployConfig{
			MVX:     &monitor.MVXConfig{Plans: replicaPlans(5, 3)},
			Encrypt: true, Transport: tr.t,
		})
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		n := len(d.Monitor.Bindings())
		d.Close()
		rows = append(rows,
			AblationRow{Name: "bootstrap-total", Config: fmt.Sprintf("%s/15var", tr.label),
				Value: float64(el.Microseconds()) / 1000, Unit: "ms"},
			AblationRow{Name: "bootstrap-per-variant", Config: tr.label,
				Value: float64(el.Microseconds()) / 1000 / float64(n), Unit: "ms/variant"},
		)
	}
	return rows, nil
}
