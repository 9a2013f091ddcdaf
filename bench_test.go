package mvtee

// Benchmarks regenerating the paper's evaluation (§6): one sub-benchmark per
// figure and measurer, and one for Table 1. Each benchmark iteration runs a
// reduced experiment (a representative model subset with short batch
// streams) through the same harness the full regeneration tool uses; run
// `go run ./cmd/mvtee-bench -all` for the complete tables recorded in
// EXPERIMENTS.md. Custom metrics report the normalized results: tputx_*
// (throughput vs the figure's reference, higher is better) and latx_*
// (latency vs the reference, lower is better).

import (
	"testing"

	"repro/internal/bench"
)

// benchOpts keeps per-iteration cost modest.
func benchOpts() bench.Options {
	return bench.Options{
		Models:  []string{"mnasnet", "resnet-50"},
		Warmup:  1,
		Batches: 4,
	}
}

// report aggregates rows by config/mode into custom benchmark metrics.
func report(b *testing.B, rows []bench.Row) {
	type agg struct {
		tput, lat float64
		n         int
	}
	sums := map[string]*agg{}
	for _, r := range rows {
		key := r.Config + "_" + r.Mode
		a := sums[key]
		if a == nil {
			a = &agg{}
			sums[key] = a
		}
		a.tput += r.ThroughputX
		a.lat += r.LatencyX
		a.n++
	}
	for key, a := range sums {
		b.ReportMetric(a.tput/float64(a.n), "tputx_"+key)
		b.ReportMetric(a.lat/float64(a.n), "latx_"+key)
	}
}

// BenchmarkFigures regenerates Figures 9–14, one sub-benchmark per figure
// and measurer: Figure 9 (random-balanced partitioning) on the live engine
// and on the calibrated multicore simulator (the paper's 36-core testbed
// shape); Figures 10 (encryption and checkpoint overheads), 11 and 12
// (horizontal and vertical selective-MVX scaling), 13 (async vs sync
// cross-validation) and 14 (real-world diversified deployment) on the
// simulator.
func BenchmarkFigures(b *testing.B) {
	live := bench.Live(benchOpts())
	sim := bench.Sim(bench.SimOptions{Options: benchOpts(), SimBatches: 32})
	for _, c := range []struct {
		name string
		fig  int
		m    bench.Measurer
	}{
		{"fig09-live", 9, live},
		{"fig09-sim", 9, sim},
		{"fig10-sim", 10, sim},
		{"fig11-sim", 11, sim},
		{"fig12-sim", 12, sim},
		{"fig13-sim", 13, sim},
		{"fig14-sim", 14, sim},
	} {
		b.Run(c.name, func(b *testing.B) {
			var rows []bench.Row
			for i := 0; i < b.N; i++ {
				var err error
				if rows, err = bench.RunFigure(c.fig, c.m); err != nil {
					b.Fatal(err)
				}
			}
			report(b, rows)
		})
	}
}

// BenchmarkTable1Security regenerates the Table 1 security analysis: every
// TensorFlow vulnerability class must be detected by the MVX panel. The
// metric detected_frac reports the detected fraction (must be 1.0).
func BenchmarkTable1Security(b *testing.B) {
	var detected, total int
	for i := 0; i < b.N; i++ {
		results, err := bench.Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			total++
			if r.Detected {
				detected++
			}
		}
	}
	if total > 0 {
		b.ReportMetric(float64(detected)/float64(total), "detected_frac")
	}
}
