// Command mvtee-bench regenerates the paper's evaluation (§6): one table per
// figure plus the Table 1 security analysis.
//
//	mvtee-bench -all                   # everything, simulated-testbed mode
//	mvtee-bench -fig 9 -mode live      # one figure on the live engine
//	mvtee-bench -table 1               # the security analysis
//
// Modes:
//   - sim (default): the monitor's scheduling is replayed on a calibrated
//     multicore discrete-event model of the paper's 36-core SGX testbed
//     (service/transfer/check costs measured from real executions on this
//     host; see internal/pipesim);
//   - live: wall-clock measurement of the real engine on this host. On a
//     single-core host, pipelined ≈ sequential by physics.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/models"
	"repro/internal/telemetry"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (9-14)")
	table := flag.Int("table", 0, "table to regenerate (1)")
	all := flag.Bool("all", false, "regenerate every figure and table")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations")
	mode := flag.String("mode", "sim", "measurement mode: sim or live")
	modelList := flag.String("models", "", "comma-separated model subset (default all seven)")
	batches := flag.Int("batches", 0, "live batches per measurement (default 10)")
	simBatches := flag.Int("sim-batches", 0, "simulated stream length (default 64)")
	teeFactor := flag.Float64("teefactor", 0, "SGX-cost multiplier for sim mode (default 24)")
	inflightWindow := flag.Int("inflight-window", 0, "per-stage credit budget for the simulated pipelined engine (default 0 = disabled)")
	scale := flag.Float64("scale", 0, "model channel scale (default 0.25)")
	inputSize := flag.Int("input-size", 0, "model input resolution (default 32)")
	telemetryAddr := flag.String("telemetry-addr", "",
		"telemetry HTTP listen address serving /metrics, /trace and /debug/pprof/ during the run; empty disables")
	flag.Parse()

	if *telemetryAddr != "" {
		mux := telemetry.NewMux(telemetry.Default, telemetry.DefaultTracer)
		go func() {
			if err := http.ListenAndServe(*telemetryAddr, mux); err != nil {
				log.Printf("mvtee-bench: telemetry server: %v", err)
			}
		}()
	}

	o := bench.Options{
		Batches:     *batches,
		ModelConfig: models.Config{Scale: *scale, InputSize: *inputSize},
	}
	if *modelList != "" {
		o.Models = strings.Split(*modelList, ",")
	}
	so := bench.SimOptions{Options: o, TEEFactor: *teeFactor, SimBatches: *simBatches, InflightWindow: *inflightWindow}

	figs := map[int]struct {
		title string
		live  func(bench.Options) ([]bench.Row, error)
		sim   func(bench.SimOptions) ([]bench.Row, error)
	}{
		9:  {"Figure 9: Performance Impact of Random-Balanced Partitioning", bench.Fig9, bench.SimFig9},
		10: {"Figure 10: Encryption and Checkpoint Overheads", bench.Fig10, bench.SimFig10},
		11: {"Figure 11: Horizontal Variant Scaling (Selective MVX)", bench.Fig11, bench.SimFig11},
		12: {"Figure 12: Vertical Variant Scaling (Selective MVX)", bench.Fig12, bench.SimFig12},
		13: {"Figure 13: Asynchronous Cross-validation vs Sync", bench.Fig13, bench.SimFig13},
		14: {"Figure 14: MVTEE Performance in Real-World Setup", bench.Fig14, bench.SimFig14},
	}

	run := func(n int) {
		f, ok := figs[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "mvtee-bench: unknown figure %d\n", n)
			os.Exit(2)
		}
		var rows []bench.Row
		var err error
		title := f.title
		switch *mode {
		case "live":
			title += " [live engine]"
			rows, err = f.live(o)
		case "sim":
			title += " [simulated multicore testbed]"
			rows, err = f.sim(so)
		default:
			fmt.Fprintf(os.Stderr, "mvtee-bench: unknown mode %q\n", *mode)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvtee-bench: figure %d: %v\n", n, err)
			os.Exit(1)
		}
		bench.WriteTable(os.Stdout, title, rows)
	}
	runTable1 := func() {
		results, err := bench.Table1(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvtee-bench: table 1: %v\n", err)
			os.Exit(1)
		}
		bench.WriteSecurityTable(os.Stdout, "Table 1: TensorFlow Vulnerabilities and Defending Variants", results)
		fc, err := bench.FaultCases(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvtee-bench: fault cases: %v\n", err)
			os.Exit(1)
		}
		bench.WriteSecurityTable(os.Stdout, "Runtime Fault Attacks (§6.5)", fc)
	}

	runAblations := func() {
		type abl struct {
			title string
			f     func() ([]bench.AblationRow, error)
		}
		for _, a := range []abl{
			{"Ablation: random-balanced vs chain-split partitioning",
				func() ([]bench.AblationRow, error) { return bench.AblationPartitioning(so) }},
			{"Ablation: voting strategy cost",
				func() ([]bench.AblationRow, error) { return bench.AblationVoting(o) }},
			{"Ablation: MVX scale vs core demand",
				func() ([]bench.AblationRow, error) { return bench.AblationCores(so) }},
			{"Ablation: attested bootstrap latency (Figure 6 path)",
				func() ([]bench.AblationRow, error) { return bench.AblationBootstrap(o) }},
		} {
			rows, err := a.f()
			if err != nil {
				fmt.Fprintf(os.Stderr, "mvtee-bench: %s: %v\n", a.title, err)
				os.Exit(1)
			}
			bench.WriteAblationTable(os.Stdout, a.title, rows)
		}
	}

	switch {
	case *all:
		for _, n := range []int{9, 10, 11, 12, 13, 14} {
			run(n)
		}
		runTable1()
		runAblations()
	case *ablations:
		runAblations()
	case *fig != 0:
		run(*fig)
	case *table == 1:
		runTable1()
	default:
		flag.Usage()
		os.Exit(2)
	}
}
