package bench

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestTable1Quick(t *testing.T) {
	results, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	WriteSecurityTable(os.Stderr, "Table 1 quick", results)
	for _, r := range results {
		if !r.Detected {
			t.Errorf("class %s not detected", r.Case.Class)
		}
	}
}

func TestFaultCasesQuick(t *testing.T) {
	results, err := FaultCases(Options{})
	if err != nil {
		t.Fatal(err)
	}
	WriteSecurityTable(os.Stderr, "Fault cases quick", results)
	for _, r := range results {
		if !r.Detected || !r.Recovered {
			t.Errorf("class %s detected=%v recovered=%v", r.Case.Class, r.Detected, r.Recovered)
		}
	}
}

// quick keeps per-test harness coverage fast: one small model, short live
// and simulated runs.
var quick = Options{Models: []string{"mnasnet"}, Warmup: 1, Batches: 2}

// figRows is the row count each figure yields for one model, and refs the
// point whose rows read exactly 1, where a figure normalizes to one.
var (
	figRows = map[int]int{9: 8, 10: 6, 11: 6, 12: 6, 13: 4, 14: 4}
	refs    = map[int]string{10: "plain+fast", 13: "sync"}
)

// checkFigure runs figure n under m and holds its rows to the expected
// count, to positive measurements, to a reference row normalized to
// itself, and to the (model, config, mode) keys of the committed sweep
// archive, which both modes must share.
func checkFigure(t *testing.T, n int, m Measurer) {
	t.Helper()
	rows, err := RunFigure(n, m)
	if err != nil {
		t.Fatalf("fig%d: %v", n, err)
	}
	if len(rows) != figRows[n] {
		t.Errorf("fig%d: %d rows, want %d", n, len(rows), figRows[n])
	}
	var keys []string
	for _, r := range rows {
		if r.Throughput <= 0 || r.LatencyMS <= 0 || r.ThroughputX <= 0 || r.LatencyX <= 0 {
			t.Errorf("fig%d: non-positive measurement in %+v", n, r)
		}
		if ref, ok := refs[n]; ok && r.Config == ref && (r.ThroughputX != 1 || r.LatencyX != 1) {
			t.Errorf("fig%d: reference row not normalized to itself: %+v", n, r)
		}
		keys = append(keys, r.Model+" "+r.Config+" "+r.Mode)
	}
	if want := archiveRows(t, "../../bench_all_sim.txt", "mnasnet")[n]; !slices.Equal(keys, want) {
		t.Errorf("fig%d: rows %q, archive rows %q", n, keys, want)
	}
}

func TestSimHarnessAllFigures(t *testing.T) {
	m := Sim(SimOptions{Options: quick, SimBatches: 16, Reps: 2})
	for n := 9; n <= 14; n++ {
		t.Run(fmt.Sprintf("fig%d", n), func(t *testing.T) { checkFigure(t, n, m) })
	}
}

func TestLiveHarnessFig9And10(t *testing.T) {
	checkFigure(t, 9, Live(quick))
	checkFigure(t, 10, Live(quick))
}

func TestLiveHarnessFig11(t *testing.T) {
	checkFigure(t, 11, Live(quick))
}

func TestLiveHarnessFig13(t *testing.T) {
	checkFigure(t, 13, Live(quick))
}

func TestLiveHarnessFig12And14(t *testing.T) {
	checkFigure(t, 12, Live(quick))
	checkFigure(t, 14, Live(quick))
}

// archiveRows reads the (model, config, mode) keys of one model's rows in
// each figure section of a sweep archive written by mvtee-bench -all.
func archiveRows(t *testing.T, path, model string) map[int][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int][]string{}
	fig := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "== ") {
			fig = 0
			fmt.Sscanf(line, "== Figure %d:", &fig)
			continue
		}
		if f := strings.Fields(line); fig != 0 && len(f) >= 3 && f[0] == model {
			rows[fig] = append(rows[fig], strings.Join(f[:3], " "))
		}
	}
	if len(rows) != 6 {
		t.Fatalf("%s: %d figure sections hold %s rows, want 6", path, len(rows), model)
	}
	return rows
}
