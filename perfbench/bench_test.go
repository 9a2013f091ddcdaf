package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestMain lets the test binary serve as the benchmark's own child
// processes (set-up probes, load generator, untraced reference run), which
// it starts with os.Executable and the role environment variable.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode checks that BENCHMARK.json lists exactly the coded
// workloads and states each one's latency limit as the code sets it.
func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(s.Workloads), len(workloads))
	}
	limit := regexp.MustCompile(`limit (\d+) ms`)
	for _, sw := range s.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		m := limit.FindStringSubmatch(sw.Why)
		if m == nil {
			t.Fatalf("%s: why states no latency limit: %q", sw.Name, sw.Why)
		}
		if ms, _ := strconv.Atoi(m[1]); time.Duration(ms)*time.Millisecond != w.slo {
			t.Errorf("%s: BENCHMARK.json limit %s ms, code %v", sw.Name, m[1], w.slo)
		}
	}
}

// TestDaemonDefaults checks that the stack this benchmark brings up still
// uses mvtee-serve's flag defaults: it reads the default of every flag the
// benchmark reproduces from the daemon's flag declarations.
func TestDaemonDefaults(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../cmd/mvtee-serve/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defaults := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || fmt.Sprint(sel.X) != "flag" {
			return true
		}
		name, ok := call.Args[0].(*ast.BasicLit)
		if !ok || name.Kind != token.STRING {
			return true
		}
		var b strings.Builder
		if err := printer.Fprint(&b, fset, call.Args[1]); err != nil {
			t.Fatal(err)
		}
		defaults[strings.Trim(name.Value, `"`)] = b.String()
		return true
	})
	resnet, _ := findWorkload("resnet-open")
	want := map[string]string{
		"model":            strconv.Quote(resnet.model),
		"scale":            fmt.Sprint(resnet.scale),
		"input-size":       fmt.Sprint(resnet.inputSize),
		"stages":           fmt.Sprint(stages),
		"mvx-stage":        fmt.Sprint(mvxStage),
		"max-batch":        fmt.Sprint(serveMaxBatch),
		"max-delay":        fmt.Sprint(serveMaxDelay),
		"tenant-queue":     fmt.Sprint(tenantQueue),
		"global-queue":     fmt.Sprint(globalQueue),
		"control-epoch":    fmt.Sprint(controlEpoch),
		"audit-head-every": fmt.Sprint(auditHeadEvery),
		"audit-sample":     fmt.Sprint(auditSample),
		"cluster-verify":   fmt.Sprint(clusterVerify),
		"cluster-sync":     fmt.Sprint(clusterSync),
		// Always on in the benchmark's stack.
		"adaptive":        "true",
		"binary-protocol": "true",
		"audit":           "true",
		"tenants":         `""`,
		// upCluster routes with cluster.DigestForward.
		"cluster-forward": `"digest"`,
	}
	for flagName, w := range want {
		expr, ok := defaults[flagName]
		if !ok {
			t.Errorf("mvtee-serve declares no -%s flag", flagName)
			continue
		}
		if got := evalDefault(expr); got != w {
			t.Errorf("mvtee-serve -%s defaults to %s; the benchmark uses %s", flagName, expr, w)
		}
	}
}

// evalDefault renders a flag default as fmt prints the benchmark's value:
// durations written as N*time.Unit become their String form.
func evalDefault(expr string) string {
	n, unit, ok := strings.Cut(strings.ReplaceAll(expr, " ", ""), "*time.")
	if !ok {
		return expr
	}
	units := map[string]time.Duration{"Microsecond": time.Microsecond, "Millisecond": time.Millisecond,
		"Second": time.Second, "Minute": time.Minute}
	k, err := strconv.Atoi(n)
	if err != nil || units[unit] == 0 {
		return expr
	}
	return (time.Duration(k) * units[unit]).String()
}

// TestOutputCheck checks that the output check accepts each pool input's
// expected output and rejects a corrupted, a missing, a mis-shaped one and,
// where two inputs' expected outputs lie apart, another input's. It also
// asserts that the small mobilenetv3's pool is one the swap check can tell
// apart.
func TestOutputCheck(t *testing.T) {
	for _, w := range workloads {
		pool, err := newInputPool(w, 7, 4)
		if err == nil {
			err = pool.expect(w)
		}
		if err != nil {
			t.Fatal(err)
		}
		if w.model == "mobilenetv3" && pool.distinctShare() < 0.5 {
			t.Errorf("%s: the swap check tells apart only %.2f of pool pairs", w.name, pool.distinctShare())
		}
		for i, want := range pool.expected {
			if _, err := pool.check(i, want); err != nil {
				t.Fatalf("%s: input %d rejects its own output: %v", w.name, i, err)
			}
			if err := pool.checkOutputs(want); err != nil {
				t.Fatalf("%s: set-up check rejects input %d's output: %v", w.name, i, err)
			}
			for j, other := range pool.expected {
				if j == i || distance(want, other) <= 2*swapTolerance {
					continue
				}
				if _, err := pool.check(i, other); !errors.Is(err, errSwapped) {
					t.Errorf("%s: input %d's output delivered for input %d: got %v, want a swapped row", w.name, j, i, err)
				}
			}
			for name, wt := range want {
				bad := wt.Clone()
				bad.Data()[0] += 1
				if _, err := pool.check(i, map[string]*tensor.Tensor{name: bad}); err == nil {
					t.Errorf("%s: corrupted output %q accepted", w.name, name)
				}
				if _, err := pool.check(i, map[string]*tensor.Tensor{}); err == nil {
					t.Errorf("%s: missing output %q accepted", w.name, name)
				}
				if pool.checkOutputs(map[string]*tensor.Tensor{}) == nil {
					t.Errorf("%s: set-up check accepts a missing output %q", w.name, name)
				}
				short := tensor.New(1, wt.Size()-1)
				if _, err := pool.check(i, map[string]*tensor.Tensor{name: short}); err == nil {
					t.Errorf("%s: mis-shaped output %q accepted", w.name, name)
				}
			}
		}
	}
}

// run executes the benchmark briefly and returns its output lines and the
// parsed result line.
func run(t *testing.T, out, workload string, trace int) ([]string, result) {
	t.Helper()
	var buf bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1",
		"--trace", strconv.Itoa(trace), "--out", out}
	if code := realMain(args, &buf); code != 0 {
		t.Fatalf("exit %d:\n%s", code, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, buf.String())
	}
	return lines, r
}

// checkMetrics asserts that exactly the declared metrics print, each with
// its declared unit, and that every share lies in [0,1] (a difference of two
// shares in [-1,1]).
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		}
	}
	for name, m := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s printed but not declared", name)
		}
		lo := 0.0
		if strings.HasPrefix(name, "overhead.") {
			lo = -1 // a traced-minus-untraced difference of two shares
		}
		if m.Unit == "share" && (m.Value < lo || m.Value > 1) {
			t.Errorf("share %s = %v outside [%v,1]", name, m.Value, lo)
		}
	}
}

func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload against a live stack")
	}
	s := loadSpec(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			_, r := run(t, out, w.name, 0)
			if !r.Correct || r.Attempted < 1 {
				t.Fatalf("untraced result %+v", r)
			}
			checkMetrics(t, r.Metrics, e2e)

			lines, r := run(t, out, w.name, 1)
			if !r.Correct {
				t.Fatalf("traced result %+v", r)
			}
			checkMetrics(t, r.Metrics, layers)
			if r.Metrics["trace.requests"].Value < 1 {
				t.Fatalf("no traced requests:\n%s", strings.Join(lines, "\n"))
			}
			checkSpans(t, filepath.Join(out, fmt.Sprintf("spans-%s-seed3.jsonl.gz", w.name)))
		})
	}
}

// nestTolerance bounds how much child time may lie outside its parent, as a
// share of the request span summed over all trees.
const nestTolerance = 0.01

// treeStats sums one written request tree's span, its on-path self times
// and the child time lying outside its parent.
func treeStats(req *node) (root, self, outside float64) {
	root = float64(req.End - req.Start)
	var walk func(n, parent *node)
	walk = func(n, parent *node) {
		if n.Parallel {
			return
		}
		self += float64(n.Self)
		if parent != nil {
			lo, hi := max(n.Start, parent.Start), min(n.End, parent.End)
			outside += float64((n.End - n.Start) - max(hi-lo, 0))
		}
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	walk(req, nil)
	return root, self, outside
}

// TestNestCheckRejects feeds the nesting check a tree whose engine batch
// outlasts the serve span that should contain it, and one that nests.
func TestNestCheckRejects(t *testing.T) {
	build := func(batchEnd int64) *node {
		req := &node{Name: "request", Start: 0, End: 1000}
		sv := req.add(&node{Name: "serve", Start: 100, End: 900})
		sv.add(&node{Name: "engine.batch", Start: 200, End: batchEnd})
		selfTimes(req)
		return req
	}
	if root, _, outside := treeStats(build(800)); outside/root != 0 {
		t.Errorf("nested tree reports %.3f of its span outside a parent", outside/root)
	}
	root, self, outside := treeStats(build(1000))
	if outside/root <= nestTolerance {
		t.Errorf("engine.batch ending 100 ns after serve passes the nesting check (%.3f outside)", outside/root)
	}
	// Self times still sum to the request span: selfTimes hands every
	// instant of the request to exactly one covering span, so that sum holds
	// by construction; only the nesting check can fail on real spans.
	if self != root {
		t.Errorf("self times sum to %v, request span %v", self, root)
	}
}

// checkSpans reads the written request trees and asserts that spans nest,
// that self times are within their spans and that they sum to the request
// spans (true by construction of selfTimes; see TestNestCheckRejects).
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(zr)
	var root, outside, selfSum float64
	trees := 0
	for dec.More() {
		var req node
		if err := dec.Decode(&req); err != nil {
			t.Fatal(err)
		}
		trees++
		if req.Name != "request" || len(req.Children) != 1 || req.Children[0].Name != "serve" {
			t.Fatalf("tree root %q does not nest serve under request", req.Name)
		}
		var walk func(n *node)
		walk = func(n *node) {
			if !n.Parallel && (n.Self < 0 || n.Self > n.End-n.Start) {
				t.Errorf("%s self time %d outside [0, %d]", n.Name, n.Self, n.End-n.Start)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(&req)
		r, s, o := treeStats(&req)
		root, selfSum, outside = root+r, selfSum+s, outside+o
	}
	if trees == 0 {
		t.Fatal("no request trees written")
	}
	if selfSum != root {
		t.Errorf("self times sum to %.9g of the request spans", selfSum/root)
	}
	if share := outside / root; share > nestTolerance {
		t.Errorf("%.4f of child span time lies outside its parent", share)
	}
}
