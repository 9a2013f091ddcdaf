package main

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// tracedEngine sits between serve.New (and the control plane) and the
// engine or router in a traced run. It forwards Submit, Outputs, Ladder,
// InflightWindow and SetInflightWindow and timestamps every batch's Submit
// call and result, which gives the engine.batch span and the Submit
// blocking time without adding spans inside the program. Untraced runs hand
// the engine to serve.New unwrapped.
type tracedEngine struct {
	inner pipelineEngine
	out   chan monitor.BatchResult
	stop  chan struct{}
	done  chan struct{}

	mu      sync.Mutex
	batches map[uint64]*batchRec
	// inflight counts batches between Submit and result; area integrates it
	// over time for the window mean.
	inflight int
	area     float64
	last     time.Time
}

// batchRec is one engine batch as the wrapper saw it (Unix nanoseconds).
type batchRec struct {
	submitStart, submitEnd int64
	result                 int64 // result received from the engine
	delivered              int64 // result taken by the serve demux
	latency                int64 // BatchResult.Latency
	// early marks a result that arrived before its Submit call returned —
	// the window in which serve has not yet registered the batch.
	early bool
}

func newTracedEngine(inner pipelineEngine) *tracedEngine {
	t := &tracedEngine{
		inner:   inner,
		out:     make(chan monitor.BatchResult),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		batches: make(map[uint64]*batchRec),
		last:    time.Now(),
	}
	go t.pump()
	return t
}

func (t *tracedEngine) rec(id uint64) *batchRec {
	r := t.batches[id]
	if r == nil {
		r = &batchRec{}
		t.batches[id] = r
	}
	return r
}

// step moves the inflight count by delta at now. Caller holds mu.
func (t *tracedEngine) step(now time.Time, delta int) {
	t.area += float64(t.inflight) * now.Sub(t.last).Seconds()
	t.last = now
	t.inflight += delta
}

func (t *tracedEngine) inflightIntegral(now time.Time) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.step(now, 0)
	return t.area
}

func (t *tracedEngine) Submit(inputs map[string]*tensor.Tensor) (uint64, error) {
	t0 := time.Now()
	id, err := t.inner.Submit(inputs)
	t1 := time.Now()
	if err != nil {
		return id, err
	}
	t.mu.Lock()
	r := t.rec(id)
	r.submitStart, r.submitEnd = t0.UnixNano(), t1.UnixNano()
	r.early = r.result != 0
	if !r.early {
		t.step(t0, 1)
	}
	t.mu.Unlock()
	return id, nil
}

func (t *tracedEngine) pump() {
	defer close(t.done)
	for {
		select {
		case <-t.stop:
			return
		case res, ok := <-t.inner.Outputs():
			if !ok {
				return
			}
			now := time.Now()
			t.mu.Lock()
			r := t.rec(res.ID)
			r.result, r.latency = now.UnixNano(), int64(res.Latency)
			if r.submitStart != 0 {
				t.step(now, -1)
			}
			t.mu.Unlock()
			select {
			case t.out <- res:
			case <-t.stop:
				return
			}
			now = time.Now()
			t.mu.Lock()
			r.delivered = now.UnixNano()
			t.mu.Unlock()
		}
	}
}

func (t *tracedEngine) Outputs() <-chan monitor.BatchResult { return t.out }
func (t *tracedEngine) Ladder() []monitor.LadderRung        { return t.inner.Ladder() }
func (t *tracedEngine) InflightWindow() int                 { return t.inner.InflightWindow() }
func (t *tracedEngine) SetInflightWindow(n int)             { t.inner.SetInflightWindow(n) }

// Close stops the pump; the stack calls it after the server has closed.
func (t *tracedEngine) Close() {
	close(t.stop)
	<-t.done
}

// records returns a copy of the batch records.
func (t *tracedEngine) records() map[uint64]batchRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64]batchRec, len(t.batches))
	for id, r := range t.batches {
		out[id] = *r
	}
	return out
}

// traceRing is the process span ring's capacity in a traced run, set the
// way -trace-ring sets it. At 88 bytes a span it holds about 46 MB: the
// last 6 s of cluster-closed's spans, every span of resnet-open's. Trees
// are built for the window's requests whose spans are all still in the
// ring; evictions surface as trace.dropped and a smaller trace.requests.
const traceRing = 1 << 19

// runTraced runs the workload untraced in a child process for reference,
// then traced in this process, and reports the per-layer metrics, the span
// budget and the tracing overhead.
func runTraced(o options, stdout io.Writer) (*report, error) {
	w := o.workload
	line, err := child("untraced", childArgs(o))
	if err != nil {
		return nil, err
	}
	var ref result
	if err := json.Unmarshal(line, &ref); err != nil {
		return nil, fmt.Errorf("untraced child output %q: %w", line, err)
	}

	telemetry.DefaultTracer = telemetry.NewTracer(traceRing)
	pool, err := newInputPool(w, o.seed, poolSize)
	if err != nil {
		return nil, err
	}
	var tr *tracedEngine
	st, err := setUp(w, pool, func(e pipelineEngine) (pipelineEngine, func()) {
		tr = newTracedEngine(e)
		return tr, tr.Close
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	before := probeHost()
	var a, b layerSnap
	var rss float64
	ph, err := runClient(o, st.url,
		func() { a, rss = snapLayers(tr), peakRSSMiB() },
		func() { b = snapLayers(tr) })
	if err != nil {
		return nil, err
	}
	spans := telemetry.DefaultTracer.Snapshot()
	after := probeHost()

	e2e, fails, _ := endToEnd(w, ph, b.cpu-a.cpu, rss)
	e2e["setup_s"] = metric{st.times.total.Seconds(), "s"}
	served := 0
	for i := range ph.Outcomes {
		if ph.Outcomes[i].Cause != "timeout" {
			served++
		}
	}
	m := layerMetrics(a, b, served)
	for name, v := range loadgenMetrics(ph) {
		m[name] = v
	}
	m["core.build_s"] = metric{st.times.build.Seconds(), "s"}
	m["core.deploy_s"] = metric{st.times.deploy.Seconds(), "s"}
	m["core.first_response_ms"] = metric{ms(st.times.firstResponse), "ms"}

	recs := tr.records()
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", w.name, o.seed))
	tb, err := writeTrees(path, func(out io.Writer) *trees { return buildTrees(w, ph, recs, spans, out) })
	if err != nil {
		return nil, err
	}
	for name, v := range tb.metrics() {
		m[name] = v
	}
	m["serve.register_race"] = metric{float64(tb.early), "count"}
	base, err := baselineMS(w, pool)
	if err != nil {
		return nil, err
	}
	m["infer.baseline_ms"] = metric{base, "ms"}
	m["monitor.mvx_overhead"] = metric{m["monitor.batch_ms"].Value / base, "ratio"}
	for name, v := range e2e {
		r, ok := ref.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("untraced reference run lacks %s", name)
		}
		m["overhead."+name] = metric{v.Value - r.Value, v.Unit}
	}

	rep := &report{Failures: fails, Extra: hostDiagnostics(before, after)}
	rep.Result = summarize(ph, m)
	for name, v := range e2e {
		rep.Extra["traced."+name] = v.Value
	}
	printReport(stdout, w, rep)
	fmt.Fprintf(stdout, "per-request self-time budget (mean ms over %d traced requests; sums to the mean request span):\n", tb.n)
	for _, name := range budgetOrder {
		fmt.Fprintf(stdout, "  %-16s %10.4f\n", name, tb.self[name]/float64(max(tb.n, 1)))
	}
	fmt.Fprintf(stdout, "  %-16s %10.4f\n", "request span", tb.root/float64(max(tb.n, 1)))
	fmt.Fprintf(stdout, "spans written to %s\n", path)
	return rep, nil
}

// loadgenMetrics describes the client itself.
func loadgenMetrics(ph phase) map[string]metric {
	timeouts := 0
	for i := range ph.Outcomes {
		if ph.Outcomes[i].Cause == "timeout" {
			timeouts++
		}
	}
	lat := latencies(ph)
	return map[string]metric{
		"loadgen.sent":           {float64(len(ph.Outcomes)), "count"},
		"loadgen.timeouts":       {float64(timeouts), "count"},
		"loadgen.late_max_ms":    {ms(time.Duration(ph.LateMaxNs)), "ms"},
		"loadgen.latency_p99_ms": {quantile(lat, 0.99), "ms"},
		"loadgen.samples":        {float64(len(lat)), "count"},
	}
}

// baselineMS is the unprotected original model's median latency, run
// sequentially three times over the pool's inputs after the window.
func baselineMS(w workload, pool *inputPool) (float64, error) {
	base, err := baselineExecutor(w)
	if err != nil {
		return 0, err
	}
	var xs []float64
	for pass := 0; pass < 3; pass++ {
		for _, in := range pool.inputs {
			t0 := time.Now()
			if _, err := base.Run(in); err != nil {
				return 0, fmt.Errorf("baseline run: %w", err)
			}
			xs = append(xs, ms(time.Since(t0)))
		}
	}
	return median(xs), nil
}

// node is one span of a request's tree (Unix nanoseconds).
type node struct {
	Name     string  `json:"name"`
	Stage    int     `json:"stage"`
	Variant  string  `json:"variant,omitempty"`
	Replica  string  `json:"replica,omitempty"`
	Start    int64   `json:"start"`
	End      int64   `json:"end"`
	Self     int64   `json:"self_ns"`
	Parallel bool    `json:"parallel,omitempty"`
	Children []*node `json:"children,omitempty"`
}

func (n *node) add(c *node) *node { n.Children = append(n.Children, c); return c }

// Budget layers in nesting order: the client's request span (connection
// wait, HTTP both ways), the serve scheduler, the wrapper's engine.batch
// (Submit blocking and the result hand-off), the router (cluster only), the
// engine's own batch span (hand-offs between stages), and the stage spans. A
// stage's send spans tile its dispatch span, so dispatch has no self time
// of its own.
var budgetOrder = []string{"request", "serve", "engine.batch", "route", "router.dispatch",
	"batch", "gather", "send", "compute", "vote"}

// trees aggregates the traced window's request trees, streaming each one
// to the span file as soon as its self times are set (engine subtrees are
// shared by a batch's requests, so a tree is written before the next
// request's attribution touches it).
type trees struct {
	enc     *json.Encoder
	err     error
	n       int
	root    float64            // summed request span, ms
	self    map[string]float64 // summed self time per layer, ms
	stick   float64            // summed child time outside its parent, ms
	early   int
	samples map[string][]float64 // per-layer duration samples, ms
	seen    map[*node]bool       // engine subtrees already sampled
}

// buildTrees assembles one tree per OK request of the window:
//
//	request (client: due to decoded)
//	  serve (the response's server latency, ending when the demux took the result)
//	    engine.batch (wrapper: Submit call to result)
//	      [cluster] route (router) > router.dispatch, leader replica's batch
//	      batch (engine) > per stage: gather > dispatch > send; compute; then vote
//
// Stage spans join the batch by batch ID (in-process) or by the router's
// trace ID (cluster). Only the variant that finished last is on a stage's
// critical path; the others are kept as parallel spans outside the budget,
// as is a follower replica's batch.
func buildTrees(w workload, ph phase, recs map[uint64]batchRec, spans []telemetry.Span, out io.Writer) *trees {
	tb := &trees{enc: json.NewEncoder(out), self: map[string]float64{},
		samples: map[string][]float64{}, seen: map[*node]bool{}}
	for _, r := range recs {
		if r.early {
			tb.early++
		}
	}
	// Index engine spans by batch ID, router spans by router batch ID, and
	// every span by trace for the cluster join.
	byBatch := map[uint64][]telemetry.Span{}
	routeOf := map[uint64]telemetry.Span{}
	rdispatchOf := map[uint64]telemetry.Span{}
	byTrace := map[uint64][]telemetry.Span{}
	for _, s := range spans {
		if s.Replica != "" {
			continue // a merged copy of a span this process also recorded directly
		}
		if w.cluster && s.Stage == -1 && (s.Name == "route" || s.Name == "dispatch") {
			if s.Name == "route" {
				routeOf[s.Batch] = s
			} else {
				rdispatchOf[s.Batch] = s
			}
			continue
		}
		byBatch[s.Batch] = append(byBatch[s.Batch], s)
		if w.cluster && s.Name == "batch" {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	built := map[uint64]*node{} // engine.batch subtree per wrapper batch
	for i := range ph.Outcomes {
		o := &ph.Outcomes[i]
		if !o.ok() {
			continue
		}
		rec, ok := recs[o.BatchID]
		if !ok || rec.submitStart == 0 || rec.delivered == 0 {
			continue
		}
		req := &node{Name: "request", Stage: -1, Start: o.Due, End: o.Done}
		sv := req.add(&node{Name: "serve", Stage: -1, Start: rec.delivered - o.ServerNs, End: rec.delivered})
		eb := built[o.BatchID]
		if eb == nil {
			eb = &node{Name: "engine.batch", Stage: -1, Start: rec.submitStart, End: rec.result}
			inner := eb
			engineID := o.BatchID
			if w.cluster {
				rt, ok := routeOf[o.BatchID]
				if !ok {
					continue
				}
				inner = eb.add(spanNode("route", rt))
				if d, ok := rdispatchOf[o.BatchID]; ok {
					inner.add(spanNode("router.dispatch", d))
				}
				leader, followers := pickLeader(byTrace[rt.Trace], rt.End)
				if leader == nil {
					continue
				}
				engineID = leader.Batch
				for _, f := range followers {
					p := spanNode("batch", f)
					p.Parallel = true
					inner.add(p)
				}
			}
			if !stageTree(inner, byBatch[engineID]) {
				continue // the batch's spans left the ring
			}
			built[o.BatchID] = eb
			tb.sample("monitor.batch_ms", float64(rec.latency)/1e6)
			tb.sample("serve.submit_block_ms", float64(rec.submitEnd-rec.submitStart)/1e6)
		}
		sv.Children = append(sv.Children, eb)
		tb.add(req)
		tb.sample("http.overhead_ms", float64(o.Done-o.Sent-o.ServerNs)/1e6)
		tb.sample("serve.wait_ms", float64(o.ServerNs-rec.latency)/1e6)
	}
	return tb
}

func spanNode(name string, s telemetry.Span) *node {
	return &node{Name: name, Stage: s.Stage, Variant: s.Variant, Replica: s.Replica, Start: s.Start, End: s.End}
}

// pickLeader returns the replica batch span whose result the router
// delivered — the latest to end no later than the route span — and the
// other replicas' batch spans.
func pickLeader(batches []telemetry.Span, routeEnd int64) (*telemetry.Span, []telemetry.Span) {
	li := -1
	for i, s := range batches {
		if s.End <= routeEnd && (li < 0 || s.End > batches[li].End) {
			li = i
		}
	}
	if li < 0 {
		return nil, nil
	}
	var rest []telemetry.Span
	for i, s := range batches {
		if i != li {
			rest = append(rest, s)
		}
	}
	return &batches[li], rest
}

// variantStage parses the partition index out of a variant ID
// ("p<partition>-<spec>-<n>").
func variantStage(id string) int {
	rest, ok := strings.CutPrefix(id, "p")
	if !ok {
		return -1
	}
	num, _, _ := strings.Cut(rest, "-")
	s, err := strconv.Atoi(num)
	if err != nil {
		return -1
	}
	return s
}

// stageTree hangs one engine batch's spans under parent. It reports false
// when the batch's own span or a stage's gather span is missing.
func stageTree(parent *node, spans []telemetry.Span) bool {
	var batch *node
	gathers := map[int]*node{}
	dispatches := map[int]*node{}
	var sends, computes []telemetry.Span
	var votes []*node
	for _, s := range spans {
		switch s.Name {
		case "batch":
			batch = spanNode("batch", s)
		case "gather":
			gathers[s.Stage] = spanNode("gather", s)
		case "dispatch":
			dispatches[s.Stage] = spanNode("dispatch", s)
		case "send":
			sends = append(sends, s)
		case "variant-compute":
			computes = append(computes, s)
		case "vote":
			votes = append(votes, spanNode("vote", s))
		}
	}
	if batch == nil || len(gathers) != stages {
		return false
	}
	parent.add(batch)
	for _, s := range sends {
		if d := dispatches[s.Stage]; d != nil {
			d.add(spanNode("send", s))
		}
	}
	// The variant that finished last is the stage's critical path.
	critical := map[int]*telemetry.Span{}
	for i := range computes {
		s := &computes[i]
		st := variantStage(s.Variant)
		if c := critical[st]; c == nil || s.End > c.End {
			critical[st] = s
		}
	}
	stages := make([]int, 0, len(gathers))
	for st := range gathers {
		stages = append(stages, st)
	}
	sort.Ints(stages)
	for _, st := range stages {
		g := gathers[st]
		batch.add(g)
		if d := dispatches[st]; d != nil {
			g.add(d)
		}
		for i := range computes {
			s := &computes[i]
			if variantStage(s.Variant) != st {
				continue
			}
			c := g.add(spanNode("compute", *s))
			c.Stage = st
			c.Parallel = s != critical[st]
		}
	}
	for _, v := range votes {
		batch.add(v)
	}
	return true
}

// rank orders the layers for self-time attribution: an instant belongs to
// the highest-ranked on-path span covering it. Ranks follow nesting, except
// that a stage's critical compute outranks the dispatch and send spans it
// overlaps — on the in-process pipe transport a variant starts computing
// before the monitor's send call returns — and a leader replica's batch
// outranks the router's dispatch, which goes on to send to the follower.
var rank = func() map[string]int {
	r := map[string]int{}
	for i, name := range []string{"request", "serve", "engine.batch", "route", "router.dispatch",
		"batch", "gather", "dispatch", "send", "vote", "compute"} {
		r[name] = i
	}
	return r
}()

// selfTimes sets every on-path span's self time: its duration minus the
// part of it that higher-ranked spans cover (its children, when spans nest).
// Self times of one tree sum to the root's duration. It returns how much
// child time lies outside its parent, the nesting error.
func selfTimes(root *node) (stick int64) {
	var path []*node
	var walk func(n, parent *node)
	walk = func(n, parent *node) {
		if n.Parallel {
			return
		}
		n.Self = 0
		path = append(path, n)
		if parent != nil {
			lo, hi := max(n.Start, parent.Start), min(n.End, parent.End)
			stick += (n.End - n.Start) - max(hi-lo, 0)
		}
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	walk(root, nil)
	cuts := make([]int64, 0, 2*len(path))
	for _, n := range path {
		cuts = append(cuts, max(min(n.Start, root.End), root.Start), max(min(n.End, root.End), root.Start))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi == lo {
			continue
		}
		var owner *node
		for _, n := range path {
			if n.Start <= lo && n.End >= hi && (owner == nil || rank[n.Name] > rank[owner.Name]) {
				owner = n
			}
		}
		owner.Self += hi - lo
	}
	return stick
}

// add folds one request tree into the aggregates and writes it out.
func (tb *trees) add(req *node) {
	tb.stick += float64(selfTimes(req)) / 1e6
	tb.n++
	tb.root += float64(req.End-req.Start) / 1e6
	var walk func(n *node)
	walk = func(n *node) {
		if !n.Parallel {
			tb.self[n.Name] += float64(n.Self) / 1e6
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(req)
	for _, eb := range req.Children[0].Children {
		tb.sampleStages(eb)
	}
	if tb.err == nil {
		tb.err = tb.enc.Encode(req)
	}
}

// sampleStages records the stage-level duration samples of one engine
// subtree, once per distinct batch.
func (tb *trees) sampleStages(n *node) {
	if tb.seen[n] {
		return
	}
	tb.seen[n] = true
	d := float64(n.End-n.Start) / 1e6
	switch {
	case n.Name == "route":
		tb.sample("cluster.route_ms", d)
	case n.Name == "compute" && n.Stage >= 0:
		tb.sample(fmt.Sprintf("infer.compute_ms.s%d", n.Stage), d)
	case n.Stage == mvxStage && (n.Name == "dispatch" || n.Name == "gather" || n.Name == "vote"):
		tb.sample("monitor."+n.Name+"_mvx", d)
	}
	for _, c := range n.Children {
		if !c.Parallel || c.Name == "compute" {
			tb.sampleStages(c)
		}
	}
}

func (tb *trees) sample(name string, v float64) { tb.samples[name] = append(tb.samples[name], v) }

// metrics derives the span-based per-layer metrics.
func (tb *trees) metrics() map[string]metric {
	m := map[string]metric{}
	p50 := func(name string) float64 { return median(tb.samples[name]) }
	for _, name := range []string{"http.overhead_ms", "serve.wait_ms", "serve.submit_block_ms", "monitor.batch_ms"} {
		m[name] = metric{p50(name), "ms"}
	}
	m["cluster.route_ms"] = metric{p50("cluster.route_ms"), "ms"}
	for st := 0; st < stages; st++ {
		name := fmt.Sprintf("infer.compute_ms.s%d", st)
		m[name] = metric{p50(name), "ms"}
	}
	m["monitor.dispatch_us"] = metric{p50("monitor.dispatch_mvx") * 1e3, "us"}
	m["monitor.gather_ms"] = metric{p50("monitor.gather_mvx"), "ms"}
	m["monitor.vote_us"] = metric{p50("monitor.vote_mvx") * 1e3, "us"}
	n := float64(max(tb.n, 1))
	for _, name := range budgetOrder {
		m["budget."+name+"_ms"] = metric{tb.self[name] / n, "ms"}
	}
	m["trace.requests"] = metric{float64(tb.n), "count"}
	m["trace.nest_error_share"] = metric{tb.stick / max(tb.root, 1e-9), "share"}
	return m
}

// writeTrees builds the request trees into a gzipped JSON-lines file, one
// tree per line.
func writeTrees(path string, build func(io.Writer) *trees) (*trees, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	zw := gzip.NewWriter(f)
	tb := build(zw)
	if err := errors.Join(tb.err, zw.Close(), f.Close()); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return tb, nil
}
