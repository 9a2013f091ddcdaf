package monitor

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// gather accumulates variant results for one (stage, batch) checkpoint.
type gather struct {
	id      uint64
	trace   uint64 // batch trace ID; zero for an untraced batch
	mask    []bool // handle was live at dispatch
	arrived []bool
	results []map[string]*tensor.Tensor // nil = crashed / not arrived
	errs    []string
	count   int // arrivals among masked handles
	want    int // masked handle count
	// dispatchedAt anchors the gather-latency histogram and the gather span;
	// only set when the batch is traced.
	dispatchedAt time.Time
	// deadline is when non-arrived variants are declared dead; zero when
	// StageTimeout is disabled.
	deadline time.Time
	// forwarded marks that the async fast-quorum already released the
	// pipeline for this batch.
	forwarded bool
}

func (g *gather) allArrived() bool { return g.count >= g.want }

// voteSlice compacts the masked results for voting; idxMap maps vote index
// back to handle index.
func (g *gather) voteSlice() (res []map[string]*tensor.Tensor, idxMap []int) {
	for i, m := range g.mask {
		if !m {
			continue
		}
		res = append(res, g.results[i])
		idxMap = append(idxMap, i)
	}
	return res, idxMap
}

// stageState is the single-goroutine mutable state of one stage worker: the
// live-slot set, outstanding gathers, and the stage's degradation rung.
type stageState struct {
	e         *Engine
	s         *stage
	live      []bool
	liveCount int
	gathers   map[uint64]*gather
	rung      LadderRung
	lastID    uint64 // highest batch id dispatched at this stage
	pending   []stageWork
}

// stageWorker runs one pipeline stage: dispatching batches to the stage's
// variants and enforcing the slow/fast-path and sync/async checkpoint
// semantics of §4.3, plus the robustness layer — straggler deadlines, the
// degradation ladder and hot replacement of dead slots.
func (e *Engine) stageWorker(s *stage) {
	defer close(s.done)
	st := &stageState{
		e:       e,
		s:       s,
		live:    make([]bool, len(s.spec.Handles)),
		gathers: make(map[uint64]*gather),
	}
	for i, h := range s.spec.Handles {
		if h.Dropped() {
			// Same visibility rule as the dispatch-time prune: an exclusion
			// must never be silent.
			e.recordEvent(Event{Kind: EventVariantDown, Stage: s.idx,
				Variants: []string{h.ID()}, Detail: "excluded at start: variant dropped"})
			continue
		}
		st.live[i] = true
		st.liveCount++
	}
	st.rung = rungFor(st.liveCount, s.mvxSize)
	e.setLadder(s.idx, st.rung)

	// The deadline sweep runs at a fraction of StageTimeout so expiry is
	// detected within ~StageTimeout·9/8 of dispatch.
	var tickCh <-chan time.Time
	if e.cfg.StageTimeout > 0 {
		period := e.cfg.StageTimeout / 8
		if period < time.Millisecond {
			period = time.Millisecond
		}
		tk := time.NewTicker(period)
		defer tk.Stop()
		tickCh = tk.C
	}

	for {
		select {
		case <-e.ctx.Done():
			return
		case w := <-s.workCh:
			st.pending = append(st.pending, w)
		case hr := <-s.resCh:
			st.onResult(hr)
		case r := <-s.replCh:
			st.install(r.slot, r.h)
		case now := <-tickCh:
			st.expire(now)
		}
		// Credits are spent by dispatch and refunded when gathers resolve, so
		// the drain runs after every event — never from inside evaluateGather,
		// whose callers may be mid-iteration over the gathers map.
		st.drainPending()
		e.met.stages[s.idx].queueDepth.Set(int64(len(st.pending)))
	}
}

// drainPending dispatches queued batches while the stage holds credits: with
// a window of W, at most W gathers may be outstanding (a gather counts until
// its final straggler arrives, even after an async quorum forwarded it). A
// zero window disables the credit check and pending drains immediately. The
// budget is re-read from the engine each drain so a live retune
// (Engine.SetInflightWindow) applies without restarting the stage.
func (st *stageState) drainPending() {
	window := int(st.e.dynWindow.Load())
	for len(st.pending) > 0 && (window <= 0 || len(st.gathers) < window) {
		w := st.pending[0]
		n := copy(st.pending, st.pending[1:])
		st.pending[n] = stageWork{} // release tensor refs
		st.pending = st.pending[:n]
		st.dispatch(w)
	}
}

// dispatch sends one batch to the stage's live variants and opens its gather.
func (st *stageState) dispatch(w stageWork) {
	e, s := st.e, st.s
	// Sync with variants excluded externally (response policy on another
	// engine, monitor updates). This exclusion would otherwise be invisible
	// in the event log, so record it like any other departure.
	for i, h := range s.spec.Handles {
		if st.live[i] && h.Dropped() {
			st.markDead(i, EventVariantDown, w.id, "excluded at dispatch: variant dropped")
		}
	}
	if st.liveCount == 0 {
		e.post(routerMsg{done: true, stageIdx: s.idx, id: w.id,
			err: fmt.Errorf("monitor: stage %d has no live variants", s.idx)})
		return
	}
	st.lastID = w.id
	g := &gather{
		id:      w.id,
		trace:   w.trace,
		mask:    append([]bool(nil), st.live...),
		arrived: make([]bool, len(st.live)),
		results: make([]map[string]*tensor.Tensor, len(st.live)),
		errs:    make([]string, len(st.live)),
	}
	for _, m := range g.mask {
		if m {
			g.want++
		}
	}
	if e.cfg.StageTimeout > 0 {
		g.deadline = time.Now().Add(e.cfg.StageTimeout)
	}
	// One clock read opens the dispatch span; each successful send advances
	// `last`, which doubles as the next send's start and finally the dispatch
	// end, so a traced dispatch costs 1+N clock reads instead of 2+2N.
	var t0, last time.Time
	if w.trace != 0 {
		t0 = time.Now()
		g.dispatchedAt = t0
		last = t0
	}
	st.gathers[w.id] = g
	// Encode-once fan-out: the batch is marshalled exactly once, into a
	// pooled buffer, regardless of how many variants serve the stage. Each
	// live handle transmits the same payload (secure channels seal their own
	// frame from it without touching it). The trace ID rides the batch header
	// so variant-side spans stitch into this batch's timeline.
	buf := wire.MarshalBatch(&wire.Batch{ID: w.id, Trace: w.trace, Tensors: w.tensors})
	payload := buf.Payload()
	for i, h := range s.spec.Handles {
		if !st.live[i] {
			continue
		}
		if err := h.sendEncoded(w.id, payload); err != nil {
			st.markDead(i, EventVariantDown, w.id, err.Error())
			continue
		}
		if !t0.IsZero() {
			// Per-variant child span covering seal + transmit of this
			// variant's copy (per-op seal cost is also in mvtee_chan_seal_ns).
			now := time.Now()
			e.tracer.Record(telemetry.Span{
				Trace: w.trace, Batch: w.id, Name: "send", Stage: s.idx,
				Variant: h.ID(), Start: last.UnixNano(), End: now.UnixNano(),
			})
			last = now
		}
	}
	buf.Free()
	if !t0.IsZero() {
		e.tracer.Record(telemetry.Span{
			Trace: w.trace, Batch: w.id, Name: "dispatch", Stage: s.idx,
			Start: t0.UnixNano(), End: last.UnixNano(),
		})
	}
	// markDead may already have completed the gather.
	if gg, ok := st.gathers[w.id]; ok {
		st.evaluateGather(gg)
	}
}

// onResult merges one variant result into its gather.
func (st *stageState) onResult(hr handleResult) {
	idx := st.e.handleIndex(st.s, hr.handle)
	if idx < 0 {
		return // stale handle (already replaced)
	}
	if hr.err != nil {
		st.markDead(idx, EventVariantDown, st.lastID, hr.err.Error())
		return
	}
	g, ok := st.gathers[hr.res.ID]
	if !ok || !g.mask[idx] || g.arrived[idx] {
		return // stale, unmasked or duplicate result
	}
	g.arrived[idx] = true
	g.count++
	if hr.res.Err != "" {
		g.results[idx] = nil
		g.errs[idx] = hr.res.Err
	} else {
		g.results[idx] = hr.res.Tensors
	}
	st.evaluateGather(g)
}

// install fills a dead slot with a replacement handle. Outstanding gathers
// keep their dispatch-time mask, so the replacement serves from the next
// checkpoint only.
func (st *stageState) install(slot int, h *Handle) {
	st.s.spec.Handles[slot] = h
	if !st.live[slot] {
		st.live[slot] = true
		st.liveCount++
	}
	st.updateLadder(st.lastID)
}

// expire enforces the straggler deadline: every masked variant that has not
// arrived when its gather's deadline passes is declared dead, which also
// completes — and thereby purges — async-forwarded gathers whose stragglers
// would otherwise leak for the life of the stage.
func (st *stageState) expire(now time.Time) {
	var victims map[int]uint64 // slot -> first expired batch it missed
	for _, g := range st.gathers {
		if g.deadline.IsZero() || g.allArrived() || now.Before(g.deadline) {
			continue
		}
		for i, m := range g.mask {
			if m && !g.arrived[i] && st.live[i] {
				if victims == nil {
					victims = make(map[int]uint64)
				}
				if _, ok := victims[i]; !ok {
					victims[i] = g.id
				}
			}
		}
	}
	for idx, id := range victims {
		st.markDead(idx, EventVariantTimeout, id,
			fmt.Sprintf("stage deadline %v exceeded", st.e.cfg.StageTimeout))
	}
}

// markDead removes a slot from the live set, records the departure, requests
// a replacement, updates the ladder, and completes the slot's entry in every
// outstanding gather as a crash.
func (st *stageState) markDead(idx int, kind EventKind, batchID uint64, reason string) {
	if !st.live[idx] {
		return
	}
	st.live[idx] = false
	st.liveCount--
	deadID := st.s.spec.Handles[idx].ID()
	st.e.recordEvent(Event{
		Kind: kind, Stage: st.s.idx, BatchID: batchID,
		Variants: []string{deadID}, Detail: reason,
	})
	st.requestReplace(idx, deadID)
	st.updateLadder(batchID)
	for _, g := range st.gathers {
		if g.mask[idx] && !g.arrived[idx] {
			g.arrived[idx] = true
			g.results[idx] = nil
			g.errs[idx] = reason
			g.count++
			st.evaluateGather(g)
		}
	}
}

// requestReplace queues a hot-replacement request when the engine has a
// replacement provider configured.
func (st *stageState) requestReplace(slot int, deadID string) {
	if st.e.cfg.Replace == nil {
		return
	}
	select {
	case st.e.replReqCh <- replaceReq{s: st.s, slot: slot, deadID: deadID, sinceBatch: st.lastID}:
	default:
		st.e.recordEvent(Event{Kind: EventReplaceFailed, Stage: st.s.idx,
			Variants: []string{deadID}, Detail: "replacement queue full"})
	}
}

// updateLadder recomputes the stage's rung after a membership change and
// records the transition.
func (st *stageState) updateLadder(batchID uint64) {
	nr := rungFor(st.liveCount, st.s.mvxSize)
	if nr == st.rung {
		return
	}
	kind := EventLadderDemoted
	if nr > st.rung {
		kind = EventLadderPromoted
	}
	detail := fmt.Sprintf("%s→%s (%d/%d live)", st.rung, nr, st.liveCount, st.s.mvxSize)
	if nr == LadderSingle && st.s.mvxSize > 1 {
		detail += "; single-variant fast path, results unverified (report-only)"
	}
	st.rung = nr
	st.e.setLadder(st.s.idx, nr)
	st.e.recordEvent(Event{Kind: kind, Stage: st.s.idx, BatchID: batchID, Detail: detail})
}

func (e *Engine) handleIndex(s *stage, h *Handle) int {
	for i, hh := range s.spec.Handles {
		if hh == h {
			return i
		}
	}
	return -1
}

func (e *Engine) post(m routerMsg) {
	select {
	case e.routerCh <- m:
	case <-e.ctx.Done():
	}
}

// closeGather resolves a gather (refunding its window credit) and records its
// dispatch→close latency when the batch is traced. It returns the close
// timestamp (zero when untraced) so callers can reuse the clock read as the
// start of whatever they do next.
func (st *stageState) closeGather(g *gather) time.Time {
	delete(st.gathers, g.id)
	if g.dispatchedAt.IsZero() {
		return time.Time{}
	}
	now := time.Now()
	st.e.met.stages[st.s.idx].gatherNs.Observe(now.Sub(g.dispatchedAt).Nanoseconds())
	st.e.tracer.Record(telemetry.Span{
		Trace: g.trace, Batch: g.id, Name: "gather", Stage: st.s.idx,
		Start: g.dispatchedAt.UnixNano(), End: now.UnixNano(),
	})
	return now
}

// forward releases a checkpoint output downstream, marking the release
// instant on traced batches. Hot callers that just took a clock
// reading pass it as now; a zero now means take a fresh one.
func (st *stageState) forward(g *gather, outs map[string]*tensor.Tensor, now time.Time) {
	var d check.Digest
	if sink := st.e.cfg.DigestSink; sink != nil {
		// Per-checkpoint digest tap: fingerprint the chosen output before it
		// leaves the stage. The cluster tier streams it so remote followers
		// can vote on 32 bytes instead of receiving the tensors; the digest
		// rides to the router goroutine, so the transcript leaf reuses it.
		d = check.DigestOf(outs)
		sink(g.id, st.s.idx, d)
	}
	// The span is recorded before the release is posted: once the last
	// stage posts, the batch can complete and a caller that snapshots the
	// tracer when Infer returns must already see it.
	if !g.dispatchedAt.IsZero() {
		if now.IsZero() {
			now = time.Now()
		}
		ns := now.UnixNano()
		st.e.tracer.Record(telemetry.Span{
			Trace: g.trace, Batch: g.id, Name: "forward", Stage: st.s.idx,
			Start: ns, End: ns,
		})
	}
	st.e.post(routerMsg{done: true, stageIdx: st.s.idx, id: g.id, outs: outs, digest: d})
}

// evaluateGather applies the checkpoint decision logic:
//
//   - fast path (single variant): forward as soon as the result arrives;
//   - slow path, sync: wait for all variants, vote, react on divergence;
//   - slow path, async: forward once a majority quorum agrees, then
//     cross-validate stragglers retroactively, reacting at the earliest next
//     checkpoint on late dissent (Figure 8).
func (st *stageState) evaluateGather(g *gather) {
	e, s := st.e, st.s
	if g.want == 1 {
		if !g.allArrived() {
			return
		}
		ts := st.closeGather(g)
		res, idxMap := g.voteSlice()
		if res[0] == nil {
			e.post(routerMsg{done: true, stageIdx: s.idx, id: g.id,
				err: fmt.Errorf("monitor: stage %d variant %s failed: %s",
					s.idx, s.spec.Handles[idxMap[0]].ID(), g.errs[idxMap[0]])})
			return
		}
		st.forward(g, res[0], ts)
		return
	}

	// Async quorum: attempt early forwarding before all variants report.
	if e.cfg.Async && !g.forwarded && !g.allArrived() {
		if 2*g.count <= g.want {
			// A majority cluster is impossible until more than half the
			// variants have reported; skip the pairwise vote entirely.
			return
		}
		res, _ := g.voteSlice()
		v, err := check.Vote(res, e.cfg.Policy, check.Majority)
		if err == nil && v.OK && v.Chosen >= 0 {
			g.forwarded = true
			st.forward(g, res[v.Chosen], time.Time{})
		}
		return
	}
	if !g.allArrived() {
		return
	}

	// Final (full) vote. The gather-close timestamp doubles as the vote span
	// start (assembling the vote slice is part of checkpoint evaluation).
	v0 := st.closeGather(g)
	res, idxMap := g.voteSlice()
	v, err := check.Vote(res, e.cfg.Policy, e.cfg.Vote)
	var vEnd time.Time
	if !v0.IsZero() {
		vEnd = time.Now()
		e.tracer.Record(telemetry.Span{
			Trace: g.trace, Batch: g.id, Name: "vote", Stage: s.idx,
			Start: v0.UnixNano(), End: vEnd.UnixNano(),
		})
	}
	if err != nil {
		e.post(routerMsg{done: true, stageIdx: s.idx, id: g.id,
			err: fmt.Errorf("monitor: stage %d vote: %w", s.idx, err)})
		return
	}
	if v.OK {
		if !g.forwarded {
			st.forward(g, res[v.Chosen], vEnd)
		}
		return
	}

	// Divergence.
	dissenters := make([]string, 0, len(v.Dissenters))
	var detail []string
	for _, di := range v.Dissenters {
		hi := idxMap[di]
		dissenters = append(dissenters, s.spec.Handles[hi].ID())
		if g.errs[hi] != "" {
			detail = append(detail, fmt.Sprintf("%s: %s", s.spec.Handles[hi].ID(), g.errs[hi]))
		}
	}
	kind := EventDivergence
	if g.forwarded {
		kind = EventLateDissent
	}
	e.recordEvent(Event{
		Kind: kind, Stage: s.idx, BatchID: g.id,
		Variants: dissenters, Detail: strings.Join(detail, "; "),
	})

	switch e.cfg.Response {
	case Halt:
		e.post(routerMsg{fatal: fmt.Errorf("monitor: divergence at stage %d batch %d (dissenters %v)",
			s.idx, g.id, dissenters)})
	case DropVariant, Recover:
		for _, di := range v.Dissenters {
			hi := idxMap[di]
			if !st.live[hi] {
				continue // crashed or timed out: departure already recorded
			}
			s.spec.Handles[hi].drop()
			st.markDead(hi, EventVariantDropped, g.id, "dissent at checkpoint")
		}
		st.finishDiverged(g, v, res)
	case ReportOnly:
		st.finishDiverged(g, v, res)
	}
}

// finishDiverged completes a diverged batch with the majority output when
// one exists (recovery), or fails the batch otherwise. The majority is a
// strict majority of the variants masked at dispatch (len(res)) — crashed
// and timed-out variants count in the denominator and against the quorum,
// matching check.Vote's Majority rule over the same slice, so a crash can
// never make a borderline cluster look like a majority.
func (st *stageState) finishDiverged(g *gather, v check.Verdict, res []map[string]*tensor.Tensor) {
	e, s := st.e, st.s
	if g.forwarded {
		return // downstream already has the quorum output
	}
	if v.Chosen >= 0 && len(v.Agreeing)*2 > len(res) {
		st.forward(g, res[v.Chosen], time.Time{})
		return
	}
	e.post(routerMsg{done: true, stageIdx: s.idx, id: g.id,
		err: fmt.Errorf("monitor: stage %d batch %d: no agreeing majority", s.idx, g.id)})
}
