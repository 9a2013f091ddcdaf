package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/monitor"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transcript"
	"repro/internal/wire"
)

// fakeReplica is a scriptable Replica: tests read what the router submitted
// and inject results, votes, heartbeats and failures.
type fakeReplica struct {
	id string

	mu     sync.Mutex
	idx    int
	events chan<- replicaEvent
	subs   []fakeSub
	window int
}

type fakeSub struct {
	rid    uint64
	verify bool
	tag    wire.Type // first byte of enc, 0 when enc was nil
	inputs map[string]*tensor.Tensor
	seq    uint64 // global submission order across fakes
}

var fakeSeq atomic.Uint64

func newFake(id string) *fakeReplica { return &fakeReplica{id: id} }

func (f *fakeReplica) ID() string               { return f.id }
func (f *fakeReplica) Hello() wire.ReplicaHello { return wire.ReplicaHello{ID: f.id, Stages: 1} }
func (f *fakeReplica) InflightWindow() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.window
}
func (f *fakeReplica) SetInflightWindow(n int) {
	f.mu.Lock()
	f.window = n
	f.mu.Unlock()
}
func (f *fakeReplica) Close() error { return nil }

func (f *fakeReplica) attach(idx int, events chan<- replicaEvent) {
	f.mu.Lock()
	f.idx, f.events = idx, events
	f.mu.Unlock()
}

func (f *fakeReplica) pollMetrics(uint64) {}

func (f *fakeReplica) submit(rid, _ uint64, enc []byte, inputs map[string]*tensor.Tensor, verify bool) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := fakeSub{rid: rid, verify: verify, inputs: inputs, seq: fakeSeq.Add(1)}
	if enc != nil {
		s.tag = wire.Type(enc[0])
	}
	f.subs = append(f.subs, s)
	return len(enc), nil
}

func (f *fakeReplica) post(ev replicaEvent) {
	f.mu.Lock()
	ev.idx = f.idx
	ch := f.events
	f.mu.Unlock()
	ch <- ev
}

// lastSub waits for at least one submission (dispatch is asynchronous with
// Submit) and returns the most recent.
func (f *fakeReplica) lastSub(t *testing.T) fakeSub {
	t.Helper()
	waitUntil(t, "a submission", func() bool { return f.subCount() > 0 })
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.subs[len(f.subs)-1]
}

func (f *fakeReplica) subCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func testInputs(v float32) map[string]*tensor.Tensor {
	x := tensor.New(1, 4)
	for i := range x.Data() {
		x.Data()[i] = v
	}
	return map[string]*tensor.Tensor{"x": x}
}

func testOutputs(v float32) map[string]*tensor.Tensor {
	y := tensor.New(1, 4)
	for i := range y.Data() {
		y.Data()[i] = 2 * v
	}
	return map[string]*tensor.Tensor{"y": y}
}

// leaderAndFollower splits two fakes by who received the primary submission:
// the one not tagged verify (digest mode), else the one submitted first —
// dispatch always sends to the leader before the followers (tensor mode).
func leaderAndFollower(t *testing.T, a, b *fakeReplica) (lead, follow *fakeReplica) {
	t.Helper()
	waitUntil(t, "both submissions", func() bool { return a.subCount()+b.subCount() == 2 })
	sa, sb := a.lastSub(t), b.lastSub(t)
	if sa.verify || sa.tag == wire.TVerify || (sb.tag != wire.TVerify && sb.seq < sa.seq) {
		return b, a
	}
	return a, b
}

func readRow(t *testing.T, r *Router) monitor.BatchResult {
	t.Helper()
	select {
	case row := <-r.Outputs():
		return row
	case <-time.After(5 * time.Second):
		t.Fatal("no result row")
	}
	return monitor.BatchResult{}
}

func TestRouterDeliversLeaderResult(t *testing.T) {
	f := newFake("a")
	r, err := NewRouter(RouterConfig{Replicas: []Replica{f}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	id, err := r.Submit(testInputs(3))
	if err != nil {
		t.Fatal(err)
	}
	sub := f.lastSub(t)
	if sub.rid != id || sub.verify {
		t.Fatalf("leader submission = %+v, want primary rid %d", sub, id)
	}
	f.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: testOutputs(3)}})
	row := readRow(t, r)
	if row.ID != id || row.Err != nil || row.Tensors["y"].At(0, 0) != 6 {
		t.Fatalf("row = %+v, want id %d y=6", row, id)
	}
}

// answeringReplica is a fakeReplica whose submit answers the batch at once
// and returns only after the router has delivered that answer: the schedule
// in which the dispatch goroutine runs again only after the leader answered
// and the route span closed.
type answeringReplica struct {
	*fakeReplica
	delivered chan struct{}
}

func (a *answeringReplica) submit(rid, trace uint64, enc []byte, inputs map[string]*tensor.Tensor, verify bool) (int, error) {
	a.post(replicaEvent{res: &monitor.BatchResult{ID: rid, Tensors: testOutputs(1)}})
	<-a.delivered
	return a.fakeReplica.submit(rid, trace, enc, inputs, verify)
}

// TestRouterDispatchSpanEndsByLeaderAnswer pins span nesting: the router's
// dispatch span lies inside its route span even when the leader's send
// returns after the answer was delivered.
func TestRouterDispatchSpanEndsByLeaderAnswer(t *testing.T) {
	f := &answeringReplica{fakeReplica: newFake("a"), delivered: make(chan struct{})}
	tr := telemetry.NewTracer(64)
	r, err := NewRouter(RouterConfig{Replicas: []Replica{f}, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	id, err := r.Submit(testInputs(1))
	if err != nil {
		t.Fatal(err)
	}
	if row := readRow(t, r); row.ID != id || row.Err != nil {
		t.Fatalf("row = %+v, want id %d", row, id)
	}
	close(f.delivered)
	var route, dispatch telemetry.Span
	waitUntil(t, "route and dispatch spans", func() bool {
		for _, s := range tr.Snapshot() {
			switch {
			case s.Batch != id:
			case s.Name == "route":
				route = s
			case s.Name == "dispatch":
				dispatch = s
			}
		}
		return route.End != 0 && dispatch.End != 0
	})
	if dispatch.Trace != route.Trace || dispatch.Start < route.Start || dispatch.End > route.End {
		t.Fatalf("dispatch span [%d, %d] of trace %x not inside route span [%d, %d] of trace %x",
			dispatch.Start, dispatch.End, dispatch.Trace, route.Start, route.End, route.Trace)
	}
}

// The vote/leaf table: one digest-mode batch per case through a two-replica
// router, sync or async. The follower's final digest arrives before the
// leader's result (early-, parked until the result fixes the reference),
// after the result, after the row has been read (late-, async only: sync
// holds the row for the vote), or never (timeout: the sweeper abstains for
// it). It agrees, dissents (a differing sum) or abstains (a zero sum). A
// dissent the row has not yet left on fails it with ErrDivergence and leaves
// no leaf; every other case serves the leader's output and records one leaf
// whose votes equal the router's digest_votes_total counters. Two more rows
// pin whose checkpoints the leaf carries, the serving leader's only: a
// follower's differing stage digest lands before the leader's
// (follower-stage-), or the leader fails over after streaming its stage
// digests and the promoted follower, which abstains, serves (failover).
var voteLeafVerdicts = []string{telemetry.DigestVoteAgree, telemetry.DigestVoteDissent, telemetry.DigestVoteAbstain}

func TestRouterSyncDigestAgreeAndDissent(t *testing.T) { runVoteLeafTable(t, true) }

func TestRouterAsyncDigestAgreeAndDissent(t *testing.T) { runVoteLeafTable(t, false) }

func runVoteLeafTable(t *testing.T, sync bool) {
	whens := []string{"early-", "", "late-"}
	if sync {
		whens = whens[:2]
	}
	for _, when := range whens {
		for _, verdict := range voteLeafVerdicts {
			t.Run(when+verdict, func(t *testing.T) { runVoteLeafCase(t, sync, when, verdict) })
		}
	}
	t.Run("timeout", func(t *testing.T) { runVoteLeafCase(t, sync, "timeout", telemetry.DigestVoteAbstain) })
	t.Run("follower-stage-agree", func(t *testing.T) {
		runVoteLeafCase(t, sync, "follower-stage-", telemetry.DigestVoteAgree)
	})
	t.Run("failover", func(t *testing.T) { runVoteLeafCase(t, sync, "failover", telemetry.DigestVoteAbstain) })
}

func runVoteLeafCase(t *testing.T, sync bool, when, verdict string) {
	reg := telemetry.NewRegistry()
	rec := transcript.NewRecorder(transcript.Config{SampleEvery: -1, Metrics: telemetry.NewRegistry()})
	defer rec.Close()
	a, b := newFake("a"), newFake("b")
	vote := voteTimeout
	if when == "timeout" {
		vote = 50 * time.Millisecond
	}
	r, err := newRouter(RouterConfig{
		Replicas: []Replica{a, b}, Verify: 1, Sync: sync, Metrics: reg, Transcript: rec,
	}, vote, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	inputs := testInputs(5)
	id, err := r.Submit(inputs)
	if err != nil {
		t.Fatal(err)
	}
	lead, follow := leaderAndFollower(t, a, b)
	if fs := follow.lastSub(t); fs.tag != wire.TVerify || !fs.verify {
		t.Fatalf("follower got %+v, want retagged verify", fs)
	}
	outs := testOutputs(5)
	sum := check.DigestOf(outs)
	switch verdict {
	case telemetry.DigestVoteDissent:
		sum[0] ^= 0xff
	case telemetry.DigestVoteAbstain:
		sum = check.Digest{}
	}
	var stage, other check.Digest
	stage[0], other[0] = 0x5a, 0x6b
	if when == "follower-stage-" {
		follow.post(replicaEvent{vote: &wire.Digest{ID: id, Stage: 0, Sum: other}})
	}
	lead.post(replicaEvent{vote: &wire.Digest{ID: id, Stage: 0, Sum: stage}})
	digest := replicaEvent{vote: &wire.Digest{ID: id, Stage: -1, Sum: sum}}
	result := replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: outs}}
	server := lead
	var row monitor.BatchResult
	switch when {
	case "failover":
		// The old leader's stage-1 digest and its stage-0 one must both
		// leave with it: the leaf names the new leader and holds its one.
		lead.post(replicaEvent{vote: &wire.Digest{ID: id, Stage: 1, Sum: stage}})
		lead.post(replicaEvent{down: errors.New("connection lost")})
		waitUntil(t, "failover resubmission", func() bool { return follow.subCount() == 2 })
		server, stage = follow, other
		follow.post(replicaEvent{vote: &wire.Digest{ID: id, Stage: 0, Sum: stage}})
		follow.post(result)
		row = readRow(t, r)
	case "early-":
		follow.post(digest)
		waitUntil(t, "follower digest handled", func() bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			pb := r.pending[id]
			return len(pb.earlyVotes) == 1 || len(pb.followers) == 0
		})
		lead.post(result)
		row = readRow(t, r)
	case "late-":
		lead.post(result)
		row = readRow(t, r)
		follow.post(digest)
	case "timeout":
		lead.post(result)
		row = readRow(t, r)
	default:
		lead.post(result)
		if sync {
			select {
			case row := <-r.Outputs():
				t.Fatalf("row %+v delivered before the follower's vote", row)
			case <-time.After(20 * time.Millisecond):
			}
		}
		follow.post(digest)
		row = readRow(t, r)
	}
	counters := func() (n [3]uint64) {
		for i, v := range voteLeafVerdicts {
			n[i] = reg.Counter(telemetry.MetricClusterDigestVotes, telemetry.L("verdict", v)).Value()
		}
		return n
	}
	waitUntil(t, "the vote", func() bool { n := counters(); return n[0]+n[1]+n[2] == 1 })
	// The leaf is posted under the router's lock with the vote; Close takes
	// that lock, and closing the recorder drains it, so Size is final here.
	r.Close()
	rec.Close()
	got := counters()
	for i, v := range voteLeafVerdicts {
		want := uint64(0)
		if v == verdict {
			want = 1
		}
		if got[i] != want {
			t.Fatalf("%s votes = %d, want %d", v, got[i], want)
		}
	}

	if verdict == telemetry.DigestVoteDissent && (sync || when == "early-") {
		if row.ID != id || !errors.Is(row.Err, ErrDivergence) {
			t.Fatalf("row = %+v, want id %d with ErrDivergence", row, id)
		}
		if rec.Size() != 0 {
			t.Fatalf("a diverged batch left %d leaves", rec.Size())
		}
		return
	}
	if row.ID != id || row.Err != nil || row.Tensors["y"].At(0, 0) != 10 {
		t.Fatalf("row = %+v, want the leader's output for id %d", row, id)
	}
	if rec.Size() != 1 {
		t.Fatalf("%d leaves, want 1", rec.Size())
	}
	leaf, _, err := rec.LeafAt(0)
	if err != nil {
		t.Fatal(err)
	}
	var tally [3]uint64
	for _, v := range leaf.Votes {
		switch {
		case v.Agree:
			tally[voteAgree]++
		case v.Sum == check.Digest{}:
			tally[voteAbstain]++
		default:
			tally[voteDissent]++
		}
	}
	if tally != got {
		t.Fatalf("leaf votes %+v tally %v, counters %v", leaf.Votes, tally, got)
	}
	want := transcript.Vote{Replica: follow.id, Sum: sum, Agree: verdict == telemetry.DigestVoteAgree}
	if len(leaf.Votes) != 1 || leaf.Votes[0] != want {
		t.Fatalf("leaf votes = %+v, want [%+v]", leaf.Votes, want)
	}
	if leaf.Batch != id || leaf.Input != check.DigestOf(inputs) || leaf.Output != check.DigestOf(outs) ||
		leaf.Replica != server.id || len(leaf.Checkpoints) != 1 || leaf.Checkpoints[0] != stage {
		t.Fatalf("leaf = %+v, want batch %d served by %s with its input, output and stage digests", leaf, id, server.id)
	}
}

// TestRouterLeafSkipsOutOfRangeStage has a faulty replica report a stage
// index past the leaf format's bound: the leaf leaves that digest out
// rather than fail to encode and cost the batch its leaf.
func TestRouterLeafSkipsOutOfRangeStage(t *testing.T) {
	rec := transcript.NewRecorder(transcript.Config{SampleEvery: -1, Metrics: telemetry.NewRegistry()})
	defer rec.Close()
	f := newFake("a")
	r, err := NewRouter(RouterConfig{Replicas: []Replica{f}, Transcript: rec})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Submit(testInputs(4))
	if err != nil {
		t.Fatal(err)
	}
	f.lastSub(t)
	var stage check.Digest
	stage[0] = 0x5a
	f.post(replicaEvent{vote: &wire.Digest{ID: id, Stage: 0, Sum: stage}})
	f.post(replicaEvent{vote: &wire.Digest{ID: id, Stage: transcript.MaxLeafCheckpoints, Sum: stage}})
	f.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: testOutputs(4)}})
	readRow(t, r)
	r.Close()
	rec.Close()
	if rec.Size() != 1 {
		t.Fatalf("%d leaves, want 1 (dropped %d)", rec.Size(), rec.Dropped())
	}
	leaf, _, err := rec.LeafAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaf.Checkpoints) != 1 || leaf.Checkpoints[0] != stage {
		t.Fatalf("leaf checkpoints = %d digests, want only stage 0's", len(leaf.Checkpoints))
	}
}

// TestRouterCloseRecordsServedRow closes an async router while a served
// row's vote is outstanding: the row keeps its leaf, and the missing vote is
// recorded, and counted, as an abstention.
func TestRouterCloseRecordsServedRow(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := transcript.NewRecorder(transcript.Config{SampleEvery: -1, Metrics: telemetry.NewRegistry()})
	defer rec.Close()
	a, b := newFake("a"), newFake("b")
	r, err := NewRouter(RouterConfig{Replicas: []Replica{a, b}, Verify: 1, Metrics: reg, Transcript: rec})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Submit(testInputs(2))
	if err != nil {
		t.Fatal(err)
	}
	lead, follow := leaderAndFollower(t, a, b)
	lead.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: testOutputs(2)}})
	if row := readRow(t, r); row.ID != id || row.Err != nil {
		t.Fatalf("row = %+v, want clean id %d", row, id)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rec.Close()
	if n := reg.Counter(telemetry.MetricClusterDigestVotes, telemetry.L("verdict", telemetry.DigestVoteAbstain)).Value(); n != 1 {
		t.Fatalf("abstain votes = %d, want 1", n)
	}
	if rec.Size() != 1 {
		t.Fatalf("%d leaves after Close, want 1", rec.Size())
	}
	leaf, _, err := rec.LeafAt(0)
	if err != nil {
		t.Fatal(err)
	}
	want := transcript.Vote{Replica: follow.id}
	if leaf.Batch != id || len(leaf.Votes) != 1 || leaf.Votes[0] != want {
		t.Fatalf("leaf batch %d votes %+v, want batch %d with [%+v]", leaf.Batch, leaf.Votes, id, want)
	}
}

// TestRouterFailoverToFollowerAbstains pins the promoted follower's vote:
// when the leader goes down and failover places the batch on its only
// follower, that replica leads now, and the digest it still sends for its
// Verify copy must not count as agreement with its own result.
func TestRouterFailoverToFollowerAbstains(t *testing.T) {
	reg := telemetry.NewRegistry()
	a, b := newFake("a"), newFake("b")
	r, err := NewRouter(RouterConfig{Replicas: []Replica{a, b}, Verify: 1, Sync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	id, err := r.Submit(testInputs(3))
	if err != nil {
		t.Fatal(err)
	}
	lead, follow := leaderAndFollower(t, a, b)
	lead.post(replicaEvent{down: errors.New("connection lost")})
	waitUntil(t, "failover resubmission", func() bool { return follow.subCount() == 2 })
	if sub := follow.lastSub(t); sub.rid != id || sub.verify {
		t.Fatalf("failover submission = %+v, want primary rid %d", sub, id)
	}
	outs := testOutputs(3)
	follow.post(replicaEvent{vote: &wire.Digest{ID: id, Stage: -1, Sum: check.DigestOf(outs)}})
	follow.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: outs}})
	if row := readRow(t, r); row.ID != id || row.Err != nil {
		t.Fatalf("row = %+v, want clean id %d", row, id)
	}
	vote := func(v string) uint64 {
		return reg.Counter(telemetry.MetricClusterDigestVotes, telemetry.L("verdict", v)).Value()
	}
	if agree, abstain := vote(telemetry.DigestVoteAgree), vote(telemetry.DigestVoteAbstain); agree != 0 || abstain != 1 {
		t.Fatalf("votes: agree %d, abstain %d; want 0 and 1", agree, abstain)
	}
}

// leaderSendFails is a fakeReplica whose primary (leader) submissions fail
// at the send; Verify submissions go through.
type leaderSendFails struct{ *fakeReplica }

func (l leaderSendFails) submit(rid, trace uint64, enc []byte, inputs map[string]*tensor.Tensor, verify bool) (int, error) {
	if !verify {
		return 0, errors.New("send failed")
	}
	return l.fakeReplica.submit(rid, trace, enc, inputs, verify)
}

// TestRouterLeaderSendFailureDispatchesFollowers pins the fan-out when the
// leader send fails: the followers still get their Verify frames and are
// compared against the failover leader, so a synchronous row arrives with
// the votes, not at the vote timeout.
func TestRouterLeaderSendFailureDispatchesFollowers(t *testing.T) {
	const timeout = time.Second
	reg := telemetry.NewRegistry()
	ids := []string{"a", "b", "c"}
	fakes := make([]*fakeReplica, len(ids))
	reps := make([]Replica, len(ids))
	first := rendezvousOrder("default", ids)[0] // the first batch's leader
	for i, name := range ids {
		fakes[i] = newFake(name)
		reps[i] = fakes[i]
		if i == first {
			reps[i] = leaderSendFails{fakes[i]}
		}
	}
	r, err := newRouter(RouterConfig{Replicas: reps, Verify: 2, Sync: true, Metrics: reg}, timeout, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	id, err := r.Submit(testInputs(4))
	if err != nil {
		t.Fatal(err)
	}
	// Both followers get a Verify frame, and one of them the failover
	// resubmission as well.
	waitUntil(t, "verify frames and failover", func() bool {
		n := 0
		for _, f := range fakes {
			n += f.subCount()
		}
		return n == 3
	})
	outs := testOutputs(4)
	verified := 0
	for _, f := range fakes {
		f.mu.Lock()
		subs := append([]fakeSub(nil), f.subs...)
		f.mu.Unlock()
		for _, sub := range subs {
			if sub.tag == wire.TVerify {
				verified++
				f.post(replicaEvent{vote: &wire.Digest{ID: id, Stage: -1, Sum: check.DigestOf(outs)}})
			} else {
				f.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: outs}})
			}
		}
	}
	if verified != 2 {
		t.Fatalf("%d Verify frames sent, want 2", verified)
	}
	if row := readRow(t, r); row.ID != id || row.Err != nil {
		t.Fatalf("row = %+v, want clean id %d", row, id)
	}
	if took := time.Since(start); took > timeout/2 {
		t.Fatalf("row took %v, want well under the %v vote timeout", took, timeout)
	}
	// The follower promoted to leader abstains; the other agrees.
	for _, v := range []string{telemetry.DigestVoteAgree, telemetry.DigestVoteAbstain} {
		if n := reg.Counter(telemetry.MetricClusterDigestVotes, telemetry.L("verdict", v)).Value(); n != 1 {
			t.Fatalf("%s votes = %d, want 1", v, n)
		}
	}
}

// TestRouterTensorModeFollowerResultFirst pins the early-vote path: a
// tensor-mode follower's full result lands before the leader's, so the router
// must park its digest and compare once the leader's result fixes the
// reference — agreeing outputs deliver a clean row, dissenting ones fail the
// synchronous batch.
func TestRouterTensorModeFollowerResultFirst(t *testing.T) {
	for _, dissent := range []bool{false, true} {
		name := "agree"
		if dissent {
			name = "dissent"
		}
		t.Run(name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			a, b := newFake("a"), newFake("b")
			r, err := NewRouter(RouterConfig{
				Replicas: []Replica{a, b}, Verify: 1, Sync: true, Mode: TensorForward, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			id, err := r.Submit(testInputs(9))
			if err != nil {
				t.Fatal(err)
			}
			lead, follow := leaderAndFollower(t, a, b)
			outs, followOuts := testOutputs(9), testOutputs(9)
			if dissent {
				followOuts = testOutputs(10)
			}
			follow.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: followOuts}})
			// The follower's result must park, not resolve against a missing
			// reference: no vote is counted and no row is delivered yet.
			waitUntil(t, "follower result parked", func() bool {
				r.mu.Lock()
				defer r.mu.Unlock()
				return len(r.pending[id].earlyVotes) == 1
			})
			lead.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: outs}})
			row := readRow(t, r)
			verdict := telemetry.DigestVoteAgree
			if dissent {
				verdict = telemetry.DigestVoteDissent
				if row.ID != id || !errors.Is(row.Err, ErrDivergence) {
					t.Fatalf("row = %+v, want id %d with ErrDivergence", row, id)
				}
			} else if row.ID != id || row.Err != nil || row.Tensors["y"].At(0, 0) != 18 {
				t.Fatalf("row = %+v, want clean id %d y=18", row, id)
			}
			for _, v := range []string{telemetry.DigestVoteAgree, telemetry.DigestVoteDissent, telemetry.DigestVoteAbstain} {
				want := uint64(0)
				if v == verdict {
					want = 1
				}
				if n := reg.Counter(telemetry.MetricClusterDigestVotes, telemetry.L("verdict", v)).Value(); n != want {
					t.Fatalf("%s votes = %d, want %d", v, n, want)
				}
			}
		})
	}
}

func TestRouterFailoverPreservesBatchID(t *testing.T) {
	reg := telemetry.NewRegistry()
	a, b := newFake("a"), newFake("b")
	r, err := NewRouter(RouterConfig{Replicas: []Replica{a, b}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	id, err := r.Submit(testInputs(2))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "leader submission", func() bool { return a.subCount()+b.subCount() == 1 })
	lead, peer := a, b
	if b.subCount() == 1 {
		lead, peer = b, a
	}
	lead.post(replicaEvent{down: errors.New("connection lost")})
	waitUntil(t, "failover resubmission", func() bool { return peer.subCount() == 1 })
	if sub := peer.lastSub(t); sub.rid != id || sub.verify {
		t.Fatalf("failover submission = %+v, want primary rid %d", sub, id)
	}
	peer.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: testOutputs(2)}})
	row := readRow(t, r)
	if row.ID != id || row.Err != nil {
		t.Fatalf("row = %+v, want clean id %d after failover", row, id)
	}
	// The dead leader's late result must not produce a duplicate row.
	lead.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: testOutputs(2)}})
	select {
	case dup := <-r.Outputs():
		t.Fatalf("duplicate row after failover: %+v", dup)
	case <-time.After(50 * time.Millisecond):
	}
	if n := reg.Counter(telemetry.MetricClusterFailovers).Value(); n != 1 {
		t.Fatalf("failovers = %d, want 1", n)
	}
}

func TestRouterHaltedResultFailsOver(t *testing.T) {
	a, b := newFake("a"), newFake("b")
	r, err := NewRouter(RouterConfig{Replicas: []Replica{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	id, _ := r.Submit(testInputs(4))
	waitUntil(t, "leader submission", func() bool { return a.subCount()+b.subCount() == 1 })
	lead, peer := a, b
	if b.subCount() == 1 {
		lead, peer = b, a
	}
	// Health refresh first (ordered stream), then the failed result — the
	// router must re-place instead of delivering the error.
	lead.post(replicaEvent{status: &wire.ReplicaStatus{Ladder: []int{int(monitor.LadderHalted)}}})
	lead.post(replicaEvent{res: &monitor.BatchResult{ID: id, Err: errors.New("stage halted")}})
	waitUntil(t, "failover resubmission", func() bool { return peer.subCount() == 1 })
	peer.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: testOutputs(4)}})
	row := readRow(t, r)
	if row.ID != id || row.Err != nil {
		t.Fatalf("row = %+v, want clean failover of halted leader", row)
	}
}

func TestRouterNoHealthyReplica(t *testing.T) {
	f := newFake("a")
	r, err := NewRouter(RouterConfig{Replicas: []Replica{f}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	f.post(replicaEvent{status: &wire.ReplicaStatus{Ladder: []int{int(monitor.LadderHalted)}}})
	waitUntil(t, "halted status", func() bool {
		l := r.Ladder()
		return len(l) == 1 && l[0] == monitor.LadderHalted
	})
	if _, err := r.Submit(testInputs(1)); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("Submit = %v, want ErrNoHealthyReplica", err)
	}
}

func TestRouterVoteTimeoutAbstains(t *testing.T) {
	a, b := newFake("a"), newFake("b")
	r, err := newRouter(RouterConfig{Replicas: []Replica{a, b}, Verify: 1, Sync: true},
		50*time.Millisecond, metricsInterval)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	id, _ := r.Submit(testInputs(6))
	lead, _ := leaderAndFollower(t, a, b)
	lead.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: testOutputs(6)}})
	// The follower never votes; the sweeper must resolve it as abstention.
	row := readRow(t, r)
	if row.Err != nil || row.ID != id {
		t.Fatalf("row = %+v, want timeout abstention delivery", row)
	}
}

func TestRouterTensorModeComparesFollowerResult(t *testing.T) {
	reg := telemetry.NewRegistry()
	a, b := newFake("a"), newFake("b")
	r, err := NewRouter(RouterConfig{
		Replicas: []Replica{a, b}, Verify: 1, Sync: true, Mode: TensorForward, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	id, _ := r.Submit(testInputs(8))
	waitUntil(t, "both submissions", func() bool { return a.subCount()+b.subCount() == 2 })
	if a.lastSub(t).tag != wire.TBatch || b.lastSub(t).tag != wire.TBatch {
		t.Fatalf("tensor mode must ship TBatch to both roles, got %v/%v",
			a.lastSub(t).tag, b.lastSub(t).tag)
	}
	// Both roles received TBatch and return full results. The router resolves
	// leader vs follower by replica index, so posting identical outputs from
	// both works in either placement: the leader's stands as the row, the
	// follower's is digested router-side into an agree vote.
	outs := testOutputs(8)
	a.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: outs}})
	b.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: outs}})
	row := readRow(t, r)
	if row.Err != nil || row.ID != id {
		t.Fatalf("row = %+v, want clean tensor-mode agreement", row)
	}
	agree := reg.Counter(telemetry.MetricClusterDigestVotes,
		telemetry.L("verdict", telemetry.DigestVoteAgree)).Value()
	if agree != 1 {
		t.Fatalf("agree votes = %d, want 1", agree)
	}
	// The follower's full result crossed the (fake) wire: result-plane bytes
	// in tensor mode are what DigestForward eliminates.
}

func TestRouterFansInflightWindow(t *testing.T) {
	a, b := newFake("a"), newFake("b")
	r, err := NewRouter(RouterConfig{Replicas: []Replica{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetInflightWindow(13)
	if a.InflightWindow() != 13 || b.InflightWindow() != 13 {
		t.Fatalf("windows = %d,%d, want 13,13", a.InflightWindow(), b.InflightWindow())
	}
	if r.InflightWindow() != 13 {
		t.Fatalf("router window = %d, want 13", r.InflightWindow())
	}
}

func TestRendezvousOrderDeterministicPermutation(t *testing.T) {
	ids := []string{"alpha", "beta", "gamma", "delta"}
	o1 := rendezvousOrder("model-a", ids)
	o2 := rendezvousOrder("model-a", ids)
	if len(o1) != len(ids) {
		t.Fatalf("order length %d, want %d", len(o1), len(ids))
	}
	seen := make(map[int]bool)
	for i, v := range o1 {
		if o2[i] != v {
			t.Fatalf("order not deterministic: %v vs %v", o1, o2)
		}
		if v < 0 || v >= len(ids) || seen[v] {
			t.Fatalf("order %v is not a permutation", o1)
		}
		seen[v] = true
	}
	// Different keys should (for these inputs) shuffle the preference —
	// guards against hashing that ignores the key.
	if o3 := rendezvousOrder("model-b", ids); equalInts(o1, o3) {
		t.Logf("warning: distinct keys produced identical order %v", o1)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
