package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/securechan"
	"repro/internal/wire"
)

// replicaSession is one router connection to a ReplicaServer, with the
// server exposed so tests can inspect its batch registry.
type replicaSession struct {
	srv    *ReplicaServer
	router *Router
	done   chan struct{} // closed when srv.Run returns
}

// TestReplicaSessionDropsPreviousSessionResults pins the reconnect path:
// every accepted router connection gets a fresh ReplicaServer on the same
// engine, so batches a dropped router left in the engine complete into the
// next session's output pump. They belong to nobody there and must be
// dropped — not delivered under a colliding router ID, and not retained.
func TestReplicaSessionDropsPreviousSessionResults(t *testing.T) {
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	eng := newEngineOf(t, e2eVariant{hold: hold}, nil)
	t.Cleanup(release) // before eng.Stop: parked variants must drain

	session := func() *replicaSession {
		routerC, replicaC := net.Pipe()
		s := &replicaSession{done: make(chan struct{})}
		ready := make(chan struct{})
		go func() {
			defer close(s.done)
			conn, err := securechan.Server(replicaC, nil, nil)
			if err != nil {
				close(ready)
				return
			}
			s.srv = NewReplicaServer(conn, eng, ReplicaServerOptions{
				Hello: wire.ReplicaHello{ID: "replica", Variants: 3,
					GraphInputs: []string{"x"}, GraphOutputs: []string{"y"}},
			})
			close(ready)
			_ = s.srv.Run()
		}()
		cc, err := securechan.Client(routerC, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		<-ready
		rem, err := NewRemote(cc)
		if err != nil {
			t.Fatal(err)
		}
		s.router, err = newRouter(RouterConfig{Replicas: []Replica{rem}}, voteTimeout, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.router.Close() })
		return s
	}
	pending := func(s *ReplicaServer) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pend)
	}

	// Session 1 fills the engine (MaxInFlight 2) with parked batches, then
	// its router drops with both still in flight.
	s1 := session()
	const stale = 2
	for i := 0; i < stale; i++ {
		if _, err := s1.router.Submit(testInputs(float32(1000 + i))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "session 1 batches in the engine", func() bool { return pending(s1.srv) == stale })
	_ = s1.router.Close()
	select {
	case <-s1.done:
	case <-time.After(5 * time.Second):
		t.Fatal("session 1 did not end after its router closed")
	}
	if n := pending(s1.srv); n != stale {
		t.Fatalf("session 1 ended with %d batches in flight, want %d", n, stale)
	}

	// Session 2 starts on the same engine, then the parked batches complete
	// into its pump ahead of its own. Its router IDs restart at 1, so a
	// stale result delivered under its old router ID would land on one of
	// session 2's batches with the wrong value.
	s2 := session()
	release()
	const n = 8
	want := make(map[uint64]float32, n)
	for i := 0; i < n; i++ {
		v := float32(1 + i)
		id, err := s2.router.Submit(testInputs(v))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	for i := 0; i < n; i++ {
		row := readRow(t, s2.router)
		v, ok := want[row.ID]
		if !ok {
			t.Fatalf("foreign or duplicate row ID %d", row.ID)
		}
		delete(want, row.ID)
		if row.Err != nil {
			t.Fatalf("batch %d failed: %v", row.ID, row.Err)
		}
		if got := row.Tensors["y"].At(0, 0); got != 2*v {
			t.Fatalf("batch %d: y=%v want %v (a previous session's result)", row.ID, got, 2*v)
		}
	}
	select {
	case row := <-s2.router.Outputs():
		t.Fatalf("extra row %+v after all %d batches answered", row, n)
	case <-time.After(20 * time.Millisecond):
	}
	// The pump unregisters a batch before answering it, so every entry is
	// gone once every row is in.
	if n := pending(s2.srv); n != 0 {
		t.Fatalf("session 2 registry holds %d batches after drain, want 0", n)
	}
}
