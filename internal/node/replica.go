package node

import (
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/wire"
)

// ReplicaListener serves a monitor's engine to cluster routers
// (mvtee-serve -replicas). Sessions are serial: the replica protocol
// dedicates the engine's output stream to the active router, so a second
// router waits for the first session to end, and a reconnecting router
// (front-end restart, transient link loss) gets a fresh session at once.
// The router side is unattested (it runs outside any TEE, like the model
// owner's machine); the monitor presents its own report so the router can
// pin the monitor measurement.
type ReplicaListener struct {
	ln net.Listener
	// active is the live session, which the engine's per-checkpoint digest
	// tap follows.
	active atomic.Pointer[cluster.ReplicaServer]
	wg     sync.WaitGroup

	mu     sync.Mutex
	conn   net.Conn // the live session's connection
	closed bool
}

// digestSink is the engine's DigestSink: it streams each checkpoint digest
// to the active session (the early-dissent signal).
func (r *ReplicaListener) digestSink(batchID uint64, stage int, d check.Digest) {
	if s := r.active.Load(); s != nil {
		s.StageDigestSink(batchID, stage, d)
	}
}

// listen binds addr and starts accepting routers; an empty hello ID becomes
// the bound address.
func (r *ReplicaListener) listen(addr string, eng *monitor.Engine, mon *monitor.Monitor, hello wire.ReplicaHello) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("replica listen: %w", err)
	}
	r.ln = ln
	if hello.ID == "" {
		hello.ID = ln.Addr().String()
	}
	r.wg.Add(1)
	go r.accept(eng, mon, hello)
	log.Printf("cluster replica %q on %s, awaiting router", hello.ID, ln.Addr())
	return nil
}

func (r *ReplicaListener) accept(eng *monitor.Engine, mon *monitor.Monitor, hello wire.ReplicaHello) {
	defer r.wg.Done()
	for {
		raw, err := r.ln.Accept()
		if err != nil {
			return
		}
		if !r.track(raw) {
			_ = raw.Close()
			return
		}
		noDelay(raw)
		err = r.session(raw, eng, mon, hello)
		r.track(nil)
		_ = raw.Close()
		if err != nil {
			log.Printf("replica session ended: %v", err)
		} else {
			log.Printf("replica session closed by router")
		}
	}
}

// session serves one router until its connection fails or it sends
// Shutdown.
func (r *ReplicaListener) session(raw net.Conn, eng *monitor.Engine, mon *monitor.Monitor, hello wire.ReplicaHello) error {
	conn, err := securechan.Server(raw, mon.Enclave(), nil)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	srv := cluster.NewReplicaServer(conn, eng, cluster.ReplicaServerOptions{
		Hello:  hello,
		Spares: mon.SpareCount,
	})
	r.active.Store(srv)
	defer r.active.Store(nil)
	return srv.Run()
}

// track records the live session's connection; it reports false once the
// listener is closed.
func (r *ReplicaListener) track(c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conn = c
	return true
}

// Addr is the bound replica address.
func (r *ReplicaListener) Addr() string { return r.ln.Addr().String() }

// Close stops accepting routers, closes the live session's connection and
// waits for the session to end. The engine keeps running.
func (r *ReplicaListener) Close() error {
	r.mu.Lock()
	r.closed = true
	c := r.conn
	r.mu.Unlock()
	err := r.ln.Close()
	if c != nil {
		_ = c.Close()
	}
	r.wg.Wait()
	return err
}
