package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Remote is the router's handle to a replica engine in another process (or on
// another node), reached over a securechan connection whose far end runs a
// ReplicaServer. The connection carries both planes: input dispatch
// (Batch/Verify frames, encode-once fan-out) and verification (the
// replica's 45-byte Digest frames), plus the replica's health heartbeats and
// scoped controller knobs.
type Remote struct {
	conn  securechan.Conn
	hello wire.ReplicaHello

	idx    int
	events chan<- replicaEvent
	stop   chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	window int
}

// NewRemote completes replica registration on an established connection: it
// reads the replica's hello (sent by ReplicaServer.Run) and returns the
// handle. The caller keeps ownership of the connection's lifecycle via Close.
func NewRemote(conn securechan.Conn) (*Remote, error) {
	m, err := wire.Recv(conn)
	if err != nil {
		return nil, fmt.Errorf("cluster: replica hello: %w", err)
	}
	h, ok := m.(*wire.ReplicaHello)
	if !ok {
		return nil, fmt.Errorf("cluster: expected replica hello, got %T", m)
	}
	if h.ID == "" {
		return nil, errors.New("cluster: replica hello missing ID")
	}
	return &Remote{
		conn:   conn,
		hello:  *h,
		window: h.InflightWindow,
		stop:   make(chan struct{}),
	}, nil
}

func (r *Remote) ID() string               { return r.hello.ID }
func (r *Remote) Hello() wire.ReplicaHello { return r.hello }

// InflightWindow reports the router's last known window for the replica; the
// authoritative value lives in the remote engine.
func (r *Remote) InflightWindow() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.window
}

// SetInflightWindow retunes the remote engine's credit window over the wire.
// Delivery is best-effort: a send failure also fails the reader, which
// reports the replica down.
func (r *Remote) SetInflightWindow(n int) {
	r.mu.Lock()
	r.window = n
	r.mu.Unlock()
	_ = wire.Send(r.conn, &wire.ReplicaTune{InflightWindow: n})
}

// Close tears down the connection; the reader reports the replica down to the
// router, which fails its in-flight batches over to peers.
func (r *Remote) Close() error {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	err := r.conn.Close()
	r.wg.Wait()
	return err
}

func (r *Remote) attach(idx int, events chan<- replicaEvent) {
	r.idx, r.events = idx, events
	r.wg.Add(1)
	go r.reader()
}

func (r *Remote) post(ev replicaEvent) {
	ev.idx = r.idx
	select {
	case r.events <- ev:
	case <-r.stop:
	}
}

// reader demultiplexes the replica's upstream frames into router events.
// wireBytes carries the decoded payload size so the router's forward-bytes
// accounting reflects what actually crossed the connection.
func (r *Remote) reader() {
	defer r.wg.Done()
	for {
		m, err := wire.Recv(r.conn)
		if err != nil {
			select {
			case <-r.stop: // deliberate Close: not a failure
			default:
				r.post(replicaEvent{down: err})
			}
			return
		}
		switch v := m.(type) {
		case *wire.Result:
			br := monitor.BatchResult{ID: v.ID, Tensors: v.Tensors}
			if v.Err != "" {
				br.Err = errors.New(v.Err)
			}
			r.post(replicaEvent{res: &br, wireBytes: resultWireBytes(v)})
		case *wire.Digest:
			r.post(replicaEvent{vote: v, wireBytes: wire.DigestFrameLen})
		case *wire.ReplicaStatus:
			r.post(replicaEvent{status: v})
		case *wire.SpanReport:
			r.post(replicaEvent{spans: v, wireBytes: v.EncodedLen()})
		case *wire.MetricsReport:
			r.post(replicaEvent{metrics: v})
		case *wire.Error:
			r.post(replicaEvent{down: errors.New(v.Message)})
			return
		}
	}
}

// submit ships the router's shared encoding (already tagged for the role)
// and reports the payload bytes sent.
func (r *Remote) submit(rid, trace uint64, enc []byte, inputs map[string]*tensor.Tensor, verify bool) (int, error) {
	if enc == nil {
		// No shared encoding (a failover resubmission): encode just for this
		// send.
		var m wire.Msg = &wire.Batch{ID: rid, Trace: trace, Tensors: inputs}
		n := batchWireBytes(inputs)
		if verify {
			m = &wire.Verify{ID: rid, Trace: trace, Tensors: inputs}
		}
		return n, wire.Send(r.conn, m)
	}
	return len(enc), r.conn.Send(enc)
}

// pollMetrics requests the remote registry's snapshot; the reader posts the
// answer as a metrics event. Best-effort: a send failure fails the reader,
// which reports the replica down.
func (r *Remote) pollMetrics(seq uint64) {
	_ = wire.Send(r.conn, &wire.MetricsPoll{Seq: seq})
}

// resultWireBytes reconstructs the encoded payload size of a received Result.
func resultWireBytes(v *wire.Result) int {
	n := 1 + 8 + 8 + 2 + len(v.VariantID) + 2 + len(v.Err) + 4
	for name, t := range v.Tensors {
		n += 2 + len(name) + t.EncodedSize()
	}
	return n
}

// batchWireBytes is the encoded payload size of a Batch/Verify message.
func batchWireBytes(ts map[string]*tensor.Tensor) int {
	n := 1 + 8 + 8 + 2 + 2 + 4
	for name, t := range ts {
		n += 2 + len(name) + t.EncodedSize()
	}
	return n
}
