package core

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// pipeBudget bounds the bytes queued in one direction of an in-process
// channel before Write blocks. It holds a MaxInFlight window of stage
// frames at the batch sizes served (a single-image resnet-50 boundary
// tensor is at most 3.2 MB), so a stage worker hands a batch to a busy
// variant and moves on instead of waiting for that variant to read. A
// frame larger than the budget is still accepted into an empty queue.
const pipeBudget = 64 << 20

// bufferedPipe returns the two ends of an in-memory, full-duplex
// connection. It replaces net.Pipe for in-process variants: net.Pipe's
// Write waits until the peer reads, so one variant still computing stalls
// the stage worker sending to it, and with it every other variant's result
// and the stage timeout. Here Write copies into the peer's queue and
// returns; it blocks only while the queue already holds pipeBudget bytes.
//
// Close and deadlines keep net.Pipe's meaning: operations on a closed end
// fail with io.ErrClosedPipe, writes to a closed peer fail too, reads see
// what the peer wrote before closing and then io.EOF, and an expired
// deadline fails the operation with os.ErrDeadlineExceeded.
func bufferedPipe() (net.Conn, net.Conn) {
	ab, ba := newPipeQueue(), newPipeQueue()
	a := &pipeConn{rx: ba, tx: ab, done: make(chan struct{})}
	b := &pipeConn{rx: ab, tx: ba, done: make(chan struct{})}
	return a, b
}

// pipeQueue is one direction: bytes written by one end, read by the other.
// readable and writable each hold at most one wake-up token; a waiter that
// takes one re-checks the queue under mu, so a stale token costs a loop,
// never a lost wake-up.
type pipeQueue struct {
	mu       sync.Mutex
	bufs     [][]byte
	n        int  // bytes queued
	wclosed  bool // the writing end closed: drain, then EOF
	rclosed  bool // the reading end closed: writes fail
	readable chan struct{}
	writable chan struct{}
}

func newPipeQueue() *pipeQueue {
	return &pipeQueue{readable: make(chan struct{}, 1), writable: make(chan struct{}, 1)}
}

// signal leaves a wake-up token on ch unless one is already there.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

type pipeConn struct {
	rx, tx *pipeQueue

	closeOnce sync.Once
	done      chan struct{} // closed by Close

	// Deadlines in Unix nanoseconds; zero means none.
	readDeadline  atomic.Int64
	writeDeadline atomic.Int64
}

// wait blocks until a token arrives on ch, c closes or the deadline passes.
func (c *pipeConn) wait(ch <-chan struct{}, deadline int64) error {
	var expired <-chan time.Time
	if deadline != 0 {
		d := time.Until(time.Unix(0, deadline))
		if d <= 0 {
			return os.ErrDeadlineExceeded
		}
		t := time.NewTimer(d)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-ch:
		return nil
	case <-c.done:
		return io.ErrClosedPipe
	case <-expired:
		return os.ErrDeadlineExceeded
	}
}

// expired reports whether deadline is set and has passed.
func expired(deadline int64) bool {
	return deadline != 0 && time.Now().UnixNano() >= deadline
}

func (c *pipeConn) Read(b []byte) (int, error) {
	q := c.rx
	for {
		dl := c.readDeadline.Load()
		q.mu.Lock()
		switch {
		case isClosed(c.done):
			q.mu.Unlock()
			return 0, io.ErrClosedPipe
		case expired(dl):
			q.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		case q.n > 0:
			n := 0
			for n < len(b) && len(q.bufs) > 0 {
				k := copy(b[n:], q.bufs[0])
				n += k
				if k == len(q.bufs[0]) {
					q.bufs[0] = nil
					q.bufs = q.bufs[1:]
				} else {
					q.bufs[0] = q.bufs[0][k:]
				}
			}
			q.n -= n
			if q.n > 0 {
				signal(q.readable)
			}
			q.mu.Unlock()
			signal(q.writable)
			return n, nil
		case q.wclosed:
			q.mu.Unlock()
			return 0, io.EOF
		}
		q.mu.Unlock()
		if err := c.wait(q.readable, dl); err != nil {
			return 0, err
		}
	}
}

func (c *pipeConn) Write(b []byte) (int, error) {
	q := c.tx
	for {
		dl := c.writeDeadline.Load()
		q.mu.Lock()
		switch {
		case isClosed(c.done), q.rclosed:
			q.mu.Unlock()
			return 0, io.ErrClosedPipe
		case expired(dl):
			q.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		case q.n == 0 || q.n+len(b) <= pipeBudget:
			if len(b) > 0 {
				q.bufs = append(q.bufs, append([]byte(nil), b...))
				q.n += len(b)
			}
			room := q.n < pipeBudget
			q.mu.Unlock()
			signal(q.readable)
			if room {
				signal(q.writable)
			}
			return len(b), nil
		}
		q.mu.Unlock()
		if err := c.wait(q.writable, dl); err != nil {
			return 0, err
		}
	}
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Close fails this end's pending and future operations, lets the peer read
// what was already written and then see io.EOF, and fails the peer's
// writes. Data queued for this end is dropped.
func (c *pipeConn) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		c.tx.mu.Lock()
		c.tx.wclosed = true
		c.tx.mu.Unlock()
		signal(c.tx.readable)
		c.rx.mu.Lock()
		c.rx.rclosed = true
		c.rx.bufs, c.rx.n = nil, 0
		c.rx.mu.Unlock()
		signal(c.rx.writable)
	})
	return nil
}

func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func (c *pipeConn) SetDeadline(t time.Time) error {
	_ = c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// SetReadDeadline sets the read deadline; a changed deadline wakes a
// waiting Read so it takes effect at once.
func (c *pipeConn) SetReadDeadline(t time.Time) error {
	if c.readDeadline.Swap(unixNano(t)) != unixNano(t) {
		signal(c.rx.readable)
	}
	return nil
}

// SetWriteDeadline sets the write deadline; a changed deadline wakes a
// waiting Write so it takes effect at once.
func (c *pipeConn) SetWriteDeadline(t time.Time) error {
	if c.writeDeadline.Swap(unixNano(t)) != unixNano(t) {
		signal(c.tx.writable)
	}
	return nil
}

func (c *pipeConn) LocalAddr() net.Addr  { return pipeAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
