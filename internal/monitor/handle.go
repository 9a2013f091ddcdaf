package monitor

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/enclave"
	"repro/internal/securechan"
	"repro/internal/wire"
)

// Handle is the monitor's connection to one bound variant TEE.
type Handle struct {
	id        string
	partition int
	spec      string
	conn      securechan.Conn
	report    *enclave.Report // from RA-TLS handshake (nil on plain channels)
	evidence  [32]byte        // second-stage manifest installation evidence

	mu      sync.Mutex
	dropped bool

	// The handle owns its connection reader so engines can be torn down
	// and rebuilt (variant updates) without disturbing live variants.
	readerOnce sync.Once
	results    chan handleResult
}

// NewHandle wraps a bound variant connection. The monitor package's Bind flow
// constructs these; tests may build them directly.
func NewHandle(id string, partition int, spec string, conn securechan.Conn) *Handle {
	return &Handle{id: id, partition: partition, spec: spec, conn: conn,
		results: make(chan handleResult, 64)}
}

// ID returns the variant identifier assigned at bootstrap.
func (h *Handle) ID() string { return h.id }

// Partition returns the pipeline stage index the variant serves.
func (h *Handle) Partition() int { return h.partition }

// Spec returns the pool spec name the variant was initialized from.
func (h *Handle) Spec() string { return h.spec }

// Report returns the attestation report bound to the channel, if any.
func (h *Handle) Report() *enclave.Report { return h.report }

// Evidence returns the second-stage manifest installation evidence.
func (h *Handle) Evidence() [32]byte { return h.evidence }

// Dropped reports whether the monitor excluded this variant after dissent.
func (h *Handle) Dropped() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

func (h *Handle) drop() {
	h.mu.Lock()
	h.dropped = true
	h.mu.Unlock()
}

// sendEncoded submits an already-marshalled batch payload to the variant —
// the encode-once fan-out path. The dispatcher marshals a batch exactly once
// and every live handle transmits the same payload; secure channels seal
// their own pooled frame from it, leaving the payload intact for the next
// handle.
func (h *Handle) sendEncoded(id uint64, payload []byte) error {
	if err := h.conn.Send(payload); err != nil {
		return fmt.Errorf("monitor: send batch %d to %s: %w", id, h.id, err)
	}
	return nil
}

// startReader launches the handle-owned reader goroutine (idempotent). It
// pumps results from the variant into the handle's buffered channel until
// the connection fails or closes, ending with a terminal error entry.
func (h *Handle) startReader() {
	h.readerOnce.Do(func() {
		go func() {
			for {
				msg, err := wire.Recv(h.conn)
				if err != nil {
					h.results <- handleResult{handle: h, err: err}
					return
				}
				switch m := msg.(type) {
				case *wire.Result:
					h.results <- handleResult{handle: h, res: m}
				case *wire.Error:
					h.results <- handleResult{handle: h, err: fmt.Errorf("monitor: variant %s: %s", h.id, m.Message)}
					return
				default:
					// Ignore stray control messages on the data plane.
				}
			}
		}()
	})
}

// shutdown asks the variant to terminate and closes the channel. The
// shutdown notice is a courtesy: a hung variant that isn't draining its
// channel must not stall teardown, so the send runs under a short IO
// deadline before the close that tears the transport down regardless.
func (h *Handle) shutdown() {
	h.conn.SetIOTimeout(500 * time.Millisecond)
	_ = wire.Send(h.conn, &wire.Shutdown{})
	_ = h.conn.Close()
}

// handleResult is one event from a variant: a checkpoint result or a
// connection-level failure.
type handleResult struct {
	handle *Handle
	res    *wire.Result
	err    error
}
