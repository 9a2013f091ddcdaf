package transcript

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/check"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config sizes a Recorder.
type Config struct {
	// Signer produces the attestation reports on tree heads (the monitor
	// enclave in-process, the router's identity enclave in cluster mode).
	// Nil leaves heads unsigned — VerifyHead rejects them, so production
	// deployments must set it.
	Signer attest.Attester
	// Model is the sealed model measurement digest chained into every head.
	Model Hash
	// Bindings returns the live §4.3 binding-log digest at head-signing
	// time (the log is append-only but grows on spare promotion). Nil means
	// all-zero.
	Bindings func() Hash
	// HeadEvery signs a fresh tree head every N appended leaves. Zero means
	// 32.
	HeadEvery int
	// SampleEvery retains every Nth leaf's input tensors for offline
	// replay. Zero means 16; negative disables sampling.
	SampleEvery int
	// Metrics receives the transcript series; nil uses telemetry.Default.
	Metrics *telemetry.Registry
}

const (
	// batchBuffer is the channel capacity between the posting callers and
	// the transcript worker, in finished batches.
	batchBuffer = 1024
	// sampleRing bounds retained replay samples.
	sampleRing = 8
)

// Sample is one retained replay candidate: a leaf plus the input tensors
// that produced it, served to auditors who replay the batch locally.
type Sample struct {
	Index  uint64
	Leaf   Leaf
	Inputs map[string]*tensor.Tensor
}

// Batch is one finished batch as its caller holds it at delivery: the whole
// of what its leaf binds. The recorder keeps references, never copies, so
// none of the maps or slices may be mutated after Record.
type Batch struct {
	Trace uint64
	ID    uint64
	// Inputs and Outputs are hashed by the worker.
	Inputs  map[string]*tensor.Tensor
	Outputs map[string]*tensor.Tensor
	// Checkpoints holds one entry per stage, in stage order.
	Checkpoints []Checkpoint
	Votes       []Vote
	// Rung is the worst ladder rung at delivery; Replica the serving
	// replica ("" in process).
	Rung    uint8
	Replica string
}

// Checkpoint is one stage's forwarded output. A caller that already
// digested it sets Digest; otherwise the worker hashes Tensors.
type Checkpoint struct {
	Digest  check.Digest
	Tensors map[string]*tensor.Tensor
}

// Recorder is the serving-tier end of the transcript. Each caller (the
// engine at delivery, the cluster router once a served batch's votes have
// resolved) hands it one finished Batch per leaf through a bounded channel
// and never blocks — the same discipline as the event bus — while a single
// worker goroutine hashes tensors, appends leaves to the Merkle log and
// periodically signs tree heads. A full channel drops the whole batch and
// counts it, so backpressure leaves an auditable batch-ID gap, never a
// partial leaf. All methods are nil-receiver-safe.
type Recorder struct {
	cfg Config

	ch   chan Batch
	done chan struct{}
	// closeMu orders Record against Close: Record sends under the read
	// lock, Close closes ch under the write lock, so no send reaches a
	// closed channel.
	closeMu sync.RWMutex
	closed  bool
	dropped atomic.Uint64

	// log and leaves are appended only by the worker. Readers — proofs,
	// leaf and trace lookups — work from their published snapshots and
	// never take mu.
	log      *Log
	leaves   segStore // encoded leaves, aligned with log indices
	leafView atomic.Pointer[segView]
	// traces holds leaf i's trace ID at slot i%traceWindow, for the newest
	// traceWindow leaves, in chunks allocated as the log first reaches them.
	traces [traceWindow / traceChunk]atomic.Pointer[[traceChunk]atomic.Uint64]

	// mu guards the published head and the sample ring.
	mu      sync.Mutex
	head    SignedHead
	hasHead bool
	samples []Sample
	nextSmp uint64 // leaf index at which the next sample is taken

	mLeaves  *telemetry.Counter
	mDropped *telemetry.Counter
	mHeads   *telemetry.Counter
}

// NewRecorder starts a recorder's worker goroutine. Close releases it.
func NewRecorder(cfg Config) *Recorder {
	return newRecorder(cfg, batchBuffer)
}

// newRecorder is NewRecorder with the channel capacity as a parameter, so
// tests can make drops and close races likelier or rarer.
func newRecorder(cfg Config, buffer int) *Recorder {
	if cfg.HeadEvery <= 0 {
		cfg.HeadEvery = 32
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 16
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.Default
	}
	r := &Recorder{
		cfg:      cfg,
		ch:       make(chan Batch, buffer),
		done:     make(chan struct{}),
		log:      NewLog(),
		mLeaves:  reg.Counter(telemetry.MetricTranscriptLeaves),
		mDropped: reg.Counter(telemetry.MetricTranscriptDropped),
		mHeads:   reg.Counter(telemetry.MetricTranscriptHeads),
	}
	r.leaves = newSegStore("leaf", r.log.spillFile)
	r.leafView.Store(new(segView))
	go r.worker()
	return r
}

// Close stops the worker after draining queued batches.
// Records racing Close are either queued before it or discarded.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.closeMu.Lock()
	if r.closed {
		r.closeMu.Unlock()
		return
	}
	r.closed = true
	close(r.ch)
	r.closeMu.Unlock()
	<-r.done
	_ = r.log.Close()
}

// Record enqueues one finished batch for its leaf without ever blocking the
// caller. Failed batches are not recorded: their absence is an auditable
// batch-ID gap.
func (r *Recorder) Record(b Batch) {
	if r == nil {
		return
	}
	r.closeMu.RLock()
	if !r.closed {
		select {
		case r.ch <- b:
		default:
			r.drop()
		}
	}
	r.closeMu.RUnlock()
}

// Dropped returns cumulative batches that got no leaf: lost to a full
// channel, an unencodable leaf or failed storage.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

func (r *Recorder) worker() {
	defer close(r.done)
	for b := range r.ch {
		leaf := Leaf{
			Trace:       b.Trace,
			Batch:       b.ID,
			Checkpoints: make([]check.Digest, len(b.Checkpoints)),
			Votes:       b.Votes,
			Rung:        b.Rung,
			Replica:     b.Replica,
		}
		for i, c := range b.Checkpoints {
			leaf.Checkpoints[i] = c.Digest
			if c.Digest == (check.Digest{}) && c.Tensors != nil {
				leaf.Checkpoints[i] = check.DigestOf(c.Tensors)
			}
		}
		if b.Inputs != nil {
			leaf.Input = check.DigestOf(b.Inputs)
		}
		if b.Outputs != nil {
			leaf.Output = check.DigestOf(b.Outputs)
		}
		r.append(leaf, b.Inputs)
	}
}

// append encodes the leaf, extends the tree, samples and signs heads. Once
// storage has failed, every leaf is dropped.
func (r *Recorder) append(leaf Leaf, inputs map[string]*tensor.Tensor) {
	enc, err := leaf.Marshal()
	if err != nil || r.Err() != nil {
		// Oversized leaf (pathological replica IDs) or failed storage.
		r.drop()
		return
	}
	idx := r.log.Size()
	r.setTrace(idx, leaf.Trace)
	err = r.leaves.append(enc)
	v := r.leaves.view()
	r.leafView.Store(&v)
	if err == nil {
		_, err = r.log.Append(LeafHash(enc))
	}
	if err != nil {
		r.drop()
		return
	}
	size := idx + 1
	r.mu.Lock()
	if r.cfg.SampleEvery > 0 && idx == r.nextSmp && inputs != nil {
		r.samples = append(r.samples, Sample{Index: idx, Leaf: leaf, Inputs: inputs})
		if len(r.samples) > sampleRing {
			r.samples = r.samples[1:]
		}
		r.nextSmp = idx + uint64(r.cfg.SampleEvery)
	} else if r.cfg.SampleEvery > 0 && idx >= r.nextSmp {
		// The scheduled leaf had no retained inputs; slide the schedule.
		r.nextSmp = idx + 1
	}
	if size%uint64(r.cfg.HeadEvery) == 0 {
		r.signLocked(size, r.log.Root())
	}
	r.mu.Unlock()
	r.mLeaves.Inc()
}

func (r *Recorder) drop() {
	r.dropped.Add(1)
	r.mDropped.Inc()
}

// signLocked publishes a head over the tree of the given size and root.
// Caller holds r.mu.
func (r *Recorder) signLocked(size uint64, root Hash) {
	h := TreeHead{
		Size:   size,
		Root:   root,
		Model:  r.cfg.Model,
		TimeNs: time.Now().UnixNano(),
	}
	if r.cfg.Bindings != nil {
		h.Bindings = r.cfg.Bindings()
	}
	if r.cfg.Signer == nil {
		r.head, r.hasHead = SignedHead{Head: h}, true
		return
	}
	sh, err := SignHead(r.cfg.Signer, h)
	if err != nil {
		// Keep the previous head; the next append retries.
		return
	}
	r.head, r.hasHead = sh, true
	r.mHeads.Inc()
}

// ErrEmpty reports an audit request against a log with nothing published.
var ErrEmpty = errors.New("transcript: empty log")

// SignedHead returns the latest published head. With fresh true (or when no
// head has been signed yet) it first signs one over the current tree, so
// auditors can always obtain a head covering everything delivered so far.
func (r *Recorder) SignedHead(fresh bool) (SignedHead, error) {
	if r == nil {
		return SignedHead{}, ErrEmpty
	}
	size := r.log.Size()
	r.mu.Lock()
	defer r.mu.Unlock()
	// The worker may have signed a larger head since size was read; that
	// head is already as fresh as this call can make it.
	if !r.hasHead || r.head.Head.Size < size || (fresh && r.head.Head.Size == size) {
		root, err := r.log.RootAt(size)
		if err != nil {
			return SignedHead{}, err
		}
		r.signLocked(size, root)
	}
	if !r.hasHead {
		return SignedHead{}, ErrEmpty
	}
	return r.head, nil
}

// Size returns the number of appended leaves.
func (r *Recorder) Size() uint64 {
	if r == nil {
		return 0
	}
	return r.log.Size()
}

// Err returns the sticky storage error that stopped the log, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	if err := r.log.Err(); err != nil {
		return err
	}
	return r.leafView.Load().err
}

// traceWindow is how many of the newest leaves ?trace= lookups cover: one
// 8-byte trace ID per leaf, in a ring indexed by leaf index and allocated in
// traceChunk pieces.
const (
	traceWindow = 1 << 16
	traceChunk  = 1 << 12
)

// setTrace records leaf idx's trace ID (worker only).
func (r *Recorder) setTrace(idx, trace uint64) {
	slot := idx % traceWindow
	c := &r.traces[slot/traceChunk]
	p := c.Load()
	if p == nil {
		p = new([traceChunk]atomic.Uint64)
		c.Store(p)
	}
	p[slot%traceChunk].Store(trace)
}

// traceAt returns the trace ID recorded in leaf idx's slot.
func (r *Recorder) traceAt(idx uint64) uint64 {
	slot := idx % traceWindow
	if p := r.traces[slot/traceChunk].Load(); p != nil {
		return p[slot%traceChunk].Load()
	}
	return 0
}

// LeafByTrace returns the encoded and decoded leaf most recently appended
// under the trace ID, among the newest traceWindow leaves, and its index.
func (r *Recorder) LeafByTrace(trace uint64) (Leaf, []byte, uint64, error) {
	if r == nil {
		return Leaf{}, nil, 0, ErrEmpty
	}
	size := r.log.Size()
	if trace != 0 {
		for i := size; i > 0 && size-i < traceWindow; i-- {
			if r.traceAt(i-1) != trace {
				continue
			}
			// The slot may have been reused since size was read; the
			// leaf itself is the authority.
			leaf, enc, err := r.LeafAt(i - 1)
			if err != nil {
				return Leaf{}, nil, 0, err
			}
			if leaf.Trace == trace {
				return leaf, enc, i - 1, nil
			}
		}
	}
	return Leaf{}, nil, 0, fmt.Errorf("transcript: no leaf for trace %016x among the newest %d", trace, traceWindow)
}

// LeafAt returns the encoded and decoded leaf at index, read from memory or
// from its sealed segment.
func (r *Recorder) LeafAt(idx uint64) (Leaf, []byte, error) {
	if r == nil {
		return Leaf{}, nil, ErrEmpty
	}
	if size := r.log.Size(); idx >= size {
		return Leaf{}, nil, fmt.Errorf("transcript: leaf %d out of range (size %d)", idx, size)
	}
	items, err := r.leafView.Load().items([]uint64{idx})
	if err != nil {
		return Leaf{}, nil, err
	}
	enc := append([]byte(nil), items[0]...)
	leaf, err := UnmarshalLeaf(enc)
	if err != nil {
		return Leaf{}, nil, fmt.Errorf("%w: leaf %d: %v", ErrStorage, idx, err)
	}
	return *leaf, enc, nil
}

// InclusionProof proves leaf index under the tree of the given size.
func (r *Recorder) InclusionProof(index, size uint64) (*Proof, error) {
	if r == nil {
		return nil, ErrEmpty
	}
	return r.log.InclusionProof(index, size)
}

// ConsistencyProof proves the size-m tree is a prefix of the size-n tree.
func (r *Recorder) ConsistencyProof(m, n uint64) (*Proof, error) {
	if r == nil {
		return nil, ErrEmpty
	}
	return r.log.ConsistencyProof(m, n)
}

// Sample returns the newest retained replay sample at or below maxIndex
// (exclusive), i.e. one already covered by a published head of that size.
func (r *Recorder) Sample(maxSize uint64) (Sample, bool) {
	if r == nil {
		return Sample{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.samples) - 1; i >= 0; i-- {
		if r.samples[i].Index < maxSize {
			return r.samples[i], true
		}
	}
	return Sample{}, false
}
