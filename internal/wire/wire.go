// Package wire defines the message protocol spoken between the MVTEE monitor
// and variant TEEs over securechan connections: the control-plane messages of
// the variant initialization/update protocol (Figure 6) and the data-plane
// batch/checkpoint messages of pipelined inference (§4.3). Control messages
// are JSON (rare, small); data messages carry tensors in a compact binary
// codec (hot path).
//
// MarshalBuf is the one encoder: it writes a message once, straight into a
// pooled securechan.Buf. Send hands that buffer to Conn.SendBuf, which seals
// it in place; the fan-out sender encodes once (MarshalBatch) and passes
// the payload to Conn.Send on every connection. Recv decodes each
// message out of the connection's reused receive buffer before the next
// receive can overwrite it.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"repro/internal/securechan"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Type tags a wire message.
type Type byte

// Message types.
const (
	TProvision  Type = iota + 1 // owner -> monitor: MVX configuration
	TAssignKey                  // monitor -> init-variant: key + identity + file set
	TInstalled                  // init-variant -> monitor: installation evidence
	TBound                      // monitor -> variant: binding confirmed, begin serving
	TAttestReq                  // any -> enclave: challenge
	TAttestResp                 // enclave -> any: report
	TBatch                      // upstream -> variant: input tensors for one batch
	TResult                     // variant -> monitor: checkpoint outputs for one batch
	TUpdate                     // monitor -> variant: update command
	TShutdown                   // monitor -> variant: terminate
	TAck                        // generic success
	TError                      // generic failure carrying a message

	// Cluster tier (router <-> replica) messages.
	TVerify        // router -> follower replica: input tensors for a cross-check batch
	TDigest        // replica -> router: stage digest or follower vote (verification plane)
	TReplicaHello  // replica -> router: registration (model interface, variant set)
	TReplicaStatus // replica -> router: ladder/spare health heartbeat
	TReplicaTune   // router -> replica: controller knob scoped to one replica

	// Cluster observability plane (trace + metrics federation).
	TSpanReport    // replica -> router: harvested spans for one batch
	TMetricsPoll   // router -> replica: registry snapshot request
	TMetricsReport // replica -> router: registry snapshot answering a poll
)

// Msg is a decoded wire message.
type Msg interface{ wireType() Type }

// Provision carries the MVX configuration from the model owner (step 3 of
// Figure 6). Config is an opaque JSON document interpreted by the monitor.
// Keys is the owner's pool key table (entry key -> variant-specific KDK); it
// only ever travels over the attested encrypted channel.
type Provision struct {
	Nonce  []byte            `json:"nonce"`
	Config json.RawMessage   `json:"config"`
	Keys   map[string][]byte `json:"keys,omitempty"`
}

// AssignKey distributes a variant-specific key and identity (step 5).
type AssignKey struct {
	VariantID  string   `json:"variant_id"`
	Partition  int      `json:"partition"`
	KDK        []byte   `json:"kdk"`
	ManifestPB []byte   `json:"manifest"` // encrypted second-stage manifest blob
	Files      []string `json:"files"`    // encrypted variant file paths
	Entrypoint string   `json:"entrypoint"`
}

// Installed reports successful second-stage installation with evidence
// (step 6).
type Installed struct {
	VariantID string   `json:"variant_id"`
	Evidence  [32]byte `json:"evidence"`
}

// Bound confirms monitor-side binding (step 7). Resume is the first batch ID
// the variant should expect: zero for initial binding, and the successor of
// the last dispatched batch when a spare is hot-replaced into a dead slot
// mid-run (§2.4 recover) — earlier batch IDs were served by the predecessor.
type Bound struct {
	VariantID string `json:"variant_id"`
	Resume    uint64 `json:"resume,omitempty"`
}

// AttestReq is a challenge for combined attestation.
type AttestReq struct {
	Nonce   []byte `json:"nonce"`
	Context string `json:"context"`
}

// AttestResp carries a serialized enclave report.
type AttestResp struct {
	Report []byte `json:"report"`
}

// Update carries a variant update command (full or partial, §4.3).
type Update struct {
	Kind      string          `json:"kind"` // "full" or "partial"
	VariantID string          `json:"variant_id,omitempty"`
	Config    json.RawMessage `json:"config,omitempty"`
}

// Shutdown terminates a variant.
type Shutdown struct{}

// Ack acknowledges success.
type Ack struct {
	Detail string `json:"detail,omitempty"`
}

// Error reports failure.
type Error struct {
	Message string `json:"message"`
}

// Batch is one inference batch's named input tensors. Trace is the
// batch-scoped telemetry trace ID minted by the monitor at submit; zero means
// tracing is off for this batch. Variants echo it back in their Result so
// monitor- and variant-side spans stitch into one timeline.
type Batch struct {
	ID      uint64
	Trace   uint64
	Tensors map[string]*tensor.Tensor
}

// Result is one variant's checkpoint output for a batch. Err is non-empty
// when the variant crashed or its kernel failed (the MVX monitor treats that
// as dissent). Trace echoes the Batch's trace ID.
type Result struct {
	ID        uint64
	Trace     uint64
	VariantID string
	Err       string
	Tensors   map[string]*tensor.Tensor
}

// Verify is a cross-check batch on the cluster verification plane: the
// follower replica executes it like a Batch but answers with a Digest vote
// instead of shipping its output tensors back — the dMVX-style selective
// result forwarding that keeps cross-node verification O(digest bytes). The
// binary layout is identical to Batch; only the type tag differs, so the
// router can encode a batch once and retag the shared payload per role.
type Verify struct {
	ID      uint64
	Trace   uint64
	Tensors map[string]*tensor.Tensor
}

// Digest is one message on the cluster verification plane, a fixed 45-byte
// frame a replica sends the router: the digest of one of its checkpoints for
// a batch. Stage is the checkpoint index, or -1 for the final graph outputs;
// a final-output Digest from a follower is its vote, which the router decides
// by comparing Sum with the leader's digest. A zero Sum abstains (the
// follower could not execute the batch).
type Digest struct {
	ID    uint64
	Stage int32 // checkpoint stage; -1 = final graph outputs (a follower's vote)
	Sum   [32]byte
}

// ReplicaHello registers a replica engine with the cluster router: its
// identity, variant fan-out, and the model interface the router's front door
// should validate requests against.
type ReplicaHello struct {
	ID           string           `json:"id"`
	Stages       int              `json:"stages"`
	Variants     int              `json:"variants"`
	GraphInputs  []string         `json:"graph_inputs,omitempty"`
	GraphOutputs []string         `json:"graph_outputs,omitempty"`
	ItemShapes   map[string][]int `json:"item_shapes,omitempty"`
	// InflightWindow seeds the router's view of the replica's per-stage
	// credit window until the controller retunes it with ReplicaTune.
	InflightWindow int `json:"inflight_window,omitempty"`
}

// ReplicaStatus is the replica health heartbeat: the engine's per-stage
// degradation ladder and spare pool size, sent on change so the router can
// shed a demoted replica's load to peers without polling.
type ReplicaStatus struct {
	Ladder []int `json:"ladder"`
	Spares int   `json:"spares"`
}

// ReplicaTune scopes a controller knob to one replica (the distributed
// analogue of Engine.SetInflightWindow).
type ReplicaTune struct {
	InflightWindow int `json:"inflight_window"`
}

// SpanReport ships one batch's replica-side spans back to the router,
// piggybacked on the replica connection right after the batch's result or
// vote — the trace-federation plane. ID is the router batch ID; Replica is
// the sender's hello identity, which the router stamps into each span's
// Replica field as it merges them into its own ring (the field is not
// encoded on the wire). The replica bounds spans per batch, so the frame
// stays compact.
type SpanReport struct {
	ID      uint64
	Replica string
	Spans   []telemetry.Span
}

// MetricsPoll requests a replica registry snapshot over the status channel
// (metrics federation: no extra HTTP surface on replicas). Seq matches a
// report to its poll cycle.
type MetricsPoll struct {
	Seq uint64 `json:"seq"`
}

// MetricsReport answers a MetricsPoll with the replica registry's snapshot.
// It rides the JSON control-message path: polls run on a seconds cadence, so
// compactness doesn't matter the way it does for the per-batch planes.
type MetricsReport struct {
	Seq    uint64                     `json:"seq"`
	Series []telemetry.MetricSnapshot `json:"series"`
}

func (*Provision) wireType() Type  { return TProvision }
func (*AssignKey) wireType() Type  { return TAssignKey }
func (*Installed) wireType() Type  { return TInstalled }
func (*Bound) wireType() Type      { return TBound }
func (*AttestReq) wireType() Type  { return TAttestReq }
func (*AttestResp) wireType() Type { return TAttestResp }
func (*Batch) wireType() Type      { return TBatch }
func (*Result) wireType() Type     { return TResult }
func (*Update) wireType() Type     { return TUpdate }
func (*Shutdown) wireType() Type   { return TShutdown }
func (*Ack) wireType() Type        { return TAck }
func (*Error) wireType() Type      { return TError }

func (*Verify) wireType() Type        { return TVerify }
func (*Digest) wireType() Type        { return TDigest }
func (*ReplicaHello) wireType() Type  { return TReplicaHello }
func (*ReplicaStatus) wireType() Type { return TReplicaStatus }
func (*ReplicaTune) wireType() Type   { return TReplicaTune }
func (*SpanReport) wireType() Type    { return TSpanReport }
func (*MetricsPoll) wireType() Type   { return TMetricsPoll }
func (*MetricsReport) wireType() Type { return TMetricsReport }

// ErrDecode reports a malformed wire message.
var ErrDecode = errors.New("wire: malformed message")

// Unmarshal decodes a tagged wire message.
func Unmarshal(b []byte) (Msg, error) {
	if len(b) < 1 {
		return nil, ErrDecode
	}
	t, payload := Type(b[0]), b[1:]
	var m Msg
	switch t {
	case TProvision:
		m = &Provision{}
	case TAssignKey:
		m = &AssignKey{}
	case TInstalled:
		m = &Installed{}
	case TBound:
		m = &Bound{}
	case TAttestReq:
		m = &AttestReq{}
	case TAttestResp:
		m = &AttestResp{}
	case TUpdate:
		m = &Update{}
	case TShutdown:
		return &Shutdown{}, nil
	case TAck:
		m = &Ack{}
	case TError:
		m = &Error{}
	case TReplicaHello:
		m = &ReplicaHello{}
	case TReplicaStatus:
		m = &ReplicaStatus{}
	case TReplicaTune:
		m = &ReplicaTune{}
	case TMetricsPoll:
		m = &MetricsPoll{}
	case TMetricsReport:
		m = &MetricsReport{}
	case TDigest:
		return decodeDigestMsg(payload)
	case TSpanReport:
		return decodeSpanReportMsg(payload)
	case TBatch:
		id, trace, _, _, ts, err := unmarshalTensorMsg(payload)
		if err != nil {
			return nil, err
		}
		return &Batch{ID: id, Trace: trace, Tensors: ts}, nil
	case TVerify:
		id, trace, _, _, ts, err := unmarshalTensorMsg(payload)
		if err != nil {
			return nil, err
		}
		return &Verify{ID: id, Trace: trace, Tensors: ts}, nil
	case TResult:
		id, trace, vid, errStr, ts, err := unmarshalTensorMsg(payload)
		if err != nil {
			return nil, err
		}
		return &Result{ID: id, Trace: trace, VariantID: vid, Err: errStr, Tensors: ts}, nil
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrDecode, t)
	}
	if err := json.Unmarshal(payload, m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return m, nil
}

// MarshalBuf encodes m with its type tag, once, into a pooled frame buffer
// with framing headroom and AEAD tailroom already reserved, so a channel can
// seal and transmit the payload without any further copy. The buffer is
// consumed by SendBuf, or must be released with Free (copy Payload first to
// keep the bytes). Tensor names are encoded in sorted order so repeated
// marshals of the same message are byte-identical.
func MarshalBuf(m Msg) (*securechan.Buf, error) {
	switch v := m.(type) {
	case *Batch:
		return encodeTensorMsg(TBatch, v.ID, v.Trace, "", "", v.Tensors), nil
	case *Verify:
		return encodeTensorMsg(TVerify, v.ID, v.Trace, "", "", v.Tensors), nil
	case *Result:
		return encodeTensorMsg(TResult, v.ID, v.Trace, v.VariantID, v.Err, v.Tensors), nil
	case *Digest:
		buf := securechan.GetBuf(digestMsgLen)
		encodeDigestMsg(buf.Grow(digestMsgLen), v)
		return buf, nil
	case *SpanReport:
		n := v.EncodedLen()
		buf := securechan.GetBuf(n)
		encodeSpanReportMsg(buf.Grow(n), v)
		return buf, nil
	default:
		b, err := json.Marshal(m)
		if err != nil {
			return nil, fmt.Errorf("wire: marshal %T: %w", m, err)
		}
		buf := securechan.GetBuf(1 + len(b))
		dst := buf.Grow(1 + len(b))
		dst[0] = byte(m.wireType())
		copy(dst[1:], b)
		return buf, nil
	}
}

// --- cluster digest codec ----------------------------------------------------

// digestMsgLen is the fixed encoded size of a Digest message: type tag,
// batch ID, stage and the 32-byte digest. Digest frames are the entire
// steady-state cross-node verification cost of the cluster tier, so the
// codec is a fixed-layout binary write, not JSON.
const digestMsgLen = 1 + 8 + 4 + 32

// DigestFrameLen is the encoded payload size of every Digest message,
// exported so the cluster tier's byte accounting can charge digest-plane
// traffic without re-encoding.
const DigestFrameLen = digestMsgLen

func encodeDigestMsg(dst []byte, d *Digest) {
	dst[0] = byte(TDigest)
	binary.LittleEndian.PutUint64(dst[1:], d.ID)
	binary.LittleEndian.PutUint32(dst[9:], uint32(d.Stage))
	copy(dst[13:], d.Sum[:])
}

func decodeDigestMsg(payload []byte) (*Digest, error) {
	if len(payload) != digestMsgLen-1 {
		return nil, fmt.Errorf("%w: digest frame length %d", ErrDecode, len(payload))
	}
	d := &Digest{
		ID:    binary.LittleEndian.Uint64(payload),
		Stage: int32(binary.LittleEndian.Uint32(payload[8:])),
	}
	copy(d.Sum[:], payload[12:])
	return d, nil
}

// --- span report codec -------------------------------------------------------

// spanFixed is the per-span fixed portion: trace, batch, stage, start, end.
const spanFixed = 8 + 8 + 4 + 8 + 8

// spanMinLen is the smallest encoded span (empty name and variant strings) —
// the decoder's allocation guard against forged counts.
const spanMinLen = spanFixed + 2 + 2

// EncodedLen returns the binary payload size of the report, shared by the
// codec and the router's span-plane byte accounting (the receive side would
// otherwise have to re-encode just to charge bytes).
func (r *SpanReport) EncodedLen() int {
	n := 1 + 8 + 2 + len(r.Replica) + 2
	for i := range r.Spans {
		n += spanMinLen + len(r.Spans[i].Name) + len(r.Spans[i].Variant)
	}
	return n
}

// encodeSpanReportMsg writes the report into dst (sized by EncodedLen):
// tag, batch ID, replica string, span count, then per span the fixed fields
// and name/variant strings. Span.Replica is never encoded — the router stamps
// it from the report header on merge.
func encodeSpanReportMsg(dst []byte, r *SpanReport) {
	dst[0] = byte(TSpanReport)
	binary.LittleEndian.PutUint64(dst[1:], r.ID)
	off := 9
	off += putStrAt(dst[off:], r.Replica)
	binary.LittleEndian.PutUint16(dst[off:], uint16(len(r.Spans)))
	off += 2
	for i := range r.Spans {
		s := &r.Spans[i]
		binary.LittleEndian.PutUint64(dst[off:], s.Trace)
		binary.LittleEndian.PutUint64(dst[off+8:], s.Batch)
		binary.LittleEndian.PutUint32(dst[off+16:], uint32(int32(s.Stage)))
		binary.LittleEndian.PutUint64(dst[off+20:], uint64(s.Start))
		binary.LittleEndian.PutUint64(dst[off+28:], uint64(s.End))
		off += spanFixed
		off += putStrAt(dst[off:], s.Name)
		off += putStrAt(dst[off:], s.Variant)
	}
}

func decodeSpanReportMsg(payload []byte) (*SpanReport, error) {
	if len(payload) < 8+2+2 {
		return nil, fmt.Errorf("%w: span report header", ErrDecode)
	}
	r := &SpanReport{ID: binary.LittleEndian.Uint64(payload)}
	b := payload[8:]
	var err error
	if r.Replica, b, err = readStr(b); err != nil {
		return nil, err
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: span report count", ErrDecode)
	}
	count := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if count*spanMinLen > len(b) {
		return nil, fmt.Errorf("%w: span report truncated", ErrDecode)
	}
	r.Spans = make([]telemetry.Span, count)
	for i := 0; i < count; i++ {
		if len(b) < spanFixed {
			return nil, fmt.Errorf("%w: span %d", ErrDecode, i)
		}
		s := &r.Spans[i]
		s.Trace = binary.LittleEndian.Uint64(b)
		s.Batch = binary.LittleEndian.Uint64(b[8:])
		s.Stage = int(int32(binary.LittleEndian.Uint32(b[16:])))
		s.Start = int64(binary.LittleEndian.Uint64(b[20:]))
		s.End = int64(binary.LittleEndian.Uint64(b[28:]))
		b = b[spanFixed:]
		if s.Name, b, err = readStr(b); err != nil {
			return nil, err
		}
		if s.Variant, b, err = readStr(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: span report trailing bytes", ErrDecode)
	}
	return r, nil
}

// RetagVerify flips an encoded Batch payload (from MarshalBatch) into a
// Verify payload in place. The two messages share one binary layout, so the
// router encodes a batch exactly once, sends it to the leader as a TBatch
// (execute and return the result), then retags it for the follower fan-out
// (TVerify: execute and vote); Conn.Send seals its own copy per connection,
// leaving the payload intact.
func RetagVerify(payload []byte) { payload[0] = byte(TVerify) }

// MarshalBatch encodes b exactly once into a pooled buffer for encode-once
// fan-out: the monitor marshals the batch a single time, then transmits the
// same payload on every variant connection with Conn.Send (each secure
// channel seals its own copy into a pooled frame; the payload stays intact).
// The caller owns the buffer and must Free it after the last send.
func MarshalBatch(b *Batch) *securechan.Buf {
	return encodeTensorMsg(TBatch, b.ID, b.Trace, "", "", b.Tensors)
}

// Send marshals m into a pooled frame and transmits it with c.SendBuf, which
// seals in place: one allocation-free write on the warm path.
func Send(c securechan.Conn, m Msg) error {
	b, err := MarshalBuf(m)
	if err != nil {
		return err
	}
	return c.SendBuf(b)
}

// Recv receives and decodes one message from c. The frame lands in the
// connection's pooled receive buffer and is fully decoded before the next
// receive can reuse it: the returned Msg never aliases the frame.
func Recv(c securechan.Conn) (Msg, error) {
	b, err := c.Recv()
	if err != nil {
		return nil, err
	}
	return Unmarshal(b)
}

// --- binary tensor-message codec ---------------------------------------------

// encodeTensorMsg encodes a tensor message directly into a pooled frame
// buffer sized exactly for the payload. Tensor names are sorted so the
// encoding is deterministic (map iteration order is not).
func encodeTensorMsg(t Type, id, trace uint64, vid, errStr string, ts map[string]*tensor.Tensor) *securechan.Buf {
	size := 1 + 8 + 8 + 2 + len(vid) + 2 + len(errStr) + 4
	names := make([]string, 0, len(ts))
	for name, tt := range ts {
		names = append(names, name)
		size += 2 + len(name) + tt.EncodedSize()
	}
	slices.Sort(names)
	buf := securechan.GetBuf(size)
	dst := buf.Grow(size)
	dst[0] = byte(t)
	binary.LittleEndian.PutUint64(dst[1:], id)
	binary.LittleEndian.PutUint64(dst[9:], trace)
	off := 17
	off += putStrAt(dst[off:], vid)
	off += putStrAt(dst[off:], errStr)
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(ts)))
	off += 4
	for _, name := range names {
		off += putStrAt(dst[off:], name)
		off += ts[name].Encode(dst[off:])
	}
	return buf
}

func putStrAt(dst []byte, s string) int {
	binary.LittleEndian.PutUint16(dst, uint16(len(s)))
	copy(dst[2:], s)
	return 2 + len(s)
}

func readStr(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, ErrDecode
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, ErrDecode
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

func unmarshalTensorMsg(b []byte) (id, trace uint64, vid, errStr string, ts map[string]*tensor.Tensor, err error) {
	if len(b) < 16 {
		return 0, 0, "", "", nil, ErrDecode
	}
	id = binary.LittleEndian.Uint64(b)
	trace = binary.LittleEndian.Uint64(b[8:])
	b = b[16:]
	if vid, b, err = readStr(b); err != nil {
		return 0, 0, "", "", nil, err
	}
	if errStr, b, err = readStr(b); err != nil {
		return 0, 0, "", "", nil, err
	}
	if len(b) < 4 {
		return 0, 0, "", "", nil, ErrDecode
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// Every tensor takes at least a name length and a rank word, so a forged
	// count cannot size the map beyond what the payload could hold.
	if uint64(count)*(2+4) > uint64(len(b)) {
		return 0, 0, "", "", nil, fmt.Errorf("%w: %d tensors in %d bytes", ErrDecode, count, len(b))
	}
	ts = make(map[string]*tensor.Tensor, count)
	for i := uint32(0); i < count; i++ {
		var name string
		if name, b, err = readStr(b); err != nil {
			return 0, 0, "", "", nil, err
		}
		t, n, err := tensor.Unmarshal(b)
		if err != nil {
			return 0, 0, "", "", nil, fmt.Errorf("%w: tensor %q: %v", ErrDecode, name, err)
		}
		ts[name] = t
		b = b[n:]
	}
	return id, trace, vid, errStr, ts, nil
}
