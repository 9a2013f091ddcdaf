package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"net"
	"testing"

	"repro/internal/securechan"
	"repro/internal/tensor"
)

func checkpointBatch(tb testing.TB, seed uint64) *Batch {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 99))
	ts := make(map[string]*tensor.Tensor)
	for _, name := range []string{"boundary", "skip", "aux"} {
		x := tensor.New(1, 16, 14, 14)
		d := x.Data()
		for i := range d {
			d[i] = float32(rng.NormFloat64())
		}
		ts[name] = x
	}
	return &Batch{ID: seed, Tensors: ts}
}

// securePipe returns both ends of an attestation-less secure channel.
func securePipe(tb testing.TB) (*securechan.SecureConn, *securechan.SecureConn) {
	tb.Helper()
	a, b := net.Pipe()
	type res struct {
		c   *securechan.SecureConn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := securechan.Server(b, nil, nil)
		ch <- res{c, err}
	}()
	cli, err := securechan.Client(a, nil, nil)
	if err != nil {
		tb.Fatalf("client handshake: %v", err)
	}
	r := <-ch
	if r.err != nil {
		tb.Fatalf("server handshake: %v", r.err)
	}
	tb.Cleanup(func() { cli.Close() })
	return cli, r.c
}

// tensorsBitwiseEqual compares tensor maps element-for-element on the raw
// float32 bit patterns (NaN-safe).
func tensorsBitwiseEqual(a, b map[string]*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for name, x := range a {
		y, ok := b[name]
		if !ok || !x.SameShape(y) {
			return false
		}
		xd, yd := x.Data(), y.Data()
		for i := range xd {
			if math.Float32bits(xd[i]) != math.Float32bits(yd[i]) {
				return false
			}
		}
	}
	return true
}

// referenceTensorMsg is an append-style encoder of the tensor-message layout
// written independently of encodeTensorMsg. It walks the tensor map in Go's
// random order, so the decoder must not depend on tensor order either.
func referenceTensorMsg(t Type, id, trace uint64, vid, errStr string, ts map[string]*tensor.Tensor) []byte {
	putStr := func(buf []byte, s string) []byte {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		return append(buf, s...)
	}
	buf := []byte{byte(t)}
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = binary.LittleEndian.AppendUint64(buf, trace)
	buf = putStr(buf, vid)
	buf = putStr(buf, errStr)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts)))
	for name, tt := range ts {
		buf = putStr(buf, name)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(tt.Dims()))
		for _, d := range tt.Shape() {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
		}
		for _, v := range tt.Data() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return buf
}

// TestCodecEquivalence pins the pooled encoder to an independent reference
// encoder: a message marshalled through MarshalBuf must decode to tensors
// bitwise-identical to those the reference encoding decodes to.
func TestCodecEquivalence(t *testing.T) {
	batch := checkpointBatch(t, 1)
	// Include pathological float values: the codec must be bit-transparent.
	batch.Tensors["aux"].Data()[0] = float32(math.NaN())
	batch.Tensors["aux"].Data()[1] = float32(math.Inf(-1))
	batch.Tensors["aux"].Data()[2] = -0.0

	ref := referenceTensorMsg(TBatch, batch.ID, batch.Trace, "", "", batch.Tensors)
	pooled, err := MarshalBuf(batch)
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Free()

	// Pooled encoding decoded by the (unchanged) decoder.
	fromPooled, err := Unmarshal(pooled.Payload())
	if err != nil {
		t.Fatal(err)
	}
	// Reference encoding decoded likewise.
	fromLegacy, err := Unmarshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	pb, lb := fromPooled.(*Batch), fromLegacy.(*Batch)
	if pb.ID != batch.ID || lb.ID != batch.ID {
		t.Fatalf("IDs: pooled=%d reference=%d", pb.ID, lb.ID)
	}
	if !tensorsBitwiseEqual(pb.Tensors, batch.Tensors) {
		t.Fatal("pooled path tensors differ from source")
	}
	if !tensorsBitwiseEqual(pb.Tensors, lb.Tensors) {
		t.Fatal("pooled and reference encodings decode differently")
	}

	// Same check for Result, which additionally carries strings.
	res := &Result{ID: 5, VariantID: "variant-α", Err: "kernel α failed", Tensors: batch.Tensors}
	ref = referenceTensorMsg(TResult, res.ID, res.Trace, res.VariantID, res.Err, res.Tensors)
	pooledR, err := MarshalBuf(res)
	if err != nil {
		t.Fatal(err)
	}
	defer pooledR.Free()
	d1, err := Unmarshal(pooledR.Payload())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Unmarshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := d1.(*Result), d2.(*Result)
	if r1.VariantID != res.VariantID || r1.Err != res.Err ||
		r2.VariantID != res.VariantID || r2.Err != res.Err {
		t.Fatal("result metadata drifted")
	}
	if !tensorsBitwiseEqual(r1.Tensors, r2.Tensors) {
		t.Fatal("result tensors differ between encoders")
	}
}

// TestMarshalBufDeterministic pins the sorted-name property the fan-out path
// and the fuzz oracle rely on: repeated pooled marshals of one message are
// byte-identical.
func TestMarshalBufDeterministic(t *testing.T) {
	batch := checkpointBatch(t, 3)
	a, err := MarshalBuf(batch)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), a.Payload()...)
	a.Free()
	for i := 0; i < 8; i++ {
		b, err := MarshalBuf(batch)
		if err != nil {
			t.Fatal(err)
		}
		same := bytes.Equal(b.Payload(), first)
		b.Free()
		if !same {
			t.Fatalf("marshal %d differs from first", i)
		}
	}
}

// TestSendRecvZeroCopySecure runs the full data plane — pooled marshal,
// in-place seal, single write, pooled receive, in-place open, decode — over a
// secure channel and checks tensors arrive bit-exact.
func TestSendRecvZeroCopySecure(t *testing.T) {
	cli, srv := securePipe(t)
	for seed := uint64(1); seed <= 3; seed++ {
		batch := checkpointBatch(t, seed)
		errCh := make(chan error, 1)
		go func() { errCh <- Send(cli, batch) }()
		msg, err := Recv(srv)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		got := msg.(*Batch)
		if got.ID != batch.ID || !tensorsBitwiseEqual(got.Tensors, batch.Tensors) {
			t.Fatalf("batch %d corrupted through zero-copy data plane", seed)
		}
	}
}

// TestEncodeOnceFanOut models the monitor's dispatch: one MarshalBatch, then
// Conn.Send of the same payload to several secure connections. Every
// variant must decode identical tensors, and the shared payload must be
// untouched afterwards.
func TestEncodeOnceFanOut(t *testing.T) {
	const variants = 3
	batch := checkpointBatch(t, 11)
	buf := MarshalBatch(batch)
	defer buf.Free()
	payload := buf.Payload()
	orig := append([]byte(nil), payload...)

	for v := 0; v < variants; v++ {
		cli, srv := securePipe(t)
		errCh := make(chan error, 1)
		go func() { errCh <- cli.Send(payload) }()
		msg, err := Recv(srv)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		got := msg.(*Batch)
		if got.ID != batch.ID || !tensorsBitwiseEqual(got.Tensors, batch.Tensors) {
			t.Fatalf("variant %d decoded different tensors", v)
		}
	}
	if !bytes.Equal(payload, orig) {
		t.Fatal("fan-out mutated the shared encoded payload")
	}
}

// TestWarmDataPlaneAllocs pins the zero-copy steady state: after warm-up, a
// full send+receive of a checkpoint-sized tensor batch may allocate only the
// decoded tensors themselves (data + shape + map + Tensor headers per tensor,
// plus the message struct) — no marshal buffers, no frame copies, no AEAD
// output buffers.
func TestWarmDataPlaneAllocs(t *testing.T) {
	cli, srv := securePipe(t)
	batch := checkpointBatch(t, 2)
	roundtrip := func() {
		errCh := make(chan error, 1)
		go func() { errCh <- Send(cli, batch) }()
		msg, err := Recv(srv)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		if msg.(*Batch).ID != batch.ID {
			t.Fatal("wrong batch")
		}
	}
	for i := 0; i < 8; i++ {
		roundtrip() // warm the buffer pools and connection scratch
	}
	avg := testing.AllocsPerRun(50, roundtrip)
	// Decode allocates per tensor: float32 data + shape + Tensor + map entry
	// assignment, plus the map, Batch, name strings and goroutine/channel
	// plumbing of the ping-pong itself. The tensor-data budget is ≤2 per
	// message (issue acceptance); everything else is fixed small overhead.
	// Measured ~26 on a warm path; 40 leaves headroom without letting a
	// reintroduced per-message frame copy (+3 per tensor ≥ +9) slip through.
	const budget = 40
	if avg > budget {
		t.Fatalf("warm data-plane roundtrip allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestWarmSendAllocs isolates the transmit half: marshal + seal + write of a
// warm batch must not allocate at all (the ≤2 tensor-data allocation
// criterion is consumed entirely by the receive side's decode).
func TestWarmSendAllocs(t *testing.T) {
	cli, srv := securePipe(t)
	batch := checkpointBatch(t, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := srv.Recv(); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		if err := Send(cli, batch); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := Send(cli, batch); err != nil {
			t.Fatal(err)
		}
	})
	cli.Close()
	<-done
	// Marshal into a pooled warm buffer + in-place seal + single write: the
	// only steady-state allocation is the sorted-names slice (1) — pin a
	// small budget that a marshal-copy or seal-copy regression would blow.
	const budget = 4
	if avg > budget {
		t.Fatalf("warm send allocates %.1f/op, budget %d", avg, budget)
	}
}
