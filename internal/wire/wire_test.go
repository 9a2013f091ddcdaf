package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"net"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/securechan"
	"repro/internal/tensor"
)

// marshal returns m's encoding in fresh memory, for tests that keep the bytes.
func marshal(m Msg) ([]byte, error) {
	b, err := MarshalBuf(m)
	if err != nil {
		return nil, err
	}
	defer b.Free()
	return append([]byte(nil), b.Payload()...), nil
}

func TestControlMessagesRoundtrip(t *testing.T) {
	msgs := []Msg{
		&Provision{Nonce: []byte{1, 2}, Config: []byte(`{"plans":[]}`)},
		&AssignKey{VariantID: "v1", Partition: 2, KDK: []byte{9}, ManifestPB: []byte("m"),
			Files: []string{"a", "b"}, Entrypoint: "e"},
		&Installed{VariantID: "v1", Evidence: [32]byte{5}},
		&Bound{VariantID: "v1"},
		&AttestReq{Nonce: []byte{7}, Context: "variant/v1"},
		&AttestResp{Report: []byte("{}")},
		&Update{Kind: "partial", VariantID: "v2"},
		&Shutdown{},
		&Ack{Detail: "ok"},
		&Error{Message: "boom"},
	}
	for _, m := range msgs {
		b, err := marshal(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T roundtrip: %+v != %+v", m, m, got)
		}
	}
}

func TestBatchResultRoundtrip(t *testing.T) {
	ts := map[string]*tensor.Tensor{
		"a": tensor.MustFromSlice([]float32{1, 2, 3, 4}, 2, 2),
		"b": tensor.MustFromSlice([]float32{-1.5}, 1),
	}
	b := &Batch{ID: 42, Tensors: ts}
	buf, err := marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	gb := got.(*Batch)
	if gb.ID != 42 || len(gb.Tensors) != 2 {
		t.Fatalf("batch = %+v", gb)
	}
	if !reflect.DeepEqual(gb.Tensors["a"].Data(), ts["a"].Data()) {
		t.Fatal("tensor payload mismatch")
	}

	r := &Result{ID: 7, VariantID: "v3", Err: "kernel exploded", Tensors: ts}
	buf, err = marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	gr := got.(*Result)
	if gr.ID != 7 || gr.VariantID != "v3" || gr.Err != "kernel exploded" || len(gr.Tensors) != 2 {
		t.Fatalf("result = %+v", gr)
	}
}

func TestEmptyTensorsAllowed(t *testing.T) {
	b := &Batch{ID: 1, Tensors: map[string]*tensor.Tensor{}}
	buf, _ := marshal(b)
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.(*Batch).Tensors) != 0 {
		t.Fatal("expected empty tensor map")
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	good, _ := marshal(&Batch{ID: 1, Tensors: map[string]*tensor.Tensor{
		"x": tensor.MustFromSlice([]float32{1}, 1),
	}})
	// A tensor count far beyond what the payload holds.
	forgedCount := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(forgedCount[1+8+8+2+2:], 0x05000002)
	cases := [][]byte{
		nil,
		{0},
		{99},               // unknown type
		good[:5],           // truncated header
		good[:len(good)-2], // truncated tensor
		append([]byte{byte(TAck)}, []byte("not json")...),
		forgedCount,
	}
	for i, c := range cases {
		// A message is refused before the decoder commits memory sized by
		// a field it has not checked against the payload.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(c)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("case %d: malformed message accepted", i)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("case %d: refusing %d bytes allocated %d", i, len(c), grew)
		}
	}
}

func TestSendRecvOverChannel(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := securechan.Plain(a), securechan.Plain(b)
	go func() {
		_ = Send(ca, &Batch{ID: 3, Tensors: map[string]*tensor.Tensor{
			"y": tensor.MustFromSlice([]float32{1, 2}, 2),
		}})
	}()
	msg, err := Recv(cb)
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(*Batch); got.ID != 3 || got.Tensors["y"].At(1) != 2 {
		t.Fatalf("got %+v", got)
	}
}

// TestQuickBatchRoundtrip property-tests the binary tensor-message codec.
func TestQuickBatchRoundtrip(t *testing.T) {
	f := func(seed uint64, id uint64, names []string) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		if len(names) > 5 {
			names = names[:5]
		}
		ts := make(map[string]*tensor.Tensor, len(names))
		for _, n := range names {
			if len(n) > 100 {
				n = n[:100]
			}
			x := tensor.New(rng.IntN(4)+1, rng.IntN(4)+1)
			for i := range x.Data() {
				x.Data()[i] = float32(rng.NormFloat64())
			}
			ts[n] = x
		}
		buf, err := marshal(&Batch{ID: id, Tensors: ts})
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		gb := got.(*Batch)
		if gb.ID != id || len(gb.Tensors) != len(ts) {
			return false
		}
		for n, x := range ts {
			y, ok := gb.Tensors[n]
			if !ok || !y.SameShape(x) || !reflect.DeepEqual(x.Data(), y.Data()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalTypeTag(t *testing.T) {
	b, _ := marshal(&Ack{})
	if Type(b[0]) != TAck {
		t.Fatalf("tag = %d", b[0])
	}
	if !bytes.Contains(b[1:], []byte("{")) {
		t.Fatal("control payload should be JSON")
	}
}
