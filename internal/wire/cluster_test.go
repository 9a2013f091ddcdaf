package wire

import (
	"bytes"
	"testing"

	"repro/internal/tensor"
)

func TestDigestRoundtrip(t *testing.T) {
	vote := &Digest{ID: 42, Stage: -1}
	for i := range vote.Sum {
		vote.Sum[i] = byte(i * 7)
	}
	for _, d := range []*Digest{vote, {ID: 7, Stage: 2, Sum: vote.Sum}, {ID: 9, Stage: -1}} {
		b, err := marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != digestMsgLen {
			t.Fatalf("encoded length %d, want %d", len(b), digestMsgLen)
		}
		m, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := m.(*Digest)
		if !ok {
			t.Fatalf("decoded %T", m)
		}
		if *got != *d {
			t.Fatalf("roundtrip mismatch: %+v != %+v", got, d)
		}
	}

	// Truncated and oversized digest frames are rejected.
	b, _ := marshal(vote)
	if _, err := Unmarshal(b[:digestMsgLen-3]); err == nil {
		t.Fatal("truncated digest frame accepted")
	}
	if _, err := Unmarshal(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("oversized digest frame accepted")
	}
}

func TestVerifyRetagSharesLayout(t *testing.T) {
	x := tensor.New(2, 2)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	batch := &Batch{ID: 9, Trace: 33, Tensors: map[string]*tensor.Tensor{"x": x}}
	buf := MarshalBatch(batch)
	defer buf.Free()

	RetagVerify(buf.Payload())
	m, err := Unmarshal(buf.Payload())
	if err != nil {
		t.Fatal(err)
	}
	v, ok := m.(*Verify)
	if !ok {
		t.Fatalf("retagged payload decoded as %T", m)
	}
	if v.ID != 9 || v.Trace != 33 || v.Tensors["x"].At(1, 1) != 3 {
		t.Fatalf("verify fields lost: %+v", v)
	}

	// Retagging is the only difference from MarshalBuf's Verify encoding.
	want, err := marshal(&Verify{ID: 9, Trace: 33, Tensors: batch.Tensors})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Payload(), want) {
		t.Fatal("retagged batch differs from the Verify encoding")
	}
}

func TestReplicaControlRoundtrip(t *testing.T) {
	hello := &ReplicaHello{
		ID: "replica-0", Stages: 2, Variants: 3,
		GraphInputs: []string{"x"}, GraphOutputs: []string{"y"},
		ItemShapes: map[string][]int{"x": {1, 64}},
	}
	b, err := marshal(hello)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	h := m.(*ReplicaHello)
	if h.ID != "replica-0" || h.Variants != 3 || len(h.ItemShapes["x"]) != 2 {
		t.Fatalf("hello roundtrip: %+v", h)
	}

	st := &ReplicaStatus{Ladder: []int{3, 2}, Spares: 1}
	b, _ = marshal(st)
	m, err = Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*ReplicaStatus); got.Ladder[1] != 2 || got.Spares != 1 {
		t.Fatalf("status roundtrip: %+v", got)
	}

	tune := &ReplicaTune{InflightWindow: 8}
	b, _ = marshal(tune)
	m, err = Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*ReplicaTune); got.InflightWindow != 8 {
		t.Fatalf("tune roundtrip: %+v", got)
	}
}
