package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

func TestSpanReportRoundtrip(t *testing.T) {
	r := &SpanReport{ID: 42, Replica: "replica-a", Spans: []telemetry.Span{
		{Trace: 7, Batch: 42, Name: "batch", Stage: -1, Start: 100, End: 250},
		{Trace: 7, Batch: 42, Name: "stage", Stage: 3, Variant: "v1", Start: 120, End: 200},
		{}, // all-zero span must survive too
	}}
	b, err := marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != r.EncodedLen() {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(b), r.EncodedLen())
	}
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.(*SpanReport)
	if !ok {
		t.Fatalf("decoded %T", m)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

// TestSpanReportReplicaFieldNotEncoded pins the wire contract: a span's
// Replica field is stamped router-side from the report header on merge; the
// codec must never ship it (a replica cannot claim spans for another node,
// and the frame stays compact).
func TestSpanReportReplicaFieldNotEncoded(t *testing.T) {
	r := &SpanReport{ID: 1, Replica: "honest", Spans: []telemetry.Span{
		{Trace: 3, Name: "batch", Stage: -1, Replica: "forged-node", Start: 1, End: 2},
	}}
	b, err := marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*SpanReport)
	if got.Replica != "honest" {
		t.Fatalf("report replica %q", got.Replica)
	}
	if got.Spans[0].Replica != "" {
		t.Fatalf("span replica %q survived the wire, want empty", got.Spans[0].Replica)
	}
}

func TestSpanReportRejectsMalformed(t *testing.T) {
	valid, err := marshal(&SpanReport{ID: 1, Replica: "r", Spans: []telemetry.Span{
		{Trace: 1, Name: "n", Stage: -1, Start: 1, End: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }

	// Forged span count pointing past the payload: the decoder must reject
	// before allocating 999 spans.
	forgedCount := clone(valid)
	// Layout: tag(1) id(8) replica-len(2) replica("r",1) count(2).
	binary.LittleEndian.PutUint16(forgedCount[12:], 999)

	cases := map[string][]byte{
		"empty payload":    {byte(TSpanReport)},
		"truncated header": valid[:6],
		"truncated span":   valid[:len(valid)-1],
		"trailing bytes":   append(clone(valid), 0),
		"forged count":     forgedCount,
	}
	for name, b := range cases {
		if _, err := Unmarshal(b); !errors.Is(err, ErrDecode) {
			t.Errorf("%s: err = %v, want ErrDecode", name, err)
		}
	}
}

func TestMetricsPollReportRoundtrip(t *testing.T) {
	p := &MetricsPoll{Seq: 9}
	b, err := marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := m.(*MetricsPoll); !ok || got.Seq != 9 {
		t.Fatalf("poll roundtrip %+v", m)
	}

	rep := &MetricsReport{Seq: 9, Series: []telemetry.MetricSnapshot{
		{Name: "c_total", Kind: "counter", Value: 5, Labels: map[string]string{"k": "v"}},
		{Name: "g", Kind: "gauge", Value: -3},
		{Name: "h_ns", Kind: "histogram", Count: 2, Sum: 30,
			Buckets: map[string]uint64{"15": 1, "31": 1}},
	}}
	b, err = marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	m, err = Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.(*MetricsReport)
	if !ok {
		t.Fatalf("decoded %T", m)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("report roundtrip mismatch:\n got %+v\nwant %+v", got, rep)
	}
}
