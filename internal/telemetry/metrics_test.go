package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(10)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should read 0")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total")
	b := r.Counter("x_total")
	if a != b {
		t.Fatal("same name must return same counter")
	}
	l1 := r.Counter("x_total", L("k", "1"))
	l2 := r.Counter("x_total", L("k", "2"))
	if l1 == l2 || l1 == a {
		t.Fatal("distinct labels must be distinct series")
	}
	a.Inc()
	a.Add(2)
	if b.Value() != 3 {
		t.Fatalf("value = %d, want 3", b.Value())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	// bits.Len64: 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...
	h.Observe(0)
	h.Observe(1)
	h.Observe(3)
	h.Observe(7)
	h.Observe(-5) // clamps to 0
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 11 {
		t.Fatalf("sum = %d, want 11", h.Sum())
	}
	if h.buckets[0].Load() != 2 { // 0 and clamped -5
		t.Fatalf("bucket0 = %d, want 2", h.buckets[0].Load())
	}
	if h.buckets[2].Load() != 1 || h.buckets[3].Load() != 1 {
		t.Fatal("log2 bucket placement wrong")
	}
	// Huge values land in the last bucket.
	h.Observe(1 << 62)
	if h.buckets[HistBuckets-1].Load() != 1 {
		t.Fatal("overflow value must land in last bucket")
	}
}

func TestHistogramObserveConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_ns")
	var wg sync.WaitGroup
	const G, N = 8, 1000
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < N; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != G*N {
		t.Fatalf("count = %d, want %d", h.Count(), G*N)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", L("code", "200")).Add(7)
	r.Counter("req_total", L("code", "500")).Add(1)
	r.Gauge("depth").Set(-2)
	h := r.Histogram("lat_ns")
	h.Observe(1)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{code="200"} 7`,
		`req_total{code="500"} 1`,
		"# TYPE depth gauge",
		"depth -2",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="+Inf"} 2`,
		"lat_ns_sum 101",
		"lat_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE req_total"); n != 1 {
		t.Fatalf("series sharing a name must share one TYPE line, got %d", n)
	}
	// Cumulative buckets: the le="1" bucket holds the observation of 1.
	if !strings.Contains(out, `lat_ns_bucket{le="1"} 1`) {
		t.Fatalf("cumulative bucket rendering wrong:\n%s", out)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(4)
	r.Gauge("g", L("stage", "0")).Set(9)
	h := r.Histogram("h_ns")
	h.Observe(5)

	snaps := r.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snaps))
	}
	if snaps[0].Name != "c_total" || snaps[0].Kind != "counter" || snaps[0].Value != 4 {
		t.Fatalf("counter snapshot wrong: %+v", snaps[0])
	}
	if snaps[1].Labels["stage"] != "0" || snaps[1].Value != 9 {
		t.Fatalf("gauge snapshot wrong: %+v", snaps[1])
	}
	if snaps[2].Count != 1 || snaps[2].Sum != 5 || len(snaps[2].Buckets) != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", snaps[2])
	}
}

func TestSeverity(t *testing.T) {
	cases := map[Severity]string{SevInfo: "info", SevWarn: "warn", SevSecurity: "security", Severity(0): "unknown"}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Severity(0).Valid() || Severity(99).Valid() {
		t.Fatal("out-of-range severities must be invalid")
	}
	if !SevInfo.Valid() || !SevSecurity.Valid() {
		t.Fatal("defined severities must be valid")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func TestRecordPathsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("af_total")
	g := r.Gauge("af_g")
	h := r.Histogram("af_ns")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1)
		h.Observe(42)
	})
	if allocs != 0 {
		t.Fatalf("record paths allocated %v/op, want 0", allocs)
	}
}
