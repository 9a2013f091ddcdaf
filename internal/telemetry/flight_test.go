package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// steps drives n sampler ticks deterministically.
func steps(fr *FlightRecorder, n int) {
	for i := 0; i < n; i++ {
		fr.Step()
	}
}

func TestFlightTriggerFreezesAndCompletes(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(FlightConfig{Metrics: reg})
	var v atomic.Int64
	v.Store(10)
	fr.AddSource("depth", v.Load)

	steps(fr, flightWindow+5) // fill the before-ring past its bound
	v.Store(42)
	fr.Trigger(FlightReasonFailover)
	steps(fr, flightPostSamples-1)
	if incs := fr.Incidents(); len(incs) != 1 || incs[0].Complete {
		t.Fatalf("incident complete before %d after-samples: %+v", flightPostSamples, incs)
	}
	fr.Step()
	incs := fr.Incidents()
	if len(incs) != 1 || !incs[0].Complete {
		t.Fatalf("incident not complete after %d after-samples", flightPostSamples)
	}
	inc := incs[0]
	if inc.Reason != FlightReasonFailover {
		t.Fatalf("reason %q", inc.Reason)
	}
	if len(inc.Sources) != 1 || inc.Sources[0] != "depth" {
		t.Fatalf("sources %v", inc.Sources)
	}
	if inc.Interval != int64(flightInterval) {
		t.Fatalf("interval %d", inc.Interval)
	}
	if len(inc.Before) != flightWindow {
		t.Fatalf("before-window %d samples, want the ring bound %d", len(inc.Before), flightWindow)
	}
	if inc.Before[0].Values[0] != 10 {
		t.Fatalf("before sample %v, want pre-incident value 10", inc.Before[0].Values)
	}
	if len(inc.After) != flightPostSamples {
		t.Fatalf("after-window %d samples, want %d", len(inc.After), flightPostSamples)
	}
	for _, s := range inc.After {
		if s.Values[0] != 42 {
			t.Fatalf("after sample %v, want post-trigger value 42", s.Values)
		}
	}
	if n := reg.Counter(MetricFlightIncidents, L("reason", FlightReasonFailover)).Value(); n != 1 {
		t.Fatalf("incident counter %d, want 1", n)
	}
}

func TestFlightTriggerCoalescesWhileOpen(t *testing.T) {
	// The sampler is never started, so the after-window never fills and the
	// incident stays open for the whole test.
	fr := NewFlightRecorder(FlightConfig{})
	fr.AddSource("x", func() int64 { return 1 })
	fr.Trigger(FlightReasonFailover)
	fr.Trigger(FlightReasonDissent) // storm: must coalesce, not open a second record
	fr.Note("operator mark")
	incs := fr.Incidents()
	if len(incs) != 1 {
		t.Fatalf("%d incidents, want 1 (second trigger must coalesce)", len(incs))
	}
	if incs[0].Complete {
		t.Fatal("incident complete without after-samples")
	}
	var sawTrigger, sawMark bool
	for _, n := range incs[0].Notes {
		switch n.Text {
		case "trigger: " + FlightReasonDissent:
			sawTrigger = true
		case "operator mark":
			sawMark = true
		}
	}
	if !sawTrigger || !sawMark {
		t.Fatalf("notes %v missing coalesced trigger or open-incident note", incs[0].Notes)
	}
}

func TestFlightNotesPreTriggerRing(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{})
	fr.Note("first") // evicted by the ring bound
	for i := 0; i < flightMaxNotes; i++ {
		fr.Note(fmt.Sprintf("note-%d", i)) // retained
	}
	fr.Trigger(FlightReasonDemotion)
	inc := fr.Incidents()[0]
	if len(inc.Notes) != flightMaxNotes || inc.Notes[0].Text != "note-0" ||
		inc.Notes[flightMaxNotes-1].Text != fmt.Sprintf("note-%d", flightMaxNotes-1) {
		t.Fatalf("notes %v, want the %d newest pre-trigger annotations", inc.Notes, flightMaxNotes)
	}
}

func TestFlightIncidentEviction(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{})
	fr.AddSource("x", func() int64 { return 0 })
	for i := 0; i <= flightMaxIncidents; i++ {
		fr.Trigger(fmt.Sprintf("r%d", i))
		steps(fr, flightPostSamples)
		if incs := fr.Incidents(); !incs[len(incs)-1].Complete {
			t.Fatalf("incident r%d not complete", i)
		}
	}
	incs := fr.Incidents()
	got := make([]string, len(incs))
	for i := range incs {
		got[i] = incs[i].Reason
	}
	if len(incs) != flightMaxIncidents || got[0] != "r1" || got[len(got)-1] != fmt.Sprintf("r%d", flightMaxIncidents) {
		t.Fatalf("retained incidents %v, want r1..r%d (r0 evicted)", got, flightMaxIncidents)
	}
}

func TestFlightNilReceiverSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.AddSource("x", func() int64 { return 0 })
	fr.Start()
	fr.Note("n")
	fr.Trigger("r")
	fr.Step()
	fr.Stop()
	if fr.Incidents() != nil {
		t.Fatal("nil recorder returned incidents")
	}
	rr := httptest.NewRecorder()
	fr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if body := strings.TrimSpace(rr.Body.String()); body != "{}" {
		t.Fatalf("nil handler body %q", body)
	}
}

func TestFlightHandlerJSON(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{})
	fr.AddSource("queue", func() int64 { return 5 })
	fr.Trigger(FlightReasonSLOBreach)
	rr := httptest.NewRecorder()
	fr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var v struct {
		Sources    []string   `json:"sources"`
		IntervalNs int64      `json:"interval_ns"`
		Window     int        `json:"window"`
		Incidents  []Incident `json:"incidents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode /debug/flight: %v", err)
	}
	if len(v.Sources) != 1 || v.Sources[0] != "queue" {
		t.Fatalf("sources %v", v.Sources)
	}
	if v.Window != flightWindow || v.IntervalNs != int64(flightInterval) {
		t.Fatalf("window %d interval %d", v.Window, v.IntervalNs)
	}
	if len(v.Incidents) != 1 || v.Incidents[0].Reason != FlightReasonSLOBreach {
		t.Fatalf("incidents %+v", v.Incidents)
	}
}

func TestFlightAddSourceAfterStartIgnored(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{})
	fr.AddSource("early", func() int64 { return 1 })
	fr.Start()
	defer fr.Stop()
	fr.AddSource("late", func() int64 { return 2 }) // would tear sample shape
	fr.Trigger("x")
	steps(fr, flightPostSamples)
	if incs := fr.Incidents(); len(incs) != 1 || !incs[0].Complete {
		t.Fatalf("incidents %+v, want one complete", incs)
	}
	inc := fr.Incidents()[0]
	if len(inc.Sources) != 1 || inc.Sources[0] != "early" {
		t.Fatalf("sources %v, want only the pre-Start registration", inc.Sources)
	}
	if len(inc.After[0].Values) != 1 {
		t.Fatalf("sample width %d, want 1", len(inc.After[0].Values))
	}
}
