package telemetry

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// FlightSample is one tick of the flight recorder: every registered source
// read at the same instant. Values is index-aligned with Incident.Sources.
type FlightSample struct {
	At     int64   `json:"at_ns"`
	Values []int64 `json:"values"`
}

// FlightNote is one annotation on the timeline (control decisions, operator
// marks) — context the numeric sources can't carry.
type FlightNote struct {
	At   int64  `json:"at_ns"`
	Text string `json:"text"`
}

// Incident is one frozen before/after window around a trigger. Before is the
// sample ring as it stood when the trigger fired (oldest first); After is
// filled by the sampler over the next flightPostSamples ticks, at which point
// Complete flips true. Notes carries the annotation ring captured at trigger
// time plus anything noted while the incident was open.
type Incident struct {
	Reason   string         `json:"reason"`
	At       int64          `json:"at_ns"`
	Sources  []string       `json:"sources"`
	Interval int64          `json:"interval_ns"`
	Before   []FlightSample `json:"before"`
	After    []FlightSample `json:"after"`
	Notes    []FlightNote   `json:"notes,omitempty"`
	Complete bool           `json:"complete"`
}

// The flight recorder's fixed sizes: a 16s lookback (64 samples x 250ms)
// and a 4s post-trigger window.
const (
	flightInterval     = 250 * time.Millisecond // sampling cadence
	flightWindow       = 64                     // sample ring (the "before" depth)
	flightPostSamples  = 16                     // ticks that complete an incident
	flightMaxIncidents = 8                      // retained incidents, oldest evicted
	flightMaxNotes     = 64                     // annotation ring
)

// FlightConfig wires a FlightRecorder to its outputs.
type FlightConfig struct {
	// Metrics receives the per-reason incident counter; nil disables.
	Metrics *Registry
	// OnIncident, when set, is invoked once per new incident (not for
	// coalesced re-triggers), outside the recorder lock. Hosts use it to
	// ship incidents to an event bus so /events streams them live. The
	// Incident is a snapshot taken at trigger time; its after-window is
	// still filling.
	OnIncident func(Incident)
}

// FlightRecorder is the failover black box: a fixed-size ring continuously
// snapshotting a set of int64 sources (ladder level, shed floor, queue
// depths, cluster health counters), frozen into a before/after Incident when
// a trigger fires (failover, dissent, demotion, SLO breach). Trigger is cheap
// — it copies the ring and marks the incident open; the sampler goroutine
// fills the after-window on its normal cadence. All methods are
// nil-receiver-safe so uninstrumented hosts pay one branch.
type FlightRecorder struct {
	cfg FlightConfig

	mu        sync.Mutex
	started   bool
	names     []string
	fns       []func() int64
	samples   ring[FlightSample]
	notes     ring[FlightNote]
	incidents []*Incident
	active    *Incident
	remaining int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewFlightRecorder builds a recorder; register sources with AddSource, then
// Start it.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	return &FlightRecorder{
		cfg:     cfg,
		samples: newRing[FlightSample](flightWindow),
		notes:   newRing[FlightNote](flightMaxNotes),
		stop:    make(chan struct{}),
	}
}

// AddSource registers one named sampled value. Must happen before Start so
// every sample has the same shape; registrations after Start are ignored.
func (f *FlightRecorder) AddSource(name string, fn func() int64) {
	if f == nil || fn == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return
	}
	f.names = append(f.names, name)
	f.fns = append(f.fns, fn)
}

// Start launches the sampler goroutine. Safe to call once.
func (f *FlightRecorder) Start() {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	f.wg.Add(1)
	go f.sampler()
}

// Stop halts the sampler. An open incident stays incomplete.
func (f *FlightRecorder) Stop() {
	if f == nil {
		return
	}
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

func (f *FlightRecorder) sampler() {
	defer f.wg.Done()
	t := time.NewTicker(flightInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			f.Step()
		case <-f.stop:
			return
		}
	}
}

// Step takes one sample now: it reads every source outside the recorder
// lock (sources may take their own locks — engine ladders, router state) and
// stores the sample, feeding an open incident's after-window. The sampler
// calls it every flightInterval; exported so tests can drive the recorder
// deterministically without the ticker.
func (f *FlightRecorder) Step() {
	if f == nil {
		return
	}
	vals := make([]int64, len(f.fns))
	for i, fn := range f.fns {
		vals[i] = fn()
	}
	s := FlightSample{At: time.Now().UnixNano(), Values: vals}
	f.mu.Lock()
	f.samples.push(s)
	if f.active != nil {
		f.active.After = append(f.active.After, s)
		f.remaining--
		if f.remaining <= 0 {
			f.active.Complete = true
			f.active = nil
		}
	}
	f.mu.Unlock()
}

// Note records one timeline annotation; while an incident is open it is also
// appended to the incident directly.
func (f *FlightRecorder) Note(text string) {
	if f == nil {
		return
	}
	n := FlightNote{At: time.Now().UnixNano(), Text: text}
	f.mu.Lock()
	f.notes.push(n)
	if f.active != nil {
		f.active.Notes = append(f.active.Notes, n)
	}
	f.mu.Unlock()
}

// Trigger freezes the current ring into a new incident. Triggers while an
// incident is still collecting its after-window coalesce into a note on the
// open incident — a failover storm yields one record, not eight overlapping
// ones. Cheap enough to call from a router's event path.
func (f *FlightRecorder) Trigger(reason string) {
	if f == nil {
		return
	}
	now := time.Now().UnixNano()
	f.mu.Lock()
	if f.active != nil {
		f.active.Notes = append(f.active.Notes, FlightNote{At: now, Text: "trigger: " + reason})
		f.mu.Unlock()
		return
	}
	inc := &Incident{
		Reason:   reason,
		At:       now,
		Sources:  f.names,
		Interval: int64(flightInterval),
		Before:   f.samples.snapshot(),
		Notes:    f.notes.snapshot(),
		After:    make([]FlightSample, 0, flightPostSamples),
	}
	f.incidents = append(f.incidents, inc)
	if len(f.incidents) > flightMaxIncidents {
		f.incidents = append(f.incidents[:0], f.incidents[len(f.incidents)-flightMaxIncidents:]...)
	}
	f.active = inc
	f.remaining = flightPostSamples
	snap := *inc
	snap.Before = append([]FlightSample(nil), inc.Before...)
	snap.Notes = append([]FlightNote(nil), inc.Notes...)
	snap.After = nil
	f.mu.Unlock()
	if f.cfg.Metrics != nil {
		f.cfg.Metrics.Counter(MetricFlightIncidents, L("reason", reason)).Inc()
	}
	if f.cfg.OnIncident != nil {
		f.cfg.OnIncident(snap)
	}
}

// Incidents returns deep copies of the retained incidents, oldest first —
// safe to serialize while the sampler keeps appending to an open one.
func (f *FlightRecorder) Incidents() []Incident {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Incident, 0, len(f.incidents))
	for _, inc := range f.incidents {
		c := *inc
		c.Before = append([]FlightSample(nil), inc.Before...)
		c.After = append([]FlightSample(nil), inc.After...)
		c.Notes = append([]FlightNote(nil), inc.Notes...)
		out = append(out, c)
	}
	return out
}

// flightView is the /debug/flight JSON document.
type flightView struct {
	Sources    []string   `json:"sources"`
	IntervalNs int64      `json:"interval_ns"`
	Window     int        `json:"window"`
	Incidents  []Incident `json:"incidents"`
}

// Handler serves the incident ring as JSON at /debug/flight.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if f == nil {
			_, _ = w.Write([]byte("{}"))
			return
		}
		f.mu.Lock()
		names := append([]string(nil), f.names...)
		f.mu.Unlock()
		v := flightView{
			Sources:    names,
			IntervalNs: int64(flightInterval),
			Window:     flightWindow,
			Incidents:  f.Incidents(),
		}
		_ = json.NewEncoder(w).Encode(v)
	})
}
