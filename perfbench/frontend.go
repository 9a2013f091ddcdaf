package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// upFrontend is mvtee-serve frontend() with its default flags: the batching
// server, the flight recorder, the adaptive control plane and the HTTP
// listener with the daemon's timeouts, here on an ephemeral loopback port.
// Decisions feed the flight timeline as in the daemon (which also logs them).
func (st *stack) upFrontend(eng pipelineEngine, spares control.SparePool,
	events *telemetry.Bus[monitor.Event], flight *telemetry.FlightRecorder,
	itemShapes map[string][]int, router bool) error {
	srv := serve.New(eng, serve.Config{
		MaxBatch:    serveMaxBatch,
		MaxDelay:    serveMaxDelay,
		TenantQueue: tenantQueue,
		GlobalQueue: globalQueue,
		ItemShapes:  itemShapes,
	})
	st.onClose(srv.Close)

	var wg sync.WaitGroup
	st.onClose(wg.Wait)
	addLadderSource(flight, eng)
	flight.Start()
	st.onClose(flight.Stop)
	if !router {
		evSub := events.Subscribe(64)
		st.onClose(evSub.Close)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range evSub.C {
				if ev.Kind == monitor.EventLadderDemoted {
					flight.Trigger(telemetry.FlightReasonDemotion)
				}
			}
		}()
	}

	ctl := control.New(control.Config{
		Epoch:    controlEpoch,
		Frontend: srv,
		Pipeline: eng,
		Spares:   spares,
		Events:   events,
	})
	decSub := ctl.Decisions().Subscribe(64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d := range decSub.C {
			noteDecision(flight, d)
		}
	}()
	ctl.Start()
	st.onClose(func() { ctl.Stop(); decSub.Close() })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           serve.Handler(srv),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "http server: %v\n", err)
		}
	}()
	st.onClose(func() { _ = hs.Close(); <-done })
	st.url = "http://" + ln.Addr().String()
	return nil
}

// newFlightRecorder is the daemon's flight recorder over the process
// registry: shed level, queue depths, controller knobs and cluster health
// counters on one timeline, incidents published on events when non-nil.
func newFlightRecorder(events *telemetry.Bus[monitor.Event]) *telemetry.FlightRecorder {
	reg := telemetry.Default
	cfg := telemetry.FlightConfig{Metrics: reg}
	if events != nil {
		cfg.OnIncident = func(inc telemetry.Incident) {
			events.Publish(monitor.Event{
				Kind:   monitor.EventFlightIncident,
				Stage:  -1,
				Detail: inc.Reason,
				Time:   time.Unix(0, inc.At),
			})
		}
	}
	fr := telemetry.NewFlightRecorder(cfg)
	gauge := func(name, metric string) {
		g := reg.Gauge(metric)
		fr.AddSource(name, g.Value)
	}
	gauge("shed_level", telemetry.MetricServeShedLevel)
	gauge("queue_global", telemetry.MetricServeQueueGlobal)
	gauge("inflight_batches", telemetry.MetricServeInflight)
	gauge("shed_floor", telemetry.MetricControlShedFloor)
	gauge("inflight_window", telemetry.MetricControlInflightWindow)
	failovers := reg.Counter(telemetry.MetricClusterFailovers)
	fr.AddSource("cluster_failovers", func() int64 { return int64(failovers.Value()) })
	dissent := reg.Counter(telemetry.MetricClusterDigestVotes,
		telemetry.L("verdict", telemetry.DigestVoteDissent))
	fr.AddSource("cluster_dissent_votes", func() int64 { return int64(dissent.Value()) })
	return fr
}

// addLadderSource samples the engine's worst ladder rung.
func addLadderSource(fr *telemetry.FlightRecorder, eng serve.Engine) {
	fr.AddSource("ladder_worst", func() int64 {
		worst := int64(monitor.LadderFull)
		for _, r := range eng.Ladder() {
			if int64(r) < worst {
				worst = int64(r)
			}
		}
		return worst
	})
}

// noteDecision mirrors one control-plane actuation onto the flight timeline.
func noteDecision(fr *telemetry.FlightRecorder, d control.Decision) {
	if d.Tenant != "" {
		fr.Note(fmt.Sprintf("%s %s %s[%s] %d -> %d (%s)", d.Loop, d.Direction, d.Knob, d.Tenant, d.From, d.To, d.Reason))
	} else {
		fr.Note(fmt.Sprintf("%s %s %s %d -> %d (%s)", d.Loop, d.Direction, d.Knob, d.From, d.To, d.Reason))
	}
	if d.Loop == telemetry.ControlLoopSLO && d.Direction == "up" {
		fr.Trigger(telemetry.FlightReasonSLOBreach)
	}
}
