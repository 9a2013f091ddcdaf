package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Frontend is a running front door: the batching server with per-tenant
// admission control over the node's engine, the flight recorder, the
// adaptive control plane and the public HTTP listener.
type Frontend struct {
	srv          *serve.Server
	hs           *http.Server
	drainTimeout time.Duration
	served       chan error
	// wg tracks the event and decision subscribers, which end when their
	// subscriptions close.
	wg sync.WaitGroup

	teardown
}

// StartFrontend runs the front door over n.Engine on o.Listen with the
// batching configuration o.Serve (its ItemShapes come from the node) and,
// with o.Adaptive, the control plane that retunes the batching window, the
// engine's inflight window, the spare pool and per-tenant scheduling every
// o.ControlEpoch.
func StartFrontend(o Options, n *Node) (*Frontend, error) {
	cfg := o.Serve
	cfg.ItemShapes = n.ItemShapes
	srv := serve.New(n.Engine, cfg)
	f := &Frontend{srv: srv, drainTimeout: o.DrainTimeout, served: make(chan error, 1)}
	f.onClose(srv.Close)
	f.onClose(f.wg.Wait)

	// The flight recorder's sources are fixed at Start; the ladder source
	// needs the engine, so it lands here. A cluster router triggers the
	// recorder itself (failover, dissent, replica loss, demotion); a local
	// engine's ladder demotions are converted here.
	addLadderSource(n.Flight, n.Engine)
	n.Flight.Start()
	f.onClose(n.Flight.Stop)
	if n.Router == nil {
		sub := n.Events.Subscribe(64)
		f.onClose(sub.Close)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for ev := range sub.C {
				if ev.Kind == monitor.EventLadderDemoted {
					n.Flight.Trigger(telemetry.FlightReasonDemotion)
				}
			}
		}()
	}

	if o.Adaptive {
		cc := control.Config{Epoch: o.ControlEpoch, Frontend: srv, Pipeline: n.Engine, Events: n.Events}
		if n.Monitor != nil { // a nil *Monitor would be a non-nil SparePool
			cc.Spares = n.Monitor
		}
		ctl := control.New(cc)
		// Every actuation is visible: decisions are logged and annotate the
		// flight timeline (they also flow to mvtee_control_decisions_total
		// and the knob gauges).
		sub := ctl.Decisions().Subscribe(64)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for d := range sub.C {
				log.Printf("control: %s", decisionText(d))
				noteDecision(n.Flight, d)
			}
		}()
		ctl.Start()
		f.onClose(func() { ctl.Stop(); sub.Close() })
		log.Printf("adaptive control plane on")
	}

	ln, err := net.Listen("tcp", o.Listen)
	if err != nil {
		f.run()
		return nil, err
	}
	// The public front door bounds slow clients itself: without header and
	// read timeouts a trickled request holds a connection (and its partially
	// decoded body) open indefinitely, exhausting the listener before
	// admission control ever sees a request.
	f.hs = &http.Server{
		Addr:              ln.Addr().String(),
		Handler:           serve.Handler(srv),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	log.Printf("serving on http://%s (POST /v1/infer, binary protocol %v; GET /healthz)", f.hs.Addr, !cfg.DisableBinary)
	return f, nil
}

// Addr is the bound HTTP address.
func (f *Frontend) Addr() string { return f.hs.Addr }

// Drain stops admitting requests (new ones get 503), flushes the queues and
// waits for every admitted request to be answered or ctx to expire.
func (f *Frontend) Drain(ctx context.Context) error { return f.srv.Drain(ctx) }

// Shutdown closes the HTTP listener, waiting for in-flight responses until
// ctx expires, then stops the control plane, the flight recorder and the
// batching server.
func (f *Frontend) Shutdown(ctx context.Context) error {
	err := f.hs.Shutdown(ctx)
	if err != nil {
		_ = f.hs.Close()
	}
	f.run()
	return err
}

// Run serves until ctx is done or the HTTP server fails, then drains (new
// requests get 503 while admitted ones complete) within the drain timeout
// and shuts the front door down.
func (f *Frontend) Run(ctx context.Context) error {
	var err error
	select {
	case err = <-f.served:
	case <-ctx.Done():
		log.Printf("draining (deadline %v)", f.drainTimeout)
	}
	dctx, cancel := context.WithTimeout(context.Background(), f.drainTimeout)
	defer cancel()
	if err == nil {
		if derr := f.Drain(dctx); derr != nil {
			log.Printf("drain incomplete: %v", derr)
		} else {
			log.Printf("drain complete")
		}
	}
	if serr := f.Shutdown(dctx); err == nil {
		err = serr
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

// newFlightRecorder builds the serving tier's failover black box over the
// process registry: the shed level, queue depths, controller knobs and
// cluster health counters sampled on one timeline, frozen into a
// before/after incident whenever a trigger fires (failover, dissent, replica
// loss, ladder demotion, SLO breach). Registry handles are get-or-create, so
// registering sources before the emitting subsystems start is safe — they
// read zero until the real writers come up. Every new incident is also
// published on events, so /events streams incidents live alongside the
// engine's own security events.
func newFlightRecorder(events *telemetry.Bus[monitor.Event]) *telemetry.FlightRecorder {
	reg := telemetry.Default
	fr := telemetry.NewFlightRecorder(telemetry.FlightConfig{
		Metrics: reg,
		OnIncident: func(inc telemetry.Incident) {
			events.Publish(monitor.Event{
				Kind:   monitor.EventFlightIncident,
				Stage:  -1,
				Detail: inc.Reason,
				Time:   time.Unix(0, inc.At),
			})
		},
	})
	for _, g := range [][2]string{
		{"shed_level", telemetry.MetricServeShedLevel},
		{"queue_global", telemetry.MetricServeQueueGlobal},
		{"inflight_batches", telemetry.MetricServeInflight},
		{"shed_floor", telemetry.MetricControlShedFloor},
		{"inflight_window", telemetry.MetricControlInflightWindow},
	} {
		fr.AddSource(g[0], reg.Gauge(g[1]).Value)
	}
	failovers := reg.Counter(telemetry.MetricClusterFailovers)
	fr.AddSource("cluster_failovers", func() int64 { return int64(failovers.Value()) })
	dissent := reg.Counter(telemetry.MetricClusterDigestVotes,
		telemetry.L("verdict", telemetry.DigestVoteDissent))
	fr.AddSource("cluster_dissent_votes", func() int64 { return int64(dissent.Value()) })
	return fr
}

// addLadderSource samples the engine's worst ladder rung — for a cluster
// router that is the best any healthy replica can still serve, so an
// incident window shows capability collapsing and recovering around the
// trigger. Must run before Start (sources are fixed at launch).
func addLadderSource(fr *telemetry.FlightRecorder, eng serve.Engine) {
	fr.AddSource("ladder_worst", func() int64 {
		worst := int64(monitor.LadderFull)
		for _, r := range eng.Ladder() {
			worst = min(worst, int64(r))
		}
		return worst
	})
}

// decisionText renders one control-plane actuation.
func decisionText(d control.Decision) string {
	knob := d.Knob
	if d.Tenant != "" {
		knob = fmt.Sprintf("%s[%s]", d.Knob, d.Tenant)
	}
	return fmt.Sprintf("%s %s %s %d -> %d (%s)", d.Loop, d.Direction, knob, d.From, d.To, d.Reason)
}

// noteDecision mirrors one control-plane actuation onto the flight timeline
// and converts sustained SLO-breach escalations into incident triggers, so a
// /debug/flight record shows which knobs the controller was turning in the
// seconds before and after the event.
func noteDecision(fr *telemetry.FlightRecorder, d control.Decision) {
	fr.Note(decisionText(d))
	if d.Loop == telemetry.ControlLoopSLO && d.Direction == "up" {
		fr.Trigger(telemetry.FlightReasonSLOBreach)
	}
}
