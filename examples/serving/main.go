// Serving: multiplex many concurrent tenants onto one protected MVTEE
// pipeline through the dynamic-batching front door — weighted fairness,
// priority lanes, and explicit backpressure instead of unbounded queues.
// Clients go through the real HTTP surface: the "pro" population speaks the
// binary streaming wire protocol (application/x-mvtee-tensor), "free"
// speaks float32-JSON, and both land on the same engine.
//
//	go run ./examples/serving
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	mvtee "repro"

	"repro/internal/node"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)

	// Build and deploy a 4-stage pipeline, 3-variant MVX on stage 1, behind
	// the daemons' front door, which batches up to 8 compatible requests per
	// 2ms window; the "pro" tenant gets 3x the scheduling share of "free".
	// The real HTTP surface means requests exercise content negotiation and
	// the binary streaming response path end to end.
	o := node.Options{
		Model: "resnet-50", Stages: 4, MVXStage: 1,
		Listen: "127.0.0.1:0",
		Serve: serve.Config{
			MaxBatch: 8,
			MaxDelay: 2 * time.Millisecond,
			Tenants: map[string]serve.TenantConfig{
				"pro":  {Weight: 3},
				"free": {Weight: 1},
			},
		},
	}
	bundle, err := node.BuildBundle(o)
	if err != nil {
		log.Fatal(err)
	}
	n, err := node.Deploy(o, bundle)
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()
	f, err := node.StartFrontend(o, n)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	baseURL := "http://" + f.Addr()

	// Three client populations hammer the pipeline concurrently; "pro"
	// clients use the binary protocol, "free" stays on JSON.
	tenants := []struct {
		name   string
		prio   serve.Priority
		n      int
		binary bool
	}{
		{"pro", serve.High, 24, true},
		{"free", serve.Normal, 24, false},
		{"free", serve.Low, 8, false},
	}
	var wg sync.WaitGroup
	var served, rejected atomic.Int64
	var fillSum atomic.Int64
	start := time.Now()
	for _, tc := range tenants {
		tc := tc
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				cl := serve.Client{BaseURL: baseURL, Binary: tc.binary}
				rng := rand.New(rand.NewPCG(uint64(seed), 9))
				for i := 0; i < tc.n/4; i++ {
					in := mvtee.NewTensor(1, 3, 32, 32)
					for j := range in.Data() {
						in.Data()[j] = float32(rng.NormFloat64())
					}
					r, err := cl.Infer(context.Background(), serve.Request{
						Tenant:   tc.name,
						Priority: tc.prio,
						Inputs:   map[string]*mvtee.Tensor{"image": in},
					})
					var se *serve.StatusError
					if errors.As(err, &se) && se.RetryAfter > 0 {
						rejected.Add(1)
						time.Sleep(se.RetryAfter) // honor the backpressure hint
						continue
					}
					if err != nil {
						log.Fatalf("%s: %v", tc.name, err)
					}
					served.Add(1)
					fillSum.Add(int64(r.BatchFill))
				}
			}(c)
		}
	}
	wg.Wait()
	el := time.Since(start)

	ok := served.Load()
	fmt.Printf("served %d requests in %v (%.1f req/s), %d rejected with retry-after\n",
		ok, el.Round(time.Millisecond), float64(ok)/el.Seconds(), rejected.Load())
	fmt.Printf("mean batch fill: %.2f requests/engine batch\n", float64(fillSum.Load())/float64(ok))

	// Graceful drain, then show the per-tenant view the operator gets.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-tenant telemetry:")
	for _, m := range telemetry.Default.Snapshot() {
		if m.Name == telemetry.MetricServeRequests || m.Name == telemetry.MetricServeProto {
			fmt.Printf("  %s %v = %v\n", m.Name, m.Labels, m.Value)
		}
	}
	fmt.Printf("checkpoint events: %d (0 = all variants agreed)\n", len(n.Local.Events()))
}
