// Command mvtee-owner plays the model owner of Figure 6: it attests the
// monitor TEE over the channel handshake (verifying the hardware-signed
// report against the attestation infrastructure's public platform identity
// and the expected monitor measurement), provisions the MVX configuration
// and the pool key table with an anti-replay nonce, and finally verifies the
// initialization results the monitor returns (nonce echoed, one binding per
// claimed variant).
//
// The owner holds only the public bundle metadata, the owner key table and
// the platform's *public* identity — never the simulated hardware secrets.
//
//	mvtee-owner -bundle /tmp/bundle -connect 127.0.0.1:9000 \
//	    -plans "ort-cpu;ort-cpu;ort-cpu,ort-altep,tvm-graph;ort-cpu;ort-cpu"
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/wire"
)

func main() {
	bundleDir := flag.String("bundle", "", "bundle directory (owner needs meta, keys and the public platform identity)")
	connect := flag.String("connect", "127.0.0.1:9000", "monitor address")
	setIdx := flag.Int("set", 0, "partition set index")
	plansStr := flag.String("plans", "", "per-partition variant claims: 'spec,spec;spec;...' (required)")
	async := flag.Bool("async", false, "asynchronous cross-validation mode")
	flag.Parse()
	log.SetPrefix("mvtee-owner: ")
	log.SetFlags(0)

	if *bundleDir == "" || *plansStr == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*bundleDir, *connect, *setIdx, *plansStr, *async); err != nil {
		log.Fatal(err)
	}
}

func run(dir, addr string, setIdx int, plansStr string, async bool) error {
	meta, err := core.LoadMeta(dir)
	if err != nil {
		return err
	}
	keys, err := core.LoadKeys(dir)
	if err != nil {
		return err
	}
	pubID, err := core.LoadPlatformIdentity(dir)
	if err != nil {
		return err
	}
	verify, err := core.MonitorPeer(pubID)
	if err != nil {
		return err
	}

	plans := monitor.ParsePlans(plansStr)
	if setIdx < 0 || setIdx >= len(meta.Sets) {
		return fmt.Errorf("set %d out of range", setIdx)
	}
	if len(plans) != len(meta.Sets[setIdx].Partitions) {
		return fmt.Errorf("%d plans for %d partitions", len(plans), len(meta.Sets[setIdx].Partitions))
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	// Step 2 (Figure 6): challenge-response attestation of the monitor —
	// the handshake binds the monitor's hardware-signed report to this
	// channel; the owner checks signature, platform and measurement.
	conn, err := securechan.Client(raw, nil, verify)
	if err != nil {
		return fmt.Errorf("monitor attestation: %w", err)
	}
	meas := enclave.Measure(core.MonitorImage())
	log.Printf("monitor attested (measurement %x…)", meas[:6])

	// Step 3: provision MVX configuration + pool keys with a fresh nonce.
	nonce, err := attest.NewNonce()
	if err != nil {
		return err
	}
	mvx := &monitor.MVXConfig{Model: meta.Model, PartitionSet: setIdx, Plans: plans, Async: async}
	cfgJSON, err := mvx.Marshal()
	if err != nil {
		return err
	}
	keyTable := make(map[string][]byte, len(keys))
	for k, v := range keys {
		keyTable[k] = v
	}
	if err := wire.Send(conn, &wire.Provision{Nonce: nonce, Config: cfgJSON, Keys: keyTable}); err != nil {
		return fmt.Errorf("provision: %w", err)
	}
	log.Printf("provisioned MVX config (%d partitions) and %d pool keys", len(plans), len(keys))

	// Step 8: initialization results echo the nonce.
	msg, err := wire.Recv(conn)
	if err != nil {
		return fmt.Errorf("await results: %w", err)
	}
	switch m := msg.(type) {
	case *wire.Ack:
		var want int
		for _, p := range plans {
			want += len(p.Variants)
		}
		if !strings.HasPrefix(m.Detail, fmt.Sprintf("%x:", nonce)) {
			return fmt.Errorf("results do not echo the provisioning nonce (replay?)")
		}
		detail := m.Detail[strings.Index(m.Detail, ":")+1:]
		bound := strings.Count(detail, ",") + 1
		if detail == "" {
			bound = 0
		}
		if bound != want {
			return fmt.Errorf("monitor bound %d variants, expected %d", bound, want)
		}
		log.Printf("initialization verified: %d variants bound (%s)", bound, detail)
		return nil
	case *wire.Error:
		return fmt.Errorf("monitor: %s", m.Message)
	default:
		return fmt.Errorf("unexpected reply %T", msg)
	}
}
