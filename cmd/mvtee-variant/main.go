// Command mvtee-variant runs one variant TEE for process-separated
// deployments: it boots the TEE OS with the public init-variant manifest
// over the saved bundle, dials the monitor over an attested channel, runs
// the two-stage bootstrap (receiving its identity, key and encrypted files
// from the monitor), and serves its partition until shutdown.
//
// The process is generic — which partition and variant spec it becomes is
// assigned dynamically by the monitor from the pre-established pool.
package main

import (
	"flag"
	"log"
	"net"
	"os"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/node"
	"repro/internal/securechan"
	"repro/internal/variant"
)

func main() {
	bundleDir := flag.String("bundle", "", "bundle directory from mvtee-tool build (required)")
	connect := flag.String("connect", "127.0.0.1:9000", "monitor address")
	telemetryAddr := flag.String("telemetry-addr", "",
		"telemetry HTTP listen address serving /metrics, /trace and /debug/pprof/; empty disables")
	traceRing := flag.Int("trace-ring", 8192,
		"span ring capacity behind /trace; evictions surface on mvtee_trace_spans_dropped")
	flag.Parse()
	log.SetPrefix("mvtee-variant: ")
	log.SetFlags(0)

	if *bundleDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	node.SetTraceRing(*traceRing)
	if _, err := node.ListenOperator(*telemetryAddr, nil); err != nil {
		log.Print(err)
	}
	if err := run(*bundleDir, *connect); err != nil {
		log.Fatal(err)
	}
}

func run(dir, addr string) error {
	plat, err := core.LoadPlatform(dir)
	if err != nil {
		return err
	}
	verifier := enclave.NewVerifier()
	verifier.Trust(plat)
	encl, vos, err := core.LaunchDirVariant(dir, plat)
	if err != nil {
		return err
	}
	defer encl.Destroy()

	// The monitor may still be coming up: retry the dial, never the session.
	raw, err := node.DialRetry(addr)
	if err != nil {
		return err
	}
	if tc, ok := raw.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	conn, err := securechan.Client(raw, encl, core.AttestedPeer(verifier))
	if err != nil {
		return err
	}
	log.Printf("connected to monitor at %s, awaiting assignment", addr)
	if err := variant.Run(conn, vos, variant.Options{}); err != nil {
		return err
	}
	log.Printf("shutdown")
	return nil
}
