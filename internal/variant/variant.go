// Package variant implements the variant-TEE side of MVTEE: the init-variant
// of the two-stage bootstrap (§4.3, Figure 5) and the main variant's serve
// loop that executes its partition subgraph on checkpoint batches.
//
// Stage 1 (init-variant, public manifest): receive the variant-specific key
// from the monitor over the attested channel, install it into the TEE OS,
// install the decrypted second-stage manifest one time, report installation
// evidence, and exec() into stage 2. Stage 2 (main variant, second-stage
// manifest): load the encrypted partition graph and variant spec, build the
// diversified inference runtime, and serve batches.
package variant

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/attest"
	"repro/internal/diversify"
	"repro/internal/enclave"
	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/securechan"
	"repro/internal/teeos"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Options adjusts variant construction.
type Options struct {
	// ConfigureRuntime, if set, post-processes the runtime configuration
	// resolved from the variant spec before the executor is built. The
	// faults package uses this hook to arm injected vulnerabilities; tests
	// use it to tweak parallelism.
	ConfigureRuntime func(infer.Config) infer.Config
	// TransformGraph, if set, post-processes the decrypted partition graph
	// (e.g., a Rowhammer-style weight bit flip).
	TransformGraph func(*graph.Graph)
}

// Run executes the complete variant lifecycle on an established monitor
// channel: bootstrap (stage 1), then serving (stage 2) until shutdown. It
// returns nil on clean shutdown.
func Run(conn securechan.Conn, os *teeos.OS, opts Options) error {
	v, err := Bootstrap(conn, os, opts)
	if err != nil {
		_ = wire.Send(conn, &wire.Error{Message: err.Error()})
		return err
	}
	return v.Serve(conn)
}

// Variant is a stage-2 main variant ready to serve inference.
type Variant struct {
	ID string
	// Resume is the first batch ID this variant serves: zero on initial
	// binding, the successor of the dead predecessor's last batch when the
	// variant was hot-replaced into a running pipeline (§2.4 recover).
	Resume uint64
	os     *teeos.OS
	exec   infer.Executor
}

// Executor exposes the variant's inference runtime (for tests).
func (v *Variant) Executor() infer.Executor { return v.exec }

// ErrBootstrap wraps stage-1 failures.
var ErrBootstrap = errors.New("variant: bootstrap failed")

// Bootstrap runs the init-variant protocol (stage 1) and the exec()
// transition, returning the stage-2 main variant.
func Bootstrap(conn securechan.Conn, os *teeos.OS, opts Options) (*Variant, error) {
	msg, err := wire.Recv(conn)
	if err != nil {
		return nil, fmt.Errorf("%w: receive assignment: %v", ErrBootstrap, err)
	}
	assign, ok := msg.(*wire.AssignKey)
	if !ok {
		return nil, fmt.Errorf("%w: expected AssignKey, got %T", ErrBootstrap, msg)
	}

	// Install the variant-specific key (stage-1-only interface).
	if err := os.InstallKey(assign.KDK); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBootstrap, err)
	}

	// Fetch and decrypt the second-stage manifest, then install it one-time
	// through the TEE OS pseudo-fs interface.
	manifestPath := string(assign.ManifestPB)
	manifestBytes, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, fmt.Errorf("%w: fetch manifest %q: %v", ErrBootstrap, manifestPath, err)
	}
	evidence, err := os.InstallSecondStage(manifestBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: install second stage: %v", ErrBootstrap, err)
	}
	if err := wire.Send(conn, &wire.Installed{VariantID: assign.VariantID, Evidence: evidence}); err != nil {
		return nil, fmt.Errorf("%w: report evidence: %v", ErrBootstrap, err)
	}
	msg, err = wire.Recv(conn)
	if err != nil {
		return nil, fmt.Errorf("%w: await binding: %v", ErrBootstrap, err)
	}
	bound, ok := msg.(*wire.Bound)
	if !ok {
		return nil, fmt.Errorf("%w: expected Bound, got %T", ErrBootstrap, msg)
	}

	// One-way stage transition: the TEE OS resets state and enforces the
	// second-stage manifest from here on.
	if err := os.Exec(assign.Entrypoint); err != nil {
		return nil, fmt.Errorf("%w: exec transition: %v", ErrBootstrap, err)
	}

	// Stage 2: load the encrypted partition graph and spec.
	var graphPath, specPath string
	for _, f := range assign.Files {
		switch {
		case strings.HasSuffix(f, "graph.pf"):
			graphPath = f
		case strings.HasSuffix(f, "spec.pf"):
			specPath = f
		}
	}
	if graphPath == "" || specPath == "" {
		return nil, fmt.Errorf("%w: assignment lacks graph.pf/spec.pf files (%v)", ErrBootstrap, assign.Files)
	}
	gb, err := os.ReadFile(graphPath)
	if err != nil {
		return nil, fmt.Errorf("%w: load graph: %v", ErrBootstrap, err)
	}
	// Commit secure memory for the decrypted model via dynamic memory
	// management where the TEE supports it (§5.2: EDMM keeps the initial
	// commitment — and thus TEE initialization cost — small).
	if err := os.Enclave().Grow(int64(len(gb))); err != nil && !errors.Is(err, enclave.ErrNoEDMM) {
		return nil, fmt.Errorf("%w: commit secure memory: %v", ErrBootstrap, err)
	}
	sb, err := os.ReadFile(specPath)
	if err != nil {
		return nil, fmt.Errorf("%w: load spec: %v", ErrBootstrap, err)
	}
	g, err := graph.Unmarshal(gb)
	if err != nil {
		return nil, fmt.Errorf("%w: decode graph: %v", ErrBootstrap, err)
	}
	spec, err := diversify.ParseSpec(sb)
	if err != nil {
		return nil, fmt.Errorf("%w: decode spec: %v", ErrBootstrap, err)
	}
	cfg, err := spec.RuntimeConfig()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBootstrap, err)
	}
	if opts.TransformGraph != nil {
		opts.TransformGraph(g)
	}
	if opts.ConfigureRuntime != nil {
		cfg = opts.ConfigureRuntime(cfg)
	}
	ex, err := infer.New(g, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: build runtime: %v", ErrBootstrap, err)
	}
	return &Variant{ID: assign.VariantID, Resume: bound.Resume, os: os, exec: ex}, nil
}

// Serve processes monitor messages until shutdown or connection loss:
// batches run through the inference runtime (kernel failures are reported
// per-batch, which the monitor's vote treats as dissent), attestation
// challenges are answered by the enclave, and Shutdown ends the loop.
func (v *Variant) Serve(conn securechan.Conn) error {
	for {
		msg, err := wire.Recv(conn)
		if err != nil {
			return fmt.Errorf("variant %s: receive: %w", v.ID, err)
		}
		switch m := msg.(type) {
		case *wire.Batch:
			res := &wire.Result{ID: m.ID, Trace: m.Trace, VariantID: v.ID}
			var t0 time.Time
			if m.Trace != 0 {
				t0 = time.Now()
			}
			outs, err := v.exec.Run(m.Tensors)
			if err != nil {
				res.Err = err.Error()
			} else {
				res.Tensors = outs
			}
			if !t0.IsZero() {
				telemetry.DefaultTracer.Record(telemetry.Span{
					Trace: m.Trace, Batch: m.ID, Name: "variant-compute",
					Stage: -1, Variant: v.ID,
					Start: t0.UnixNano(), End: time.Now().UnixNano(),
				})
			}
			if err := wire.Send(conn, res); err != nil {
				return fmt.Errorf("variant %s: send result: %w", v.ID, err)
			}
		case *wire.AttestReq:
			rep, err := attest.Respond(v.os.Enclave(), m.Nonce, m.Context)
			if err != nil {
				_ = wire.Send(conn, &wire.Error{Message: err.Error()})
				continue
			}
			rb, err := rep.Marshal()
			if err != nil {
				_ = wire.Send(conn, &wire.Error{Message: err.Error()})
				continue
			}
			if err := wire.Send(conn, &wire.AttestResp{Report: rb}); err != nil {
				return fmt.Errorf("variant %s: send report: %w", v.ID, err)
			}
		case *wire.Shutdown:
			return nil
		default:
			_ = wire.Send(conn, &wire.Error{Message: fmt.Sprintf("variant %s: unexpected %T", v.ID, msg)})
		}
	}
}
