package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	mvtee "repro"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/node"
	"repro/internal/tensor"
	"repro/internal/transcript"
)

// runVerify is the offline transcript auditor: it fetches the signed tree
// head from a serving process's GET /audit endpoint, verifies the head's
// attestation signature and model chaining, checks inclusion and consistency
// proofs, and replays the newest sampled batch through a locally built engine
// — any bitwise output mismatch fails the audit. The local bundle is rebuilt
// deterministically from the model flags (evidence digests are plaintext
// digests, so the rebuilt bundle's model digest matches the server's); with
// -bundle the saved bundle's platform identity and model digest pin the trust
// anchors instead of the endpoint's published identity.
func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:9090", "telemetry base URL serving GET /audit")
	dir := fs.String("bundle", "", "bundle directory pinning the platform identity and model digest (default: trust-on-first-use from the endpoint)")
	name, cfg := modelFlags(fs)
	stagesN := fs.Int("stages", 5, "pipeline partition count the server was deployed with")
	mvxStage := fs.Int("mvx-stage", -1, "stage to protect with 3-variant MVX during replay (-1 = single-variant fast path; bitwise determinism makes both equivalent)")
	traceHex := fs.String("trace", "", "also audit one trace ID (hex, as printed by the serving tier)")
	replay := fs.Bool("replay", true, "replay the newest sampled batch through a locally built engine and require bitwise-identical outputs")
	headFile := fs.String("head-file", "", "pinned-head state file: if present, require a consistency proof from the saved head; the newly verified head is saved back on success")
	if err := fs.Parse(args); err != nil {
		return err
	}

	doc, err := transcript.Fetch(*addr, "")
	if err != nil {
		return err
	}

	// Trust anchors: the bundle's platform identity when available, else the
	// identity the endpoint itself publishes (trust-on-first-use — fine for
	// in-process dev deployments, not for auditing a host you distrust).
	verifier := enclave.NewVerifier()
	switch {
	case *dir != "":
		pubID, err := core.LoadPlatformIdentity(*dir)
		if err != nil {
			return err
		}
		if err := verifier.TrustIdentity(pubID); err != nil {
			return err
		}
	case len(doc.Identity) > 0:
		fmt.Fprintln(os.Stderr, "verify: WARNING: trusting the platform identity published by the endpoint (no -bundle)")
		if err := verifier.TrustIdentity(doc.Identity); err != nil {
			return err
		}
	default:
		return fmt.Errorf("no trust anchor: endpoint published no identity and no -bundle given")
	}

	// The expected model digest: from the saved bundle when pinned, else from
	// a deterministic local rebuild (also needed for replay).
	var model transcript.Hash
	var bundle *mvtee.Bundle
	if *replay || *dir == "" {
		bundle, err = mvtee.BuildBundle(mvtee.OfflineConfig{
			ModelName:        *name,
			ModelConfig:      mvtee.ModelConfig{Scale: cfg.Scale, InputSize: cfg.InputSize, Depth: cfg.Depth},
			PartitionTargets: []int{*stagesN},
			Specs:            mvtee.RealSetupSpecs(),
		})
		if err != nil {
			return fmt.Errorf("rebuild bundle: %w", err)
		}
		model = bundle.ModelDigest()
	}
	if *dir != "" {
		meta, err := core.LoadMeta(*dir)
		if err != nil {
			return err
		}
		model = meta.ModelDigest()
	}

	aud := &transcript.Auditor{
		Verifier: verifier,
		Measurements: []enclave.Measurement{
			enclave.Measure(core.MonitorImage()),
			enclave.Measure(core.RouterImage()),
		},
		Model: model,
	}

	if _, err := aud.VerifyDoc(doc); err != nil {
		return fmt.Errorf("head rejected: %w", err)
	}
	head := doc.Head.Head
	fmt.Printf("head verified: size %d, root %x (live size %d, dropped %d)\n",
		head.Size, head.Root[:8], doc.Size, doc.Dropped)

	// Cross-run pinning: a saved head must extend into the current one, or
	// the server rewrote history between audits.
	if *headFile != "" {
		if old, ok, err := loadHead(*headFile); err != nil {
			return err
		} else if ok {
			cdoc, err := transcript.Fetch(*addr, "consistency="+strconv.FormatUint(old.Size, 10))
			if err != nil {
				return err
			}
			if err := aud.VerifyConsistencyWith(old, cdoc); err != nil {
				return fmt.Errorf("consistency from pinned head (size %d) rejected: %w", old.Size, err)
			}
			fmt.Printf("consistency verified: pinned size %d extends into size %d\n", old.Size, cdoc.Head.Head.Size)
			head = cdoc.Head.Head
		}
	}

	if *traceHex != "" {
		tdoc, err := transcript.Fetch(*addr, "trace="+*traceHex)
		if err != nil {
			return err
		}
		leaf, err := aud.VerifyDoc(tdoc)
		if err != nil {
			return fmt.Errorf("trace %s rejected: %w", *traceHex, err)
		}
		if leaf == nil {
			return fmt.Errorf("trace %s: document carried no leaf", *traceHex)
		}
		fmt.Printf("trace %s verified: batch %d, %d checkpoints, %d votes, rung %d\n",
			*traceHex, leaf.Batch, len(leaf.Checkpoints), len(leaf.Votes), leaf.Rung)
	}

	if *replay {
		sdoc, err := transcript.Fetch(*addr, "sample=1")
		if err != nil {
			return err
		}
		leaf, err := aud.VerifyDoc(sdoc)
		if err != nil {
			return fmt.Errorf("sample leaf rejected: %w", err)
		}
		if leaf == nil {
			return fmt.Errorf("sample document carried no leaf")
		}
		run, closeDep, err := replayEngine(bundle, *stagesN, *mvxStage)
		if err != nil {
			return err
		}
		defer closeDep()
		if err := transcript.Replay(leaf, sdoc.Inputs, run); err != nil {
			return fmt.Errorf("replay of batch %d failed: %w", leaf.Batch, err)
		}
		fmt.Printf("replay verified: batch %d reproduced bitwise on a locally built engine\n", leaf.Batch)
	}

	if *headFile != "" {
		if err := saveHead(*headFile, head); err != nil {
			return err
		}
		fmt.Printf("head pinned to %s (size %d)\n", *headFile, head.Size)
	}
	return nil
}

// replayEngine deploys the serving daemon's in-process pipeline from the
// rebuilt bundle and returns a run function executing one batch through it.
func replayEngine(bundle *mvtee.Bundle, stages, mvxStage int) (transcript.ReplayFunc, func(), error) {
	if bundle == nil {
		return nil, nil, fmt.Errorf("replay requires a locally rebuilt bundle")
	}
	n, err := node.Deploy(node.Options{Model: bundle.Model.Name, Stages: stages, MVXStage: mvxStage}, bundle)
	if err != nil {
		return nil, nil, fmt.Errorf("deploy replay engine: %w", err)
	}
	run := func(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
		res, err := n.Local.Infer(inputs)
		if err != nil {
			return nil, err
		}
		return res.Tensors, nil
	}
	return run, n.Close, nil
}

func loadHead(path string) (transcript.TreeHead, bool, error) {
	var h transcript.TreeHead
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return h, false, nil
	}
	if err != nil {
		return h, false, err
	}
	if err := json.Unmarshal(b, &h); err != nil {
		return h, false, fmt.Errorf("bad head file %s: %w", path, err)
	}
	return h, true, nil
}

func saveHead(path string, h transcript.TreeHead) error {
	b, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
