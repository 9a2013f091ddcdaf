package pipesim

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/monitor"
	"repro/internal/pfcrypt"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// CalibrationConfig tunes profile construction.
type CalibrationConfig struct {
	// Plans is the MVX plan (one per partition), as in monitor.MVXConfig.
	Plans []monitor.PartitionPlan
	// Async carries over to the profile.
	Async bool
	// Policy is the consistency policy used to cost checks; empty means
	// the default.
	Policy check.Policy
	// TEEFactor scales communication and checking costs to model
	// SGX-class enclave-transition and secure-memory overheads; 0 means 1
	// (raw host costs).
	TEEFactor float64
	// Plain disables the AES-GCM portion of transfer costing (the Figure
	// 10 no-encryption baseline).
	Plain bool
	// Reps is the number of measurement repetitions (min taken); 0 means 3.
	Reps int
}

// Calibrate builds a simulation profile for one partition set of a bundle by
// executing every (partition, variant) pair of the plan on this host and
// measuring service, transfer and check costs. Each variant runs the entry
// the bundle ships: its graph and spec decrypted from FS with the entry's key,
// as a variant TEE loads them.
func Calibrate(b *core.Bundle, setIdx int, input *tensor.Tensor, cfg CalibrationConfig) (*Profile, error) {
	if setIdx < 0 || setIdx >= len(b.Sets) {
		return nil, fmt.Errorf("pipesim: set %d out of range", setIdx)
	}
	set := b.Sets[setIdx]
	if len(cfg.Plans) != len(set.Partitions) {
		return nil, fmt.Errorf("pipesim: %d plans for %d partitions", len(cfg.Plans), len(set.Partitions))
	}
	if cfg.TEEFactor == 0 {
		cfg.TEEFactor = 1
	}
	if cfg.Reps == 0 {
		cfg.Reps = 3
	}
	if len(cfg.Policy.Criteria) == 0 {
		cfg.Policy = check.DefaultPolicy()
	}

	// Producer map: tensor -> producing stage.
	producedBy := make(map[string]int)
	for pi, p := range set.Partitions {
		for _, o := range p.Outputs {
			producedBy[o.Name] = pi
		}
	}
	modelOut := make(map[string]bool)
	for _, o := range b.Model.Outputs {
		modelOut[o] = true
	}

	// Reference forward pass capturing boundary tensors.
	values := map[string]*tensor.Tensor{}
	for _, vi := range b.Model.Inputs {
		values[vi.Name] = input
	}

	prof := &Profile{Async: cfg.Async}
	for pi, part := range set.Partitions {
		sp := StageProfile{}
		depSet := map[int]bool{}
		ins := make(map[string]*tensor.Tensor, len(part.Inputs))
		for _, bd := range part.Inputs {
			t, ok := values[bd.Name]
			if !ok {
				return nil, fmt.Errorf("pipesim: stage %d input %q unavailable (topological order violated)", pi, bd.Name)
			}
			ins[bd.Name] = t
			if d, ok := producedBy[bd.Name]; ok && d != pi {
				depSet[d] = true
			}
		}
		for d := range depSet {
			sp.Deps = append(sp.Deps, d)
		}
		for _, bd := range part.Outputs {
			if modelOut[bd.Name] {
				sp.Output = true
			}
		}

		// Reference outputs for downstream stages and check costing: use the
		// first claimed variant.
		var refOut map[string]*tensor.Tensor
		for _, specName := range cfg.Plans[pi].Variants {
			g, rc, err := openEntry(b, core.Entry{Set: setIdx, Partition: pi, Spec: specName})
			if err != nil {
				return nil, fmt.Errorf("pipesim: stage %d spec %s: %w", pi, specName, err)
			}
			ex, err := infer.New(g, rc)
			if err != nil {
				return nil, fmt.Errorf("pipesim: stage %d spec %s: %w", pi, specName, err)
			}
			svc, out, err := measureService(ex, ins, cfg.Reps)
			if err != nil {
				return nil, fmt.Errorf("pipesim: stage %d spec %s: %w", pi, specName, err)
			}
			sp.Service = append(sp.Service, svc)
			if refOut == nil {
				refOut = out
			}
		}
		for name, t := range refOut {
			values[name] = t
		}

		k := len(sp.Service)
		inCost, err := measureTransfer(ins, cfg.Reps, cfg.Plain)
		if err != nil {
			return nil, err
		}
		outCost, err := measureTransfer(refOut, cfg.Reps, cfg.Plain)
		if err != nil {
			return nil, err
		}
		// Each of the k variants receives the input and returns its output
		// through the monitor's encrypted channels.
		sp.TransferIn = time.Duration(float64(inCost) * float64(k) * cfg.TEEFactor)
		sp.TransferOut = time.Duration(float64(outCost) * float64(k) * cfg.TEEFactor)
		if k > 1 {
			perPair, err := measureCheck(refOut, cfg.Policy, cfg.Reps)
			if err != nil {
				return nil, err
			}
			pairs := k * (k - 1) / 2
			sp.Check = time.Duration(float64(perPair) * float64(pairs) * cfg.TEEFactor)
		}
		prof.Stages = append(prof.Stages, sp)
	}
	return prof, nil
}

// openEntry decrypts a shipped pool entry's graph and spec.
func openEntry(b *core.Bundle, e core.Entry) (*graph.Graph, infer.Config, error) {
	kdk, ok := b.Keys[e]
	if !ok {
		return nil, infer.Config{}, fmt.Errorf("bundle ships no entry %s", e.GraphPath())
	}
	gb, err := pfcrypt.Decrypt(kdk, e.GraphPath(), b.FS[e.GraphPath()])
	if err != nil {
		return nil, infer.Config{}, err
	}
	sb, err := pfcrypt.Decrypt(kdk, e.SpecPath(), b.FS[e.SpecPath()])
	if err != nil {
		return nil, infer.Config{}, err
	}
	g, err := graph.Unmarshal(gb)
	if err != nil {
		return nil, infer.Config{}, err
	}
	spec, err := diversify.ParseSpec(sb)
	if err != nil {
		return nil, infer.Config{}, err
	}
	rc, err := spec.RuntimeConfig()
	return g, rc, err
}

// CalibrateBaseline measures the unpartitioned model's single-inference
// service time for SimulateBaseline.
func CalibrateBaseline(ex infer.Executor, input *tensor.Tensor, reps int) (time.Duration, error) {
	if reps == 0 {
		reps = 3
	}
	ins := map[string]*tensor.Tensor{"image": input}
	svc, _, err := measureService(ex, ins, reps)
	return svc, err
}

func measureService(ex infer.Executor, ins map[string]*tensor.Tensor, reps int) (time.Duration, map[string]*tensor.Tensor, error) {
	var out map[string]*tensor.Tensor
	var err error
	// Warmup.
	if out, err = ex.Run(ins); err != nil {
		return 0, nil, err
	}
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		out, err = ex.Run(ins)
		el := time.Since(start)
		if err != nil {
			return 0, nil, err
		}
		if el < best {
			best = el
		}
	}
	return best, out, nil
}

// measureTransfer times one monitor<->variant hop for the tensor map the way
// the data plane ships it (SecureConn.SendBuf, then Recv): MarshalBuf into a
// pooled frame, an in-place AES-GCM-256 seal and open of the payload (unless
// plain), and decoding.
func measureTransfer(ts map[string]*tensor.Tensor, reps int, plain bool) (time.Duration, error) {
	if len(ts) == 0 {
		return 0, nil
	}
	msg := &wire.Batch{ID: 1, Tensors: ts}
	key := make([]byte, 32)
	blk, err := aes.NewCipher(key)
	if err != nil {
		return 0, err
	}
	gcm, err := cipher.NewGCM(blk)
	if err != nil {
		return 0, err
	}
	nonce := make([]byte, gcm.NonceSize())
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		buf, err := wire.MarshalBuf(msg)
		if err != nil {
			return 0, err
		}
		pt := buf.Payload()
		if !plain {
			ct := gcm.Seal(pt[:0], nonce, pt, nil)
			pt, err = gcm.Open(ct[:0], nonce, ct, nil)
		}
		if err == nil {
			_, err = wire.Unmarshal(pt)
		}
		buf.Free()
		if err != nil {
			return 0, err
		}
		if el := time.Since(start); el < best {
			best = el
		}
	}
	return best, nil
}

// measureCheck times one pairwise consistency evaluation on the checkpoint
// tensors.
func measureCheck(ts map[string]*tensor.Tensor, pol check.Policy, reps int) (time.Duration, error) {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		ok, err := check.Consistent(ts, ts, pol)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("pipesim: self-comparison inconsistent")
		}
		if el := time.Since(start); el < best {
			best = el
		}
	}
	return best, nil
}
