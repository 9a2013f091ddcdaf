package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/enclave"
	"repro/internal/manifest"
	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/teeos"
	"repro/internal/variant"
)

// SpareFactoryConfig wires DirSpareFactory to a process-separated monitor
// running against a saved bundle directory.
type SpareFactoryConfig struct {
	// Dir is the bundle directory (mvtee-tool build output).
	Dir string
	// SetIdx selects the partition set, matching the monitor's provisioning.
	SetIdx int
	// Monitor receives the synthesized spares via AddSpare.
	Monitor *monitor.Monitor
	// MonitorEnclave attests the monitor's side of each in-memory channel.
	MonitorEnclave *enclave.Enclave
	// Platform launches the variant enclaves (the bundle's shared simulated
	// platform, already trusted by Verifier).
	Platform *enclave.Platform
	// Verifier checks both handshake directions.
	Verifier *enclave.Verifier
	// KeyFor resolves a pool entry key to its KDK (the monitor's owner-
	// provisioned table or the on-disk key table).
	KeyFor func(entryKey string) ([]byte, bool)
}

// DirSpareFactory builds the spare-provisioning hook for process-separated
// monitors (cmd/mvtee-monitor): each invocation launches a fresh variant TEE
// in-process from the bundle's init manifest — the exact boot sequence
// cmd/mvtee-variant performs, minus the TCP socket — connects it to the
// monitor over an in-memory attested channel, and registers it with AddSpare.
// The synthesized spare idles in stage-1 bootstrap until a Recover response
// promotes it into a dead slot. Specs cycle through the partition's spare
// plan (falling back to its variant plan) so successive spares stay
// heterogeneous, mirroring Deployment.ProvisionSpare.
func DirSpareFactory(cfg SpareFactoryConfig) (func(partition int) error, error) {
	meta, err := LoadMeta(cfg.Dir)
	if err != nil {
		return nil, err
	}
	imb, err := os.ReadFile(filepath.Join(cfg.Dir, InitManFile))
	if err != nil {
		return nil, fmt.Errorf("core: spare factory: %w", err)
	}
	im, err := manifest.Unmarshal(imb)
	if err != nil {
		return nil, fmt.Errorf("core: spare factory: %w", err)
	}
	host := teeos.DirFS(cfg.Dir)
	initBin, err := host.Get(InitEntrypoint)
	if err != nil {
		return nil, fmt.Errorf("core: spare factory: %w", err)
	}
	verify := func(r *enclave.Report) error {
		if r == nil {
			return fmt.Errorf("core: peer presented no attestation report")
		}
		return cfg.Verifier.Verify(r, nil)
	}

	var mu sync.Mutex
	seq := 0
	return func(partition int) error {
		mvx := cfg.Monitor.Config()
		if mvx == nil {
			return fmt.Errorf("core: spare factory: monitor not provisioned")
		}
		if partition < 0 {
			partition = 0
		}
		if partition >= len(mvx.Plans) {
			return fmt.Errorf("core: spare factory: partition %d out of range", partition)
		}
		specs := mvx.Plans[partition].Variants
		if partition < len(mvx.Spares) && len(mvx.Spares[partition].Variants) > 0 {
			specs = mvx.Spares[partition].Variants
		}
		if len(specs) == 0 {
			return fmt.Errorf("core: spare factory: partition %d has no specs", partition)
		}
		mu.Lock()
		seq++
		n := seq
		mu.Unlock()
		spec := specs[n%len(specs)]

		key := EntryKeyFor(cfg.SetIdx, partition, spec)
		kdk, ok := cfg.KeyFor(key)
		if !ok {
			return fmt.Errorf("core: spare factory: no pool key for %s", key)
		}
		e := Entry{Set: cfg.SetIdx, Partition: partition, Spec: spec}

		encl, err := cfg.Platform.Launch(enclave.Image{
			Name:         "mvtee-variant",
			Code:         initBin,
			InitialPages: 64 << 20,
		})
		if err != nil {
			return fmt.Errorf("core: spare factory: %w", err)
		}
		vos, err := teeos.New(encl, im, host, nil)
		if err != nil {
			encl.Destroy()
			return fmt.Errorf("core: spare factory: %w", err)
		}

		monRaw, varRaw := bufferedPipe()
		type hsres struct {
			c   securechan.Conn
			err error
		}
		vCh := make(chan hsres, 1)
		go func() {
			c, err := securechan.Server(varRaw, encl, verify)
			vCh <- hsres{c, err}
		}()
		mc, err := securechan.Client(monRaw, cfg.MonitorEnclave, verify)
		vr := <-vCh
		if err != nil || vr.err != nil {
			if mc != nil {
				_ = mc.Close()
			}
			if vr.c != nil {
				_ = vr.c.Close()
			}
			encl.Destroy()
			if err != nil {
				return fmt.Errorf("core: spare factory handshake: %w", err)
			}
			return fmt.Errorf("core: spare factory handshake: %w", vr.err)
		}
		// The variant serves (or idles in bootstrap) until its channel closes:
		// RetireSpare tears an unclaimed spare down, engine shutdown a
		// promoted one. The enclave is destroyed when the loop exits.
		go func() {
			_ = variant.Run(vr.c, vos, variant.Options{})
			encl.Destroy()
		}()

		cfg.Monitor.AddSpare(mc, monitor.Assignment{
			VariantID:  fmt.Sprintf("autospare-p%d-%s-%d", partition, spec, n),
			Partition:  partition,
			Spec:       spec,
			KDK:        kdk,
			Manifest:   e.ManifestPath(),
			Files:      []string{e.GraphPath(), e.SpecPath()},
			Entrypoint: e.EntrypointPath(),
			Evidence:   meta.Evidence[key],
		})
		return nil
	}, nil
}
