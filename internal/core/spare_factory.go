package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/enclave"
	"repro/internal/manifest"
	"repro/internal/monitor"
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
	// Monitor receives the synthesized spares via AddSpare; its enclave
	// attests the monitor's side of each in-memory channel.
	Monitor *monitor.Monitor
	// Platform launches the variant enclaves (the bundle's shared simulated
	// platform, already trusted by Verifier).
	Platform *enclave.Platform
	// Verifier checks both handshake directions.
	Verifier *enclave.Verifier
	// KeyFor resolves a pool entry key to its KDK (the monitor's owner-
	// provisioned table or the on-disk key table).
	KeyFor func(entryKey string) ([]byte, bool)
}

// LaunchDirVariant boots a variant TEE on plat from a saved bundle's public
// stage-1 material: the init manifest and the measured init binary every
// variant boots with. The variant then waits for the monitor to assign it a
// pool entry.
func LaunchDirVariant(dir string, plat *enclave.Platform) (*enclave.Enclave, *teeos.OS, error) {
	imb, err := os.ReadFile(filepath.Join(dir, InitManFile))
	if err != nil {
		return nil, nil, err
	}
	im, err := manifest.Unmarshal(imb)
	if err != nil {
		return nil, nil, err
	}
	host := teeos.DirFS(dir)
	initBin, err := host.Get(InitEntrypoint)
	if err != nil {
		return nil, nil, err
	}
	encl, err := plat.Launch(variantImage(initBin))
	if err != nil {
		return nil, nil, err
	}
	vos, err := teeos.New(encl, im, host, nil)
	if err != nil {
		encl.Destroy()
		return nil, nil, err
	}
	return encl, vos, nil
}

// DirSpareFactory builds the spare-provisioning hook for process-separated
// monitors (cmd/mvtee-monitor): each invocation launches a fresh variant TEE
// in process with LaunchDirVariant — the boot sequence cmd/mvtee-variant
// performs, minus the TCP socket — connects it to the monitor over an
// in-memory attested channel, and registers it with AddSpare. The
// synthesized spare idles in stage-1 bootstrap until a Recover response
// promotes it into a dead slot. The spec choice is nextSpare's, as for
// Deployment.ProvisionSpare.
func DirSpareFactory(cfg SpareFactoryConfig) (func(partition int) error, error) {
	meta, err := LoadMeta(cfg.Dir)
	if err != nil {
		return nil, err
	}
	verify := AttestedPeer(cfg.Verifier)

	var mu sync.Mutex
	seq := 0
	return func(partition int) error {
		mvx := cfg.Monitor.Config()
		if mvx == nil {
			return fmt.Errorf("core: spare factory: monitor not provisioned")
		}
		mu.Lock()
		seq++
		c, err := nextSpare(mvx, cfg.SetIdx, partition, seq)
		mu.Unlock()
		if err != nil {
			return err
		}
		key := entryKey(c.Entry)
		kdk, ok := cfg.KeyFor(key)
		if !ok {
			return fmt.Errorf("core: spare factory: no pool key for %s", key)
		}
		encl, vos, err := LaunchDirVariant(cfg.Dir, cfg.Platform)
		if err != nil {
			return fmt.Errorf("core: spare factory: %w", err)
		}
		monRaw, varRaw := bufferedPipe()
		mc, vc, err := handshake(monRaw, varRaw, cfg.Monitor.Enclave(), encl, verify)
		if err != nil {
			encl.Destroy()
			return fmt.Errorf("core: spare factory: %w", err)
		}
		// The variant serves (or idles in bootstrap) until its channel closes:
		// RetireSpare tears an unclaimed spare down, engine shutdown a
		// promoted one. The enclave is destroyed when the loop exits.
		go func() {
			_ = variant.Run(vc, vos, variant.Options{})
			encl.Destroy()
		}()
		cfg.Monitor.AddSpare(mc, c.Entry.Assignment(c.ID, kdk, meta.Evidence[key]))
		return nil
	}, nil
}
