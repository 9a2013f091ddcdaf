package core

import (
	"strings"
	"testing"

	"repro/internal/attest"
	"repro/internal/diversify"
	"repro/internal/enclave"
	"repro/internal/monitor"
	"repro/internal/wire"
)

// TestDirSpareFactoryProvisionsIdleSpare exercises the process-separated
// monitor's spare path end to end against a saved bundle directory: the
// factory must boot a fresh variant TEE from disk, complete the mutual
// attested handshake over an in-memory channel, and register the idle spare
// with the monitor — turning the controller's ProvisionSpare from a no-op
// error into a real scale-up actuator for cmd/mvtee-monitor.
func TestDirSpareFactoryProvisionsIdleSpare(t *testing.T) {
	b, err := BuildBundle(OfflineConfig{
		ModelName:        "mobilenetv3",
		PartitionTargets: []int{2},
		Specs:            []diversify.Spec{diversify.ReplicaSpec("replica")},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := b.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Process-separated bring-up, as node.Monitor does it for cmd/mvtee-monitor.
	meta, err := LoadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := LoadPlatform(dir)
	if err != nil {
		t.Fatal(err)
	}
	verifier := enclave.NewVerifier()
	verifier.Trust(plat)
	monEncl, err := plat.Launch(MonitorImage())
	if err != nil {
		t.Fatal(err)
	}
	defer monEncl.Destroy()
	mon := monitor.New(monEncl, verifier)

	nonce, err := attest.NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	mvx := &monitor.MVXConfig{
		Model: meta.Model,
		Plans: []monitor.PartitionPlan{
			{Variants: []string{"replica"}},
			{Variants: []string{"replica"}},
		},
	}
	cfgJSON, err := mvx.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Provision(&wire.Provision{Nonce: nonce, Config: cfgJSON}); err != nil {
		t.Fatal(err)
	}
	keys, err := LoadKeys(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Before the factory is wired, scale-up must fail loudly.
	if err := mon.ProvisionSpare(0); err == nil {
		t.Fatal("ProvisionSpare succeeded with no factory configured")
	}

	f, err := DirSpareFactory(SpareFactoryConfig{
		Dir:      dir,
		Monitor:  mon,
		Platform: plat,
		Verifier: verifier,
		KeyFor: func(k string) ([]byte, bool) {
			kk, ok := keys[k]
			return []byte(kk), ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.SetSpareFactory(f)

	if err := mon.ProvisionSpare(1); err != nil {
		t.Fatalf("ProvisionSpare(1): %v", err)
	}
	if got := mon.SpareCount(); got != 1 {
		t.Fatalf("SpareCount() = %d, want 1", got)
	}
	// Partition -1 means "any stage": the factory must normalize, not reject.
	if err := mon.ProvisionSpare(-1); err != nil {
		t.Fatalf("ProvisionSpare(-1): %v", err)
	}
	if got := mon.SpareCount(); got != 2 {
		t.Fatalf("SpareCount() = %d, want 2", got)
	}
	// Unknown partitions must fail without registering anything.
	if err := mon.ProvisionSpare(7); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("ProvisionSpare(7) = %v, want out-of-range error", err)
	}
	if got := mon.SpareCount(); got != 2 {
		t.Fatalf("SpareCount() = %d after failed provision, want 2", got)
	}
	// Scale-down closes the synthesized spare's channel, which terminates its
	// variant goroutine and enclave.
	if !mon.RetireSpare() {
		t.Fatal("RetireSpare() = false with spares in the pool")
	}
	if got := mon.SpareCount(); got != 1 {
		t.Fatalf("SpareCount() = %d after retire, want 1", got)
	}
}
