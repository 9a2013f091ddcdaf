// Package core orchestrates MVTEE end to end, mirroring the usage and
// deployment model of Figure 2:
//
//   - the offline phase (BuildBundle): partition the protected model into one
//     or more partition sets, then diversify and encrypt each pool entry
//     (graph, variant spec and second-stage manifest) under an
//     entry-specific key, one entry at a time — producing the bundle an
//     untrusted orchestrator can place on variant-TEE hosts;
//
//   - the online phase (Deploy): launch the monitor TEE and one variant TEE
//     per claim, run the attested two-stage bootstrap and binding protocol
//     (Figure 6), wire the bound variants into the MVX execution engine, and
//     serve inference sequentially or pipelined.
package core

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/diversify"
	"repro/internal/graph"
	"repro/internal/manifest"
	"repro/internal/models"
	"repro/internal/monitor"
	"repro/internal/partition"
	"repro/internal/pfcrypt"
	"repro/internal/teeos"
)

// OfflineConfig drives the offline ML MVX tool pipeline (§5.1).
type OfflineConfig struct {
	// ModelName selects a zoo model; alternatively set Graph directly.
	ModelName string
	// ModelConfig scales the zoo model.
	ModelConfig models.Config
	// Graph, if non-nil, is used instead of the zoo.
	Graph *graph.Graph
	// PartitionTargets lists the partition counts to generate (one Set per
	// target); empty means [5].
	PartitionTargets []int
	// Sets, if non-nil, supplies precomputed partition sets (e.g. from the
	// manual slicer) instead of running the randomized algorithm.
	Sets []*partition.Set
	// PartitionSeed drives the randomized contraction; 0 means 1.
	PartitionSeed uint64
	// PartitionOptions overrides soft preferences / hard constraints.
	PartitionOptions partition.Options
	// Specs is the variant recipe list; empty means three identical
	// replicas is NOT assumed — callers must pass at least one spec.
	Specs []diversify.Spec
}

// Entry identifies one encrypted pool entry.
type Entry struct {
	Set       int
	Partition int
	Spec      string
}

func (e Entry) dir() string {
	return fmt.Sprintf("pool/set%d/p%d/%s", e.Set, e.Partition, e.Spec)
}

// GraphPath returns the entry's encrypted graph path.
func (e Entry) GraphPath() string { return e.dir() + "/graph.pf" }

// SpecPath returns the entry's encrypted spec path.
func (e Entry) SpecPath() string { return e.dir() + "/spec.pf" }

// ManifestPath returns the entry's encrypted second-stage manifest path.
func (e Entry) ManifestPath() string { return e.dir() + "/manifest.pf" }

// EntrypointPath returns the entry's encrypted main-variant binary path.
func (e Entry) EntrypointPath() string { return e.dir() + "/main.pf" }

// Assignment is the monitor's binding order for a variant TEE serving the
// entry: its key, encrypted files and expected installation evidence.
func (e Entry) Assignment(variantID string, kdk []byte, evidence [32]byte) monitor.Assignment {
	return monitor.Assignment{
		VariantID:  variantID,
		Partition:  e.Partition,
		Spec:       e.Spec,
		KDK:        kdk,
		Manifest:   e.ManifestPath(),
		Files:      []string{e.GraphPath(), e.SpecPath()},
		Entrypoint: e.EntrypointPath(),
		Evidence:   evidence,
	}
}

// Bundle is the output of the offline phase: the model graph, the partition
// sets, the encrypted variant pool, the per-entry keys (held by the model
// owner and provisioned to the monitor), and the expected installation
// evidence. No diversified variant graph is kept in the clear: each pool
// entry exists only as ciphertext in FS, openable with its key in Keys.
type Bundle struct {
	Model       *graph.Graph
	Partitioner *partition.Partitioner
	Sets        []*partition.Set
	Specs       []diversify.Spec
	// FS carries the encrypted pool files plus the public init-variant
	// files — what the untrusted orchestrator ships to variant hosts.
	FS teeos.MapFS
	// Keys maps pool entries to their variant-specific KDKs (model-owner
	// secret, provisioned to the monitor over the attested channel).
	Keys map[Entry]pfcrypt.KDK
	// Evidence maps pool entries to the expected second-stage manifest
	// digests.
	Evidence map[Entry][32]byte
	// InitManifest is the public stage-1 manifest all variant TEEs boot
	// with.
	InitManifest *manifest.Manifest
	// InitBinary is the measured init-variant payload.
	InitBinary []byte
}

// InitEntrypoint is the stage-1 entrypoint path.
const InitEntrypoint = "bin/init-variant"

// BuildBundle runs the offline pipeline: model construction (or the provided
// graph), partitioning into every requested set, then multi-level variant
// generation and encryption streamed per (set, partition, spec) entry.
func BuildBundle(cfg OfflineConfig) (*Bundle, error) {
	g := cfg.Graph
	if g == nil {
		var err error
		g, err = models.Build(cfg.ModelName, cfg.ModelConfig)
		if err != nil {
			return nil, err
		}
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("core: no variant specs given")
	}
	targets := cfg.PartitionTargets
	if len(targets) == 0 {
		targets = []int{5}
	}
	p, err := partition.NewPartitioner(g)
	if err != nil {
		return nil, err
	}
	opts := cfg.PartitionOptions
	if opts.Seed == 0 {
		opts.Seed = cfg.PartitionSeed
	}
	sets := cfg.Sets
	if sets == nil {
		sets, err = p.GenerateSets(targets, opts)
		if err != nil {
			return nil, err
		}
	}

	b := &Bundle{
		Model:       g,
		Partitioner: p,
		Sets:        sets,
		Specs:       cfg.Specs,
		FS:          make(teeos.MapFS),
		Keys:        make(map[Entry]pfcrypt.KDK),
		Evidence:    make(map[Entry][32]byte),
		InitBinary:  []byte("mvtee init-variant v1"),
	}
	b.FS[InitEntrypoint] = b.InitBinary

	im := &manifest.Manifest{
		Entrypoint:      InitEntrypoint,
		EncryptedFiles:  []string{"pool/*"},
		AllowedSyscalls: []string{"connect", "recvfrom", "sendto", "openat", "close", "execve"},
		TwoStage:        true,
	}
	im.AddTrustedFile(InitEntrypoint, b.InitBinary)
	b.InitManifest = im

	// One entry at a time: its diversified graph and plaintext encoding are
	// garbage as soon as its ciphertext is in FS, so the build never holds
	// more than one plaintext variant.
	for si, set := range sets {
		for pi := range set.Partitions {
			sub, err := p.Extract(set, pi)
			if err != nil {
				return nil, err
			}
			for _, spec := range cfg.Specs {
				dg, err := diversify.Apply(spec, sub)
				if err != nil {
					return nil, fmt.Errorf("core: set %d partition %d: %w", si, pi, err)
				}
				if err := b.encryptEntry(Entry{Set: si, Partition: pi, Spec: spec.Name}, spec, dg); err != nil {
					return nil, err
				}
			}
		}
	}
	return b, nil
}

// encryptEntry generates the entry's KDK, second-stage manifest and
// encrypted files.
func (b *Bundle) encryptEntry(e Entry, spec diversify.Spec, g *graph.Graph) error {
	kdk, err := pfcrypt.NewKDK()
	if err != nil {
		return err
	}
	b.Keys[e] = kdk

	mainBin := []byte("mvtee main-variant " + spec.Name)
	m2 := &manifest.Manifest{
		Entrypoint:            e.EntrypointPath(),
		EncryptedFiles:        []string{e.GraphPath(), e.SpecPath(), e.EntrypointPath()},
		AllowedSyscalls:       []string{"recvfrom", "sendto", "close"},
		ExecFromEncryptedOnly: true,
	}
	m2b, err := m2.Marshal()
	if err != nil {
		return fmt.Errorf("core: entry %v manifest: %w", e, err)
	}
	b.Evidence[e] = sha256.Sum256(m2b)

	gb, err := graph.Marshal(g)
	if err != nil {
		return fmt.Errorf("core: entry %v graph: %w", e, err)
	}
	sb, err := spec.Marshal()
	if err != nil {
		return fmt.Errorf("core: entry %v spec: %w", e, err)
	}
	for _, f := range []struct {
		path string
		data []byte
	}{
		{e.GraphPath(), gb},
		{e.SpecPath(), sb},
		{e.ManifestPath(), m2b},
		{e.EntrypointPath(), mainBin},
	} {
		ct, err := pfcrypt.Encrypt(kdk, f.path, f.data)
		if err != nil {
			return fmt.Errorf("core: encrypt %s: %w", f.path, err)
		}
		b.FS[f.path] = ct
	}
	return nil
}
