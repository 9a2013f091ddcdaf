package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/diversify"
	"repro/internal/models"
	"repro/internal/pfcrypt"
)

// entryGraphDigests are the SHA-256 digests of every decrypted graph entry
// of mobilenetv3 at scale 0.05 in two partitions over RealSetupSpecs,
// recorded when BuildBundle still diversified a whole partition set before
// encrypting it. Diversification is seeded per spec, so the order in which
// entries are built must not change any variant's bytes.
var entryGraphDigests = map[string]string{
	"pool/set0/p0/ort-cpu/graph.pf":   "f370e17b462e74e142d6a636e326ffd92e4cdf69da6b4c1d36b17732f2851520",
	"pool/set0/p0/ort-altep/graph.pf": "664bc9a3bd121f87d1b37dfc4a6d6ddf763a71217c6dd5aa39690646179a8c65",
	"pool/set0/p0/tvm-graph/graph.pf": "e37d0abc04474b4407685d2a72472a6819edfba783850e9d527c10a002640117",
	"pool/set0/p1/ort-cpu/graph.pf":   "09242f8ff5727ba3abeeb439189f50499a39df462d67336ffab4d01cbad505f0",
	"pool/set0/p1/ort-altep/graph.pf": "46e073e747407e013b5caf84389901f4c0e94777385ebb49966b7bce9f122d55",
	"pool/set0/p1/tvm-graph/graph.pf": "80843854c8fa8db507566b54dad2146e8fd7961797e6e8f452374d320ddb1c46",
}

func TestBundleEntryDigestsStable(t *testing.T) {
	b, err := BuildBundle(OfflineConfig{
		ModelName:        "mobilenetv3",
		ModelConfig:      models.Config{Scale: 0.05},
		PartitionTargets: []int{2},
		Specs:            diversify.RealSetupSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Keys) != len(entryGraphDigests) {
		t.Errorf("%d entries, want %d", len(b.Keys), len(entryGraphDigests))
	}
	for e, kdk := range b.Keys {
		pt, err := pfcrypt.Decrypt(kdk, e.GraphPath(), b.FS[e.GraphPath()])
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(pt)
		if got, want := hex.EncodeToString(sum[:]), entryGraphDigests[e.GraphPath()]; got != want {
			t.Errorf("%s: digest %s, want %s", e.GraphPath(), got, want)
		}
	}
}
