package graph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
)

// marshalDigests are the SHA-256 digests of graph.Marshal for three zoo
// graphs at the default model config, recorded from the streaming
// bytes.Buffer encoder this format was first written with. The MVTG
// container doubles as an attestation measurement input, so any encoder
// change must reproduce these bytes exactly.
var marshalDigests = map[string]string{
	"mobilenetv3": "f2ae26323628774ea3fe8abaceb1c5027ca3f812d70ecb9bdc3986d6c1c70bf6",
	"resnet-50":   "660e9fb8810faeeea1c0c357342a053e8bcedd2cce09ac8d75bae7bceb840fd7",
	"googlenet":   "e279ccecf816a94fb45760733d1d47ef8ca9ffa33bc845789e851b2a8902ac57",
}

func TestMarshalDigestsStable(t *testing.T) {
	for name, want := range marshalDigests {
		g, err := models.Build(name, models.Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := graph.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: Marshal digest %s, want %s", name, got, want)
		}
	}
}
