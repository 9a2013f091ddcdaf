package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedCorpusMatchesGenerator regenerates every seed and compares it
// byte for byte with the committed corpus file of the same name, so the
// generator stays deterministic and the committed seeds stay its output.
// Corpus files the generator does not name (recycled fuzz crashers) are not
// its output and are not compared.
func TestCommittedCorpusMatchesGenerator(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, c := range corpora {
		for name, data := range c.seeds() {
			path := filepath.Join(root, c.dir, name)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			if !bytes.Equal(got, corpusFile(data)) {
				t.Errorf("%s differs from the generator's output; regenerate with go run ./scripts/genfuzzcorpus", path)
			}
		}
	}
}
