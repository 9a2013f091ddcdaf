// Command genfuzzcorpus regenerates the committed seed corpora under
// internal/<pkg>/testdata/fuzz/. The committed files extend the in-code
// f.Add seeds with structured near-valid inputs (bit flips on real
// encodings, boundary lengths, hostile tensor headers) so `go test` and the
// CI fuzz smoke start from interesting coverage instead of rediscovering it
// every run. Deterministic: re-running produces identical files.
//
//	go run ./scripts/genfuzzcorpus
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/check"
	"repro/internal/securechan"
	"repro/internal/tensor"
	"repro/internal/transcript"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genfuzzcorpus: ")
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	for _, c := range corpora {
		write(filepath.Join(root, c.dir), c.seeds())
	}
}

// corpora pairs each fuzz target's corpus directory, relative to the
// repository root, with the generator of its seeds.
var corpora = []struct {
	dir   string
	seeds func() map[string][]byte
}{
	{"internal/securechan/testdata/fuzz/FuzzFrame", frameSeeds},
	{"internal/wire/testdata/fuzz/FuzzWireUnmarshal", wireSeeds},
	{"internal/wire/testdata/fuzz/FuzzPublicRequest", publicSeeds},
	{"internal/transcript/testdata/fuzz/FuzzTranscriptProof", proofSeeds},
	{"internal/transcript/testdata/fuzz/FuzzTranscriptLeaf", leafSeeds},
}

// corpusFile renders one seed in the `go test fuzz v1` corpus-file format.
func corpusFile(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

// write emits each seed as a corpus file in dir.
func write(dir string, seeds map[string][]byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, data := range seeds {
		if err := os.WriteFile(filepath.Join(dir, name), corpusFile(data), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("wrote %d seeds to %s", len(seeds), dir)
}

func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// frameSeeds targets the pre-auth record framing: length-prefix boundaries
// and bodies shaped like sealed records (8-byte sequence + ciphertext+tag).
func frameSeeds() map[string][]byte {
	sealed := make([]byte, 8+32+16) // seq + ciphertext + GCM tag, all zero
	binary.BigEndian.PutUint64(sealed, 1)
	seqOnly := make([]byte, 8)
	binary.BigEndian.PutUint64(seqOnly, math.MaxUint64)
	lenOverCap := make([]byte, 4)
	binary.BigEndian.PutUint32(lenOverCap, uint32(securechan.MaxFrameSize)+1)
	lenAtCap := make([]byte, 4)
	binary.BigEndian.PutUint32(lenAtCap, uint32(securechan.MaxFrameSize))
	lenMax := make([]byte, 4)
	binary.BigEndian.PutUint32(lenMax, math.MaxUint32)
	double := append(frame([]byte("first")), frame([]byte("second"))...)

	return map[string][]byte{
		"seed-empty":           {},
		"seed-short-prefix":    {0, 0},
		"seed-zero-len":        frame(nil),
		"seed-one-byte":        frame([]byte{0xff}),
		"seed-sealed-shape":    frame(sealed),
		"seed-seq-only":        frame(seqOnly),
		"seed-len-over-cap":    lenOverCap,
		"seed-len-at-cap":      lenAtCap, // body absent: must fail as truncated, not allocate 1 MiB eagerly-forever
		"seed-len-max":         lenMax,
		"seed-truncated-body":  frame([]byte("0123456789abcdef"))[:12],
		"seed-two-frames":      double,
		"seed-high-bit-len":    {0x80, 0x00, 0x00, 0x01, 0x00},
		"seed-ascii-noise":     []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
		"seed-tag-sized-zeros": frame(make([]byte, 8+16)),
	}
}

func mustMarshal(m wire.Msg) []byte {
	b, err := wire.MarshalBuf(m)
	if err != nil {
		panic(err)
	}
	defer b.Free()
	return append([]byte(nil), b.Payload()...)
}

// wireSeeds targets the tagged-message decoder: every message type, hostile
// tensor headers, and single-bit corruptions of a valid batch encoding.
func wireSeeds() map[string][]byte {
	batch := mustMarshal(&wire.Batch{
		ID:    0xfeed,
		Trace: 0xbeef,
		Tensors: map[string]*tensor.Tensor{
			"image": tensor.MustFromSlice([]float32{0, -0, 1.5, -2.25, 3e38, -3e38}, 2, 3),
			"mask":  tensor.MustFromSlice([]float32{1}, 1, 1),
		},
	})
	nan := mustMarshal(&wire.Batch{ID: 1, Tensors: map[string]*tensor.Tensor{
		"x": tensor.MustFromSlice([]float32{
			float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0,
		}, 4),
	}})
	seeds := map[string][]byte{
		"seed-batch":         batch,
		"seed-batch-nan-inf": nan,
		"seed-result-err": mustMarshal(&wire.Result{ID: 2, VariantID: "v-θ", Err: "segfault at 0x0",
			Tensors: map[string]*tensor.Tensor{"y": tensor.MustFromSlice([]float32{42}, 1)}}),
		"seed-result-empty": mustMarshal(&wire.Result{ID: 3, VariantID: "v0"}),
		// The fixed-layout verification-plane frame: a follower's vote on
		// the final outputs (Stage -1) and a per-checkpoint stage digest.
		"seed-digest-vote":  mustMarshal(&wire.Digest{ID: 0xfeed, Stage: -1, Sum: check.Digest{0xde, 0xad, 31: 0xef}}),
		"seed-digest-stage": mustMarshal(&wire.Digest{ID: 0xbeef, Stage: 2, Sum: check.Digest{1, 2, 3}}),
		"seed-ack":          mustMarshal(&wire.Ack{Detail: "ready"}),
		"seed-bound":        mustMarshal(&wire.Bound{VariantID: "spare-1", Resume: 1 << 40}),
		"seed-shutdown":     mustMarshal(&wire.Shutdown{}),
		"seed-empty":        {},
		"seed-unknown-tag":  {0xee, 1, 2, 3},
		"seed-batch-trunc":  batch[:len(batch)/2],
	}
	// Single-bit corruptions across the valid batch encoding: header, tensor
	// name, shape words and payload each get one flip.
	for i, off := range []int{0, 1, len(batch) / 4, len(batch) / 2, len(batch) - 1} {
		c := append([]byte(nil), batch...)
		c[off%len(c)] ^= 1 << (i % 8)
		seeds[fmt.Sprintf("seed-batch-bitflip-%d", i)] = c
	}
	return seeds
}

// proofSeeds targets the audit-plane proof decoder: real proofs from a
// 33-leaf tree (a size that exercises both perfect and ragged subtrees),
// boundary path counts, lying length fields, and bit flips across a valid
// inclusion encoding.
func proofSeeds() map[string][]byte {
	l := transcript.NewLog()
	for i := 0; i < 33; i++ {
		l.Append(transcript.LeafHash([]byte{byte(i)}))
	}
	mustProof := func(p *transcript.Proof, err error) []byte {
		if err != nil {
			panic(err)
		}
		b, err := p.Marshal()
		if err != nil {
			panic(err)
		}
		return b
	}
	incl := mustProof(l.InclusionProof(7, 33))
	inclLast := mustProof(l.InclusionProof(32, 33))
	cons := mustProof(l.ConsistencyProof(16, 33))
	consEqual := mustProof(l.ConsistencyProof(33, 33)) // empty path

	// Header with a path count over the cap and no path behind it: must be
	// refused before any allocation.
	overCap := append([]byte(nil), incl[:24]...)
	binary.LittleEndian.PutUint16(overCap[22:], transcript.MaxProofLen+1)
	// Path count at the cap with a matching 4 KiB of zero path.
	atCap := append([]byte(nil), incl[:24]...)
	binary.LittleEndian.PutUint16(atCap[22:], transcript.MaxProofLen)
	atCap = append(atCap, make([]byte, 32*transcript.MaxProofLen)...)
	// Count says fewer entries than the bytes carry: trailing bytes.
	trailing := append(append([]byte(nil), incl...), 0xaa)
	// Inclusion index outside the claimed tree size.
	badIndex := append([]byte(nil), incl...)
	binary.LittleEndian.PutUint64(badIndex[6:], 33) // index == size
	// Consistency sizes inverted.
	inverted := append([]byte(nil), cons...)
	binary.LittleEndian.PutUint64(inverted[6:], 34)

	seeds := map[string][]byte{
		"seed-inclusion":        incl,
		"seed-inclusion-last":   inclLast,
		"seed-consistency":      cons,
		"seed-consistency-noop": consEqual,
		"seed-path-over-cap":    overCap,
		"seed-path-at-cap":      atCap,
		"seed-trailing":         trailing,
		"seed-bad-index":        badIndex,
		"seed-sizes-inverted":   inverted,
		"seed-empty":            {},
		"seed-magic-only":       []byte("MVTP"),
		"seed-wrong-version":    []byte("MVTP\x02\x01"),
		"seed-bad-kind":         {'M', 'V', 'T', 'P', 1, 3},
		"seed-header-short":     incl[:proofTrim(incl)],
	}
	for i, off := range []int{4, 5, 6, 22, len(incl) - 1} {
		c := append([]byte(nil), incl...)
		c[off%len(c)] ^= 1 << (i % 8)
		seeds[fmt.Sprintf("seed-bitflip-%d", i)] = c
	}
	return seeds
}

// proofTrim picks a truncation point inside the fixed header.
func proofTrim(b []byte) int {
	if len(b) < 23 {
		return len(b)
	}
	return 23
}

// leafSeeds targets the leaf decoder with a fully populated leaf (checkpoints,
// dissenting votes, replica IDs), section-count lies and truncations.
func leafSeeds() map[string][]byte {
	full := &transcript.Leaf{
		Trace:       0xfeedbeef,
		Batch:       42,
		Input:       check.Digest{1, 2, 3},
		Checkpoints: []check.Digest{{4}, {5}, {6}},
		Votes: []transcript.Vote{
			{Replica: "replica-a", Sum: check.Digest{7}, Agree: true},
			{Replica: "replica-β", Sum: check.Digest{8}, Agree: false},
		},
		Output:  check.Digest{9, 10},
		Rung:    2,
		Replica: "leader-0",
	}
	valid, err := full.Marshal()
	if err != nil {
		panic(err)
	}
	minimal, err := (&transcript.Leaf{}).Marshal()
	if err != nil {
		panic(err)
	}

	// Checkpoint count over the cap with no section behind it.
	overCap := append([]byte(nil), valid[:55]...)
	binary.LittleEndian.PutUint16(overCap[53:], transcript.MaxLeafCheckpoints+1)
	// Vote replica length byte pointing past the end of the buffer.
	lyingStr := append([]byte(nil), valid...)
	lyingStr[len(lyingStr)-len("leader-0")-1] = 0xff
	trailing := append(append([]byte(nil), valid...), 0)

	seeds := map[string][]byte{
		"seed-valid":         valid,
		"seed-minimal":       minimal,
		"seed-count-over":    overCap,
		"seed-lying-replica": lyingStr,
		"seed-trailing":      trailing,
		"seed-empty":         {},
		"seed-magic-only":    []byte("MVTL"),
		"seed-wrong-version": []byte("MVTL\x02"),
		"seed-half":          valid[:len(valid)/2],
	}
	for i, off := range []int{5, 21, 53, len(valid) / 2, len(valid) - 2} {
		c := append([]byte(nil), valid...)
		c[off%len(c)] ^= 1 << (i % 8)
		seeds[fmt.Sprintf("seed-bitflip-%d", i)] = c
	}
	return seeds
}

func mustEncodeRequest(inputs map[string]*tensor.Tensor) []byte {
	var b bytes.Buffer
	if err := wire.EncodeRequest(&b, inputs); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// publicSeeds targets the public binary request decoder — the pre-auth
// parser internet bytes reach on the serving front door: valid bodies with
// hostile float payloads, boundary shapes, lying length fields, and bit
// flips across every region of a valid encoding.
func publicSeeds() map[string][]byte {
	valid := mustEncodeRequest(map[string]*tensor.Tensor{
		"image": tensor.MustFromSlice([]float32{0, -0, 1.5, -2.25, 3e38, -3e38}, 2, 3),
		"mask":  tensor.MustFromSlice([]float32{1}, 1, 1),
	})
	nan := mustEncodeRequest(map[string]*tensor.Tensor{
		"x": tensor.MustFromSlice([]float32{
			float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0,
		}, 1, 4),
	})
	maxRank := mustEncodeRequest(map[string]*tensor.Tensor{
		"deep": tensor.MustFromSlice([]float32{7}, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
	})

	// A frame whose declared body length disagrees with its shape.
	lyingLen := append([]byte(nil), valid...)
	lyingLen[7]++ // first tensor frame's u32 body length, low byte

	// A header announcing the max tensor count with no frames behind it.
	countOverCap := []byte{'M', 'V', 'T', 1, 0xff, 0xff}
	atCap := []byte{'M', 'V', 'T', 1, 64, 0}

	// Huge declared volume: rank 2, dims (0x7fffffff, 2) — overflow-checked
	// volume must refuse it before any payload allocation.
	hugeVol := []byte{'M', 'V', 'T', 1, 1, 0, 1, 0xff, 0xff, 0xff, 0xff, 1, 0, 'x'}
	hugeVol = append(hugeVol, 2, 0, 0, 0) // rank 2
	hugeVol = append(hugeVol, 0xff, 0xff, 0xff, 0x7f, 2, 0, 0, 0)

	seeds := map[string][]byte{
		"seed-valid":         valid,
		"seed-nan-inf":       nan,
		"seed-max-rank":      maxRank,
		"seed-lying-len":     lyingLen,
		"seed-count-over":    countOverCap,
		"seed-count-at-cap":  atCap,
		"seed-huge-volume":   hugeVol,
		"seed-empty":         {},
		"seed-magic-only":    []byte("MVT\x01"),
		"seed-wrong-version": []byte("MVT\x02\x01\x00"),
		"seed-no-end":        valid[:len(valid)-5],
		"seed-half":          valid[:len(valid)/2],
		"seed-json-noise":    []byte(`{"inputs":{"x":{"shape":[1,1],"data":[1]}}}`),
	}
	for i, off := range []int{3, 5, 9, len(valid) / 3, len(valid) - 6} {
		c := append([]byte(nil), valid...)
		c[off%len(c)] ^= 1 << (i % 8)
		seeds[fmt.Sprintf("seed-bitflip-%d", i)] = c
	}
	return seeds
}
