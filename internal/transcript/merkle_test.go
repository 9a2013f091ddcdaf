package transcript

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// refMTH is the straight-from-the-RFC recursive Merkle tree head, used as
// the oracle for the incremental stack and the proof algorithms.
func refMTH(leaves [][]byte) Hash {
	if len(leaves) == 0 {
		return EmptyRoot()
	}
	if len(leaves) == 1 {
		return LeafHash(leaves[0])
	}
	k := 1
	for k<<1 < len(leaves) {
		k <<= 1
	}
	return nodeHash(refMTH(leaves[:k]), refMTH(leaves[k:]))
}

func testLeaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(i)*0x9e3779b97f4a7c15+1)
		out[i] = b
	}
	return out
}

func buildLog(t testing.TB, leaves [][]byte) *Log {
	t.Helper()
	l := NewLog()
	for i, lf := range leaves {
		if got, err := l.Append(LeafHash(lf)); err != nil || got != uint64(i) {
			t.Fatalf("append %d returned index %d, %v", i, got, err)
		}
	}
	return l
}

func TestIncrementalRootMatchesReference(t *testing.T) {
	leaves := testLeaves(130)
	l := NewLog()
	for n := 0; n <= len(leaves); n++ {
		if n > 0 {
			l.Append(LeafHash(leaves[n-1]))
		}
		want := refMTH(leaves[:n])
		if got := l.Root(); got != want {
			t.Fatalf("size %d: incremental root %x != reference %x", n, got[:8], want[:8])
		}
		at, err := l.RootAt(uint64(n))
		if err != nil {
			t.Fatalf("RootAt(%d): %v", n, err)
		}
		if at != want {
			t.Fatalf("size %d: RootAt %x != reference %x", n, at[:8], want[:8])
		}
	}
}

func TestEmptyRootIsSHA256OfNothing(t *testing.T) {
	want := Hash(sha256.Sum256(nil))
	if got := NewLog().Root(); got != want {
		t.Fatalf("empty root %x, want sha256(\"\") %x", got[:8], want[:8])
	}
}

// TestInclusionProofExhaustive checks every (index, size) pair up to 64
// leaves verifies against the reference root, and that single-bit damage to
// the leaf, the proof, or the index is rejected.
func TestInclusionProofExhaustive(t *testing.T) {
	leaves := testLeaves(64)
	l := buildLog(t, leaves)
	for size := uint64(1); size <= 64; size++ {
		root := refMTH(leaves[:size])
		for idx := uint64(0); idx < size; idx++ {
			p, err := l.InclusionProof(idx, size)
			if err != nil {
				t.Fatalf("InclusionProof(%d, %d): %v", idx, size, err)
			}
			if err := VerifyInclusion(LeafHash(leaves[idx]), p, root); err != nil {
				t.Fatalf("verify inclusion %d of %d: %v", idx, size, err)
			}
			// Wrong leaf must fail.
			if err := VerifyInclusion(LeafHash([]byte("evil")), p, root); err == nil {
				t.Fatalf("tampered leaf accepted at %d of %d", idx, size)
			}
			// Damaged proof must fail (flip one bit of the first path node).
			if len(p.Path) > 0 {
				bad := *p
				bad.Path = append([]Hash(nil), p.Path...)
				bad.Path[0][0] ^= 1
				if err := VerifyInclusion(LeafHash(leaves[idx]), &bad, root); err == nil {
					t.Fatalf("tampered proof accepted at %d of %d", idx, size)
				}
			}
		}
	}
}

// TestConsistencyProofExhaustive checks every (m, n) pair up to 64 leaves,
// and that a rewritten prefix is rejected.
func TestConsistencyProofExhaustive(t *testing.T) {
	leaves := testLeaves(64)
	l := buildLog(t, leaves)
	for n := uint64(0); n <= 64; n++ {
		rootN := refMTH(leaves[:n])
		for m := uint64(0); m <= n; m++ {
			rootM := refMTH(leaves[:m])
			p, err := l.ConsistencyProof(m, n)
			if err != nil {
				t.Fatalf("ConsistencyProof(%d, %d): %v", m, n, err)
			}
			if err := VerifyConsistency(p, rootM, rootN); err != nil {
				t.Fatalf("verify consistency %d -> %d: %v", m, n, err)
			}
			// A different old root (rewritten history) must fail unless both
			// trees are empty.
			if m > 0 {
				var evil Hash
				evil[0] = 0xee
				if err := VerifyConsistency(p, evil, rootN); err == nil {
					t.Fatalf("rewritten old root accepted at %d -> %d", m, n)
				}
			}
		}
	}
}

// TestConsistencyDetectsRewrite builds a second log that shares no prefix
// and confirms the first log's old head cannot be extended into it.
func TestConsistencyDetectsRewrite(t *testing.T) {
	honest := testLeaves(40)
	l := buildLog(t, honest)
	oldRoot, err := l.RootAt(16)
	if err != nil {
		t.Fatal(err)
	}

	rewritten := testLeaves(40)
	rewritten[3] = []byte("tampered batch")
	l2 := buildLog(t, rewritten)
	p, err := l2.ConsistencyProof(16, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConsistency(p, oldRoot, l2.Root()); err == nil {
		t.Fatal("consistency proof over a rewritten log verified against the honest old head")
	}
}

func TestProofCodecRoundTrip(t *testing.T) {
	leaves := testLeaves(33)
	l := buildLog(t, leaves)
	cases := []*Proof{}
	for _, idx := range []uint64{0, 7, 31, 32} {
		p, err := l.InclusionProof(idx, 33)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, p)
	}
	for _, m := range []uint64{0, 1, 16, 33} {
		p, err := l.ConsistencyProof(m, 33)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, p)
	}
	for i, p := range cases {
		b, err := p.Marshal()
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		got, err := UnmarshalProof(b)
		if err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		if got.Kind != p.Kind || got.First != p.First || got.Second != p.Second || len(got.Path) != len(p.Path) {
			t.Fatalf("case %d: round-trip mismatch: %+v != %+v", i, got, p)
		}
		for j := range p.Path {
			if got.Path[j] != p.Path[j] {
				t.Fatalf("case %d: path[%d] mismatch", i, j)
			}
		}
		// Truncation and trailing garbage must both be rejected.
		if _, err := UnmarshalProof(b[:len(b)-1]); err == nil {
			t.Fatalf("case %d: truncated proof accepted", i)
		}
		if _, err := UnmarshalProof(append(append([]byte(nil), b...), 0)); err == nil {
			t.Fatalf("case %d: trailing byte accepted", i)
		}
	}
}

func TestProofDecodeRejectsHostileHeaders(t *testing.T) {
	good, err := (&Proof{Kind: ProofInclusion, First: 0, Second: 1}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		[]byte("MVTP"),
		append([]byte("XXTP"), good[4:]...),     // wrong magic
		append([]byte("MVTP\x02"), good[5:]...), // wrong version
		append([]byte("MVTP\x01\x07"), good[6:]...),                                                 // unknown kind
		func() []byte { b := append([]byte(nil), good...); b[22] = 0xff; b[23] = 0xff; return b }(), // count over cap
	}
	for i, b := range bad {
		if _, err := UnmarshalProof(b); err == nil {
			t.Fatalf("hostile header %d accepted", i)
		}
	}
}

// refTree is the recursive RFC 6962 construction the stored-hash log
// replaced, kept as the oracle for it: subtree recomputes MTH over a leaf
// range (memoized, so exhaustive sweeps stay fast), path and subproof build
// the two proof shapes straight from the RFC's definitions.
type refTree struct {
	leaves []Hash
	memo   map[[2]uint64]Hash
}

func newRefTree(leaves [][]byte) *refTree {
	t := &refTree{memo: make(map[[2]uint64]Hash)}
	for _, lf := range leaves {
		t.leaves = append(t.leaves, LeafHash(lf))
	}
	return t
}

// largestPow2Below returns the largest power of two strictly less than n
// (n >= 2).
func largestPow2Below(n uint64) uint64 {
	k := uint64(1)
	for k<<1 < n {
		k <<= 1
	}
	return k
}

func (t *refTree) subtree(lo, hi uint64) Hash {
	if hi-lo == 1 {
		return t.leaves[lo]
	}
	if h, ok := t.memo[[2]uint64{lo, hi}]; ok {
		return h
	}
	k := largestPow2Below(hi - lo)
	h := nodeHash(t.subtree(lo, lo+k), t.subtree(lo+k, hi))
	t.memo[[2]uint64{lo, hi}] = h
	return h
}

func (t *refTree) root(size uint64) Hash {
	if size == 0 {
		return EmptyRoot()
	}
	return t.subtree(0, size)
}

func (t *refTree) path(m, lo, hi uint64) []Hash {
	n := hi - lo
	if n == 1 {
		return nil
	}
	k := largestPow2Below(n)
	if m < k {
		return append(t.path(m, lo, lo+k), t.subtree(lo+k, hi))
	}
	return append(t.path(m-k, lo+k, hi), t.subtree(lo, lo+k))
}

func (t *refTree) subproof(m, lo, hi uint64, complete bool) []Hash {
	n := hi - lo
	if m == n {
		if complete {
			return nil
		}
		return []Hash{t.subtree(lo, hi)}
	}
	k := largestPow2Below(n)
	if m <= k {
		return append(t.subproof(m, lo, lo+k, complete), t.subtree(lo+k, hi))
	}
	return append(t.subproof(m-k, lo+k, hi, false), t.subtree(lo, lo+k))
}

func (t *refTree) inclusion(index, size uint64) []byte {
	p := &Proof{Kind: ProofInclusion, First: index, Second: size, Path: t.path(index, 0, size)}
	b, _ := p.Marshal()
	return b
}

func (t *refTree) consistency(m, n uint64) []byte {
	p := &Proof{Kind: ProofConsistency, First: m, Second: n}
	if m > 0 && m < n {
		p.Path = t.subproof(m, 0, n, true)
	}
	b, _ := p.Marshal()
	return b
}

// checkAgainstRef requires byte-equal inclusion and consistency proofs and
// equal roots from l and the reference for the given pairs.
func checkAgainstRef(t *testing.T, l *Log, ref *refTree, size uint64, indexes []uint64) {
	t.Helper()
	root, err := l.RootAt(size)
	if err != nil {
		t.Fatalf("RootAt(%d): %v", size, err)
	}
	if root != ref.root(size) {
		t.Fatalf("RootAt(%d) differs from the recursive root", size)
	}
	for _, i := range indexes {
		if i < size {
			p, err := l.InclusionProof(i, size)
			if err != nil {
				t.Fatalf("InclusionProof(%d, %d): %v", i, size, err)
			}
			if b, _ := p.Marshal(); !bytes.Equal(b, ref.inclusion(i, size)) {
				t.Fatalf("InclusionProof(%d, %d) differs from the recursive path", i, size)
			}
		}
		if i <= size {
			p, err := l.ConsistencyProof(i, size)
			if err != nil {
				t.Fatalf("ConsistencyProof(%d, %d): %v", i, size, err)
			}
			if b, _ := p.Marshal(); !bytes.Equal(b, ref.consistency(i, size)) {
				t.Fatalf("ConsistencyProof(%d, %d) differs from the recursive subproof", i, size)
			}
		}
	}
}

// TestProofsMatchRecursiveReference sweeps every (index, size) and (m, n)
// pair over a log that has sealed three segments of stored hashes to its
// spill file and holds one more leaf in memory, so proofs mix sealed and
// in-memory hashes in every combination.
func TestProofsMatchRecursiveReference(t *testing.T) {
	n := uint64(1)
	for storedCount(n-1) <= 3*segItems {
		n++
	}
	leaves := testLeaves(int(n))
	l := buildLog(t, leaves)
	defer l.Close()
	if got := len(l.view().hashes.segs); got != 3 {
		t.Fatalf("%d leaves sealed %d segments, want 3", n, got)
	}
	ref := newRefTree(leaves)
	all := make([]uint64, n+1)
	for i := range all {
		all[i] = uint64(i)
	}
	for size := uint64(0); size <= n; size++ {
		checkAgainstRef(t, l, ref, size, all[:size+1])
	}
	if l.Root() != ref.root(n) {
		t.Fatal("Root differs from the recursive root")
	}
}

// TestProofsMatchRecursiveReferenceStrided samples a 5,000-leaf log.
func TestProofsMatchRecursiveReferenceStrided(t *testing.T) {
	const n = 5000
	leaves := testLeaves(n)
	l := buildLog(t, leaves)
	defer l.Close()
	ref := newRefTree(leaves)
	for size := uint64(1); size <= n; size += 97 {
		var idx []uint64
		for i := uint64(0); i < size; i += 61 {
			idx = append(idx, i)
		}
		checkAgainstRef(t, l, ref, size, append(idx, size-1, size))
	}
	full := []uint64{0, 1, 2047, 2048, 4095, 4096, n - 1, n}
	checkAgainstRef(t, l, ref, n, full)
}

// storedCount returns how many stored hashes a log of n leaves holds.
func storedCount(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	c := storedIndex(0, n-1) + 1
	for i := n - 1; i&1 == 1; i >>= 1 {
		c++
	}
	return c
}
