// Package transcript makes the monitor's cross-checking third-party
// checkable: every delivered batch appends one leaf — binding trace ID,
// batch ID, input digest, per-checkpoint digests, follower votes, output
// digest, ladder rung and replica — to an append-only Merkle log, and the
// serving tier periodically signs the tree head with its attestation
// identity, chained to the sealed model measurement and the §4.3 binding
// log. An auditor who holds a signed head can demand inclusion and
// consistency proofs, and because the kernels are bitwise-deterministic
// (PR 1), replay any sampled batch through a locally built engine from the
// sealed bundle and compare digests bit for bit — no zkML circuit, no blind
// trust in bare attestation.
//
// The tree is the RFC 6962 structure: leaf hash SHA-256(0x00 || leaf),
// interior node SHA-256(0x01 || left || right), with the standard inclusion
// and consistency proof shapes so third-party verifiers need nothing
// MVTEE-specific to check the log's append-only history.
package transcript

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Hash is one 32-byte tree node value.
type Hash [32]byte

// MarshalJSON renders the hash as lowercase hex (operator-facing audit
// documents stay greppable).
func (h Hash) MarshalJSON() ([]byte, error) {
	return json.Marshal(hex.EncodeToString(h[:]))
}

// UnmarshalJSON parses the hex form.
func (h *Hash) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(h) {
		return fmt.Errorf("transcript: bad hash %q", s)
	}
	copy(h[:], raw)
	return nil
}

// LeafHash computes the RFC 6962 leaf hash of an encoded leaf.
func LeafHash(leaf []byte) Hash {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(leaf)
	var out Hash
	h.Sum(out[:0])
	return out
}

// nodeHash combines two subtree roots into their parent.
func nodeHash(l, r Hash) Hash {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// EmptyRoot is the root of the zero-leaf tree (SHA-256 of the empty string).
func EmptyRoot() Hash { return sha256.Sum256(nil) }

// Log is an append-only Merkle tree over leaf hashes, kept as the RFC 6962
// stored-hash sequence of Go's checksum database (golang.org/x/mod's
// sumdb/tlog): appending leaf i stores its hash followed by the hash of
// every interior node that leaf completes, about two hashes per leaf, at the
// positions storedIndex gives. Every subtree a root or proof needs is then
// one stored hash (a perfect subtree) or the fold of at most log n of them
// (the ragged right edge), so RootAt and both proofs read O(log n) stored
// hashes and recompute no subtree.
//
// The newest stored hashes stay in memory; each full segment is sealed to
// the log's spill file (see spill). One goroutine appends; any number of
// goroutines read concurrently, without locks, from the snapshot published
// after the last complete append.
type Log struct {
	// Appending-goroutine state.
	//
	// stack holds the roots of the maximal perfect subtrees left-to-right;
	// bit i of the size set <=> a subtree of size 2^i is on the stack.
	stack  []Hash
	hashes segStore
	sp     *spill

	pub atomic.Pointer[logView]
}

// logView is the snapshot readers work from: the published size and the
// stored hashes behind it.
type logView struct {
	size   uint64
	hashes segView
}

// NewLog returns an empty log. The spill file is created when the first
// segment fills; Close releases it.
func NewLog() *Log {
	l := &Log{}
	l.hashes = newSegStore("hash", l.spillFile)
	l.pub.Store(&logView{hashes: l.hashes.view()})
	return l
}

// spillFile returns the log's spill file, creating it on first use. It is
// shared by every store of the log's owner (the Recorder's leaf segments
// too) and called only from the appending goroutine.
func (l *Log) spillFile() (*spill, error) {
	if l.sp == nil {
		sp, err := newSpill()
		if err != nil {
			return nil, err
		}
		l.sp = sp
	}
	return l.sp, nil
}

// Close releases the spill file. Reads after Close fail with ErrStorage.
// Call it once the appending goroutine is done.
func (l *Log) Close() error {
	if l.sp == nil {
		return nil
	}
	return l.sp.f.Close()
}

func (l *Log) view() *logView { return l.pub.Load() }

// Size returns the number of leaves published.
func (l *Log) Size() uint64 { return l.view().size }

// Err returns the sticky storage error, if a segment could not be written.
func (l *Log) Err() error { return l.view().hashes.err }

// Append adds one leaf hash and returns its index. If a full segment cannot
// be written to the spill file, the error is returned, the leaf is not
// published and every later Append returns the same error.
func (l *Log) Append(h Hash) (uint64, error) {
	idx := l.view().size
	err := l.hashes.append(h[:])
	for x := idx; err == nil && x&1 == 1; x >>= 1 {
		h = nodeHash(l.stack[len(l.stack)-1], h)
		l.stack = l.stack[:len(l.stack)-1]
		err = l.hashes.append(h[:])
	}
	if err != nil {
		l.pub.Store(&logView{size: idx, hashes: l.hashes.view()})
		return idx, err
	}
	l.stack = append(l.stack, h)
	l.pub.Store(&logView{size: idx + 1, hashes: l.hashes.view()})
	return idx, nil
}

// Root returns the current tree head (MTH over all leaves) from the
// in-memory subtree stack. It is for the appending goroutine; other
// goroutines use RootAt(Size()).
func (l *Log) Root() Hash {
	if len(l.stack) == 0 {
		return EmptyRoot()
	}
	r := l.stack[len(l.stack)-1]
	for i := len(l.stack) - 2; i >= 0; i-- {
		r = nodeHash(l.stack[i], r)
	}
	return r
}

// read returns the stored hashes at the given indexes.
func (v *logView) read(idx []uint64) ([]Hash, error) {
	items, err := v.hashes.items(idx)
	if err != nil {
		return nil, err
	}
	out := make([]Hash, len(items))
	for i, b := range items {
		if len(b) != len(Hash{}) {
			return nil, fmt.Errorf("%w: stored hash %d is %d bytes", ErrStorage, idx[i], len(b))
		}
		copy(out[i][:], b)
	}
	return out, nil
}

// LeafAt returns the stored hash of leaf index i.
func (l *Log) LeafAt(i uint64) (Hash, error) {
	v := l.view()
	if i >= v.size {
		return Hash{}, fmt.Errorf("transcript: leaf %d out of range (size %d)", i, v.size)
	}
	h, err := v.read([]uint64{storedIndex(0, i)})
	if err != nil {
		return Hash{}, err
	}
	return h[0], nil
}

// RootAt returns the tree head the log had when it held size leaves.
func (l *Log) RootAt(size uint64) (Hash, error) {
	v := l.view()
	if size > v.size {
		return Hash{}, fmt.Errorf("transcript: size %d beyond log (size %d)", size, v.size)
	}
	if size == 0 {
		return EmptyRoot(), nil
	}
	hashes, err := v.read(subtreeIndex(0, size, nil))
	if err != nil {
		return Hash{}, err
	}
	h, _ := subtreeHash(0, size, hashes)
	return h, nil
}

// storedIndex maps the tree coordinates (level, n) — the n-th node of that
// level, leaves at level 0 — to the node's position in the stored-hash
// sequence: level L's n-th hash is stored right after level L+1's
// (2n+1)-th, and level 0's n-th at n + n/2 + n/4 + ... (Crosby and Wallach,
// "Efficient Data Structures for Tamper-Evident Logging", §3.3).
func storedIndex(level int, n uint64) uint64 {
	for l := level; l > 0; l-- {
		n = 2*n + 1
	}
	i := uint64(0)
	for ; n > 0; n >>= 1 {
		i += n
	}
	return i + uint64(level)
}

// maxpow2 returns the largest power of two k strictly less than n (n >= 2),
// and log2 k.
func maxpow2(n uint64) (k uint64, level int) {
	level = bits.Len64(n-1) - 1
	return 1 << level, level
}

// subtreeIndex appends the stored indexes of the perfect subtrees that
// make up leaves [lo, hi), largest first; lo is a multiple of the first's
// size, as it is for every subtree of an RFC 6962 tree.
func subtreeIndex(lo, hi uint64, need []uint64) []uint64 {
	for lo < hi {
		k, level := maxpow2(hi - lo + 1)
		need = append(need, storedIndex(level, lo>>level))
		lo += k
	}
	return need
}

// subtreeHash folds the hashes subtreeIndex(lo, hi) named into MTH over
// leaves [lo, hi), returning the hashes left over.
func subtreeHash(lo, hi uint64, hashes []Hash) (Hash, []Hash) {
	n := 0
	for ; lo < hi; n++ {
		k, _ := maxpow2(hi - lo + 1)
		lo += k
	}
	h := hashes[n-1]
	for i := n - 2; i >= 0; i-- {
		h = nodeHash(hashes[i], h)
	}
	return h, hashes[n:]
}

// Proof errors.
var (
	ErrProofRange = errors.New("transcript: proof request out of range")
	ErrProofBad   = errors.New("transcript: proof verification failed")
)

// InclusionProof returns the audit path for leaf index under the tree of the
// given size (RFC 6962 PATH(m, D[n])).
func (l *Log) InclusionProof(index, size uint64) (*Proof, error) {
	v := l.view()
	if size > v.size || index >= size {
		return nil, fmt.Errorf("%w: inclusion %d of %d (log size %d)", ErrProofRange, index, size, v.size)
	}
	hashes, err := v.read(inclusionIndex(index, 0, size, nil))
	if err != nil {
		return nil, err
	}
	path, _ := inclusionPath(index, 0, size, hashes)
	return &Proof{Kind: ProofInclusion, First: index, Second: size, Path: path}, nil
}

// inclusionIndex appends the stored indexes PATH(m, D[lo:hi]) reads, in the
// order inclusionPath consumes them.
func inclusionIndex(m, lo, hi uint64, need []uint64) []uint64 {
	if hi-lo == 1 {
		return need
	}
	k, _ := maxpow2(hi - lo)
	if m < lo+k {
		return subtreeIndex(lo+k, hi, inclusionIndex(m, lo, lo+k, need))
	}
	return inclusionIndex(m, lo+k, hi, subtreeIndex(lo, lo+k, need))
}

func inclusionPath(m, lo, hi uint64, hashes []Hash) ([]Hash, []Hash) {
	if hi-lo == 1 {
		return nil, hashes
	}
	var p []Hash
	var sib Hash
	k, _ := maxpow2(hi - lo)
	if m < lo+k {
		p, hashes = inclusionPath(m, lo, lo+k, hashes)
		sib, hashes = subtreeHash(lo+k, hi, hashes)
	} else {
		sib, hashes = subtreeHash(lo, lo+k, hashes)
		p, hashes = inclusionPath(m, lo+k, hi, hashes)
	}
	return append(p, sib), hashes
}

// ConsistencyProof proves the tree of size m is a prefix of the tree of size
// n (RFC 6962 PROOF(m, D[n])).
func (l *Log) ConsistencyProof(m, n uint64) (*Proof, error) {
	v := l.view()
	if n > v.size || m > n {
		return nil, fmt.Errorf("%w: consistency %d -> %d (log size %d)", ErrProofRange, m, n, v.size)
	}
	p := &Proof{Kind: ProofConsistency, First: m, Second: n}
	if m == 0 || m == n {
		return p, nil
	}
	hashes, err := v.read(consistencyIndex(m, 0, n, nil))
	if err != nil {
		return nil, err
	}
	p.Path, _ = consistencyPath(m, 0, n, hashes)
	return p, nil
}

// consistencyIndex appends the stored indexes SUBPROOF(m, D[lo:hi]) reads,
// in the order consistencyPath consumes them. RFC 6962's "complete" flag is
// lo == 0: it stays set exactly while the recursion has only gone left.
func consistencyIndex(m, lo, hi uint64, need []uint64) []uint64 {
	if m == hi {
		if lo == 0 {
			return need
		}
		return subtreeIndex(lo, hi, need)
	}
	k, _ := maxpow2(hi - lo)
	if m <= lo+k {
		return subtreeIndex(lo+k, hi, consistencyIndex(m, lo, lo+k, need))
	}
	return consistencyIndex(m, lo+k, hi, subtreeIndex(lo, lo+k, need))
}

func consistencyPath(m, lo, hi uint64, hashes []Hash) ([]Hash, []Hash) {
	if m == hi {
		if lo == 0 {
			return nil, hashes
		}
		h, rest := subtreeHash(lo, hi, hashes)
		return []Hash{h}, rest
	}
	var p []Hash
	var sib Hash
	k, _ := maxpow2(hi - lo)
	if m <= lo+k {
		p, hashes = consistencyPath(m, lo, lo+k, hashes)
		sib, hashes = subtreeHash(lo+k, hi, hashes)
	} else {
		sib, hashes = subtreeHash(lo, lo+k, hashes)
		p, hashes = consistencyPath(m, lo+k, hi, hashes)
	}
	return append(p, sib), hashes
}

// VerifyInclusion checks an audit path: that leafHash is the leaf at
// proof.First in the tree of size proof.Second with the given root
// (RFC 9162 §2.1.3.2).
func VerifyInclusion(leafHash Hash, p *Proof, root Hash) error {
	if p == nil || p.Kind != ProofInclusion {
		return fmt.Errorf("%w: not an inclusion proof", ErrProofBad)
	}
	index, size := p.First, p.Second
	if size == 0 || index >= size {
		return fmt.Errorf("%w: index %d outside tree of size %d", ErrProofBad, index, size)
	}
	fn, sn := index, size-1
	r := leafHash
	for _, h := range p.Path {
		if sn == 0 {
			return fmt.Errorf("%w: proof too long", ErrProofBad)
		}
		if fn&1 == 1 || fn == sn {
			r = nodeHash(h, r)
			if fn&1 == 0 {
				for fn != 0 && fn&1 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = nodeHash(r, h)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return fmt.Errorf("%w: proof too short", ErrProofBad)
	}
	if r != root {
		return fmt.Errorf("%w: computed root mismatch", ErrProofBad)
	}
	return nil
}

// VerifyConsistency checks that the tree of size p.First with root first is
// a prefix of the tree of size p.Second with root second
// (RFC 9162 §2.1.4.2).
func VerifyConsistency(p *Proof, first, second Hash) error {
	if p == nil || p.Kind != ProofConsistency {
		return fmt.Errorf("%w: not a consistency proof", ErrProofBad)
	}
	m, n := p.First, p.Second
	if m > n {
		return fmt.Errorf("%w: first size %d exceeds second %d", ErrProofBad, m, n)
	}
	if m == n {
		if len(p.Path) != 0 || first != second {
			return fmt.Errorf("%w: equal-size trees must match with empty proof", ErrProofBad)
		}
		return nil
	}
	if m == 0 {
		// Every tree extends the empty tree; the old root must be the
		// canonical empty-tree value.
		if len(p.Path) != 0 || first != EmptyRoot() {
			return fmt.Errorf("%w: empty-tree consistency must carry no path", ErrProofBad)
		}
		return nil
	}
	path := p.Path
	// An exact-power-of-two old tree is itself a node of the new tree; its
	// root seeds the walk.
	if m&(m-1) == 0 {
		path = append([]Hash{first}, path...)
	}
	if len(path) == 0 {
		return fmt.Errorf("%w: missing consistency path", ErrProofBad)
	}
	fn, sn := m-1, n-1
	for fn&1 == 1 {
		fn >>= 1
		sn >>= 1
	}
	fr, sr := path[0], path[0]
	for _, h := range path[1:] {
		if sn == 0 {
			return fmt.Errorf("%w: proof too long", ErrProofBad)
		}
		if fn&1 == 1 || fn == sn {
			fr = nodeHash(h, fr)
			sr = nodeHash(h, sr)
			if fn&1 == 0 {
				for fn != 0 && fn&1 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			sr = nodeHash(sr, h)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return fmt.Errorf("%w: proof too short", ErrProofBad)
	}
	if fr != first {
		return fmt.Errorf("%w: first root mismatch", ErrProofBad)
	}
	if sr != second {
		return fmt.Errorf("%w: second root mismatch", ErrProofBad)
	}
	return nil
}
