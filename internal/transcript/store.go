package transcript

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/pfcrypt"
)

// ErrStorage reports that the transcript's spill file could not be written
// or that a sealed segment read back from it failed authentication. A write
// failure is sticky: the log stops growing and every read refuses to answer
// rather than serve a partial or wrong proof.
var ErrStorage = errors.New("transcript: spill storage failed")

// segItems is how many items (stored hashes or encoded leaves) one segment
// holds. The newest, unsealed segment stays in memory; every full one is
// sealed to the spill file.
const segItems = 256

// openSlots sizes each store's cache of opened sealed segments. Proofs
// revisit the same few segments (the left subtrees' roots), so a small
// direct-mapped cache saves most reads and decryptions.
const openSlots = 16

// spill is the append-only file behind a log's sealed segments. The file is
// unlinked as soon as it is created, so nothing is left behind however the
// process exits. Each segment is sealed with pfcrypt under a key that never
// leaves memory, with the segment's kind and index as the authenticated
// path, so a flipped byte or a moved segment fails to open.
type spill struct {
	f   *os.File
	kdk pfcrypt.KDK
	off int64 // next write offset; owned by the appending goroutine
}

func newSpill() (*spill, error) {
	kdk, err := pfcrypt.NewKDK()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	f, err := os.CreateTemp("", "mvtee-transcript-*")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	if err := os.Remove(f.Name()); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	return &spill{f: f, kdk: kdk}, nil
}

// extent locates one sealed segment in the spill file.
type extent struct {
	off int64
	n   int64
}

func (s *spill) write(path string, plain []byte) (extent, error) {
	blob, err := pfcrypt.Encrypt(s.kdk, path, plain)
	if err != nil {
		return extent{}, fmt.Errorf("%w: seal %s: %v", ErrStorage, path, err)
	}
	if _, err := s.f.WriteAt(blob, s.off); err != nil {
		return extent{}, fmt.Errorf("%w: write %s: %v", ErrStorage, path, err)
	}
	e := extent{off: s.off, n: int64(len(blob))}
	s.off += e.n
	return e, nil
}

func (s *spill) read(path string, e extent) ([]byte, error) {
	blob := make([]byte, e.n)
	if _, err := s.f.ReadAt(blob, e.off); err != nil {
		return nil, fmt.Errorf("%w: read %s: %v", ErrStorage, path, err)
	}
	plain, err := pfcrypt.Decrypt(s.kdk, path, blob)
	if err != nil {
		return nil, fmt.Errorf("%w: open %s: %v", ErrStorage, path, err)
	}
	return plain, nil
}

// segment is up to segItems byte items packed back to back: item k is
// data[ends[k-1]:ends[k]]. Sealed, it is encoded as a u32 count, the u32
// end offsets and the data.
type segment struct {
	ends []uint32
	data []byte
}

func (s segment) item(k uint64) []byte {
	var start uint32
	if k > 0 {
		start = s.ends[k-1]
	}
	return s.data[start:s.ends[k]]
}

func (s segment) marshal() []byte {
	out := make([]byte, 0, 4+4*len(s.ends)+len(s.data))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.ends)))
	for _, e := range s.ends {
		out = binary.LittleEndian.AppendUint32(out, e)
	}
	return append(out, s.data...)
}

func unmarshalSegment(b []byte) (segment, error) {
	if len(b) < 4 {
		return segment{}, fmt.Errorf("%w: segment truncated", ErrStorage)
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n != segItems || len(b) < 4+4*n {
		return segment{}, fmt.Errorf("%w: segment holds %d items", ErrStorage, n)
	}
	s := segment{ends: make([]uint32, n), data: b[4+4*n:]}
	var prev uint32
	for i := range s.ends {
		e := binary.LittleEndian.Uint32(b[4+4*i:])
		if e < prev || int(e) > len(s.data) {
			return segment{}, fmt.Errorf("%w: segment offsets out of order", ErrStorage)
		}
		s.ends[i], prev = e, e
	}
	return s, nil
}

// openedSeg is one cache entry: a sealed segment, authenticated and decoded.
type openedSeg struct {
	index uint64
	seg   segment
}

// segStore is an append-only sequence of byte items with one writer. The
// writer appends and seals; readers work from a segView snapshot the
// writer hands out, so they never wait for it and it never waits for them.
type segStore struct {
	kind string                 // "hash" or "leaf", part of each segment's path
	open func() (*spill, error) // the shared spill file, created on first use

	n    uint64
	edge segment
	segs []extent
	sp   *spill
	err  error

	cache *[openSlots]atomic.Pointer[openedSeg]
}

func newSegStore(kind string, open func() (*spill, error)) segStore {
	return segStore{kind: kind, open: open, cache: new([openSlots]atomic.Pointer[openedSeg])}
}

// segPath is the authenticated pfcrypt path of one sealed segment.
func segPath(kind string, seg uint64) string { return fmt.Sprintf("transcript/%s/%d", kind, seg) }

// append adds one item, sealing the segment it completes. An error is
// sticky: the store accepts nothing more.
func (s *segStore) append(item []byte) error {
	if s.err != nil {
		return s.err
	}
	s.edge.data = append(s.edge.data, item...)
	s.edge.ends = append(s.edge.ends, uint32(len(s.edge.data)))
	s.n++
	if len(s.edge.ends) == segItems {
		s.err = s.seal()
	}
	return s.err
}

func (s *segStore) seal() error {
	sp, err := s.open()
	if err != nil {
		return err
	}
	e, err := sp.write(segPath(s.kind, uint64(len(s.segs))), s.edge.marshal())
	if err != nil {
		return err
	}
	s.sp = sp
	s.segs = append(s.segs, e)
	// A fresh edge, never the old arrays: readers may still hold them.
	s.edge = segment{ends: make([]uint32, 0, segItems), data: make([]byte, 0, len(s.edge.data))}
	return nil
}

// view snapshots everything appended so far. The writer only ever writes
// past the snapshot's lengths, or into fresh arrays, so the snapshot stays
// valid without locks.
func (s *segStore) view() segView {
	return segView{kind: s.kind, n: s.n, segs: s.segs, edge: s.edge, sp: s.sp, err: s.err, cache: s.cache}
}

// segView is a reader's snapshot of a segStore.
type segView struct {
	kind  string
	n     uint64
	segs  []extent
	edge  segment
	sp    *spill
	err   error
	cache *[openSlots]atomic.Pointer[openedSeg]
}

// items returns the items at positions idx, aliasing store memory (callers
// copy before handing them out). Each sealed segment is opened at most once
// per call.
func (v *segView) items(idx []uint64) ([][]byte, error) {
	if v.err != nil {
		return nil, v.err
	}
	out := make([][]byte, len(idx))
	var last *openedSeg
	for i, x := range idx {
		if x >= v.n {
			return nil, fmt.Errorf("transcript: %s item %d beyond %d", v.kind, x, v.n)
		}
		seg := x / segItems
		if seg == uint64(len(v.segs)) {
			out[i] = v.edge.item(x % segItems)
			continue
		}
		if last == nil || last.index != seg {
			o, err := v.opened(seg)
			if err != nil {
				return nil, err
			}
			last = o
		}
		out[i] = last.seg.item(x % segItems)
	}
	return out, nil
}

func (v *segView) opened(seg uint64) (*openedSeg, error) {
	slot := &v.cache[seg%openSlots]
	if o := slot.Load(); o != nil && o.index == seg {
		return o, nil
	}
	plain, err := v.sp.read(segPath(v.kind, seg), v.segs[seg])
	if err != nil {
		return nil, err
	}
	s, err := unmarshalSegment(plain)
	if err != nil {
		return nil, err
	}
	o := &openedSeg{index: seg, seg: s}
	slot.Store(o)
	return o, nil
}
