package telemetry

// ring is the fixed-capacity, overwrite-oldest buffer behind Bus, Tracer and
// the flight recorder's sample and note rings. It does no locking: every
// owner guards it with its own mutex.
type ring[T any] struct {
	buf   []T
	n     int    // valid entries, == len(buf) once wrapped
	pos   int    // next write index
	total uint64 // entries ever pushed, evicted ones included
}

// newRing returns a ring retaining the most recent capacity entries
// (at least one).
func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, max(capacity, 1))}
}

// push stores v, evicting the oldest entry when the ring is full.
func (r *ring[T]) push(v T) {
	r.buf[r.pos] = v
	r.pos++
	if r.pos == len(r.buf) {
		r.pos = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
}

// newest points at the i-th most recent entry (0 is the last pushed);
// 0 <= i < r.n. The pointer is valid until the owner's next push.
func (r *ring[T]) newest(i int) *T {
	idx := r.pos - 1 - i
	if idx < 0 {
		idx += len(r.buf)
	}
	return &r.buf[idx]
}

// snapshot copies the retained entries, oldest first.
func (r *ring[T]) snapshot() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = *r.newest(r.n - 1 - i)
	}
	return out
}
