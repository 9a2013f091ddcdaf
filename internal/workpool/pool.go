// Package workpool provides a persistent worker pool for intra-operator
// parallelism. The MVTEE inference hot path dispatches many small parallel
// regions per inference call (one per operator, §6.4's per-kernel cost axis);
// spawning goroutines per region costs more than the work itself for small
// operators. A Pool keeps its workers parked on a channel between regions so
// steady-state dispatch is a channel send plus an atomic fetch-add, with no
// goroutine creation.
//
// The scheduling discipline is chunked work stealing: a region [0,n) is split
// into a bounded number of contiguous chunks and workers (plus the caller,
// which always participates) claim chunks with an atomic counter. Dispatch is
// non-blocking — if every worker is busy (e.g. nested parallel regions), the
// caller simply executes the whole region itself, so nesting can never
// deadlock and never oversubscribes.
package workpool

import (
	"sync"
	"sync/atomic"
)

// chunksPerWorker bounds chunk count per region: enough pieces for load
// balancing across uneven chunk costs, few enough that per-chunk overhead
// stays negligible.
const chunksPerWorker = 4

// Pool is a fixed-size set of persistent workers. A nil *Pool is valid and
// runs everything sequentially on the caller, so callers never need to branch
// on parallelism. Methods are safe for concurrent use.
type Pool struct {
	tasks chan func()
	// workers is the total parallelism (background workers + the caller).
	workers int
	closed  atomic.Bool
}

// New returns a pool with the given total parallelism. The caller of each
// parallel region counts as one worker, so New starts workers-1 background
// goroutines. Parallelism <= 1 returns nil (the sequential pool).
func New(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	p := &Pool{tasks: make(chan func(), workers-1), workers: workers}
	for i := 0; i < workers-1; i++ {
		go func() {
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// Workers returns the pool's total parallelism (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close releases the background workers. Pending regions finish first; using
// the pool after Close falls back to sequential execution on the caller.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	if p.closed.CompareAndSwap(false, true) {
		close(p.tasks)
	}
}

// RunRange executes f over a partition of [0,n) into contiguous [lo,hi)
// chunks, in parallel when workers are free. f must be safe to call
// concurrently on disjoint ranges. RunRange returns after every chunk has
// completed.
func (p *Pool) RunRange(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p == nil || n == 1 || p.closed.Load() {
		f(0, n)
		return
	}
	chunks := p.workers * chunksPerWorker
	if chunks > n {
		chunks = n
	}
	chunk := (n + chunks - 1) / chunks

	var next atomic.Int64
	steal := func() {
		for {
			c := int(next.Add(1)) - 1
			lo := c * chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			f(lo, hi)
		}
	}

	var wg sync.WaitGroup
	helper := func() {
		defer wg.Done()
		steal()
	}
	// Offer one task per idle worker; never block. If all workers are busy
	// the caller absorbs the region alone.
	for i := 0; i < p.workers-1; i++ {
		wg.Add(1)
		ok := false
		select {
		case p.tasks <- helper:
			ok = true
		default:
		}
		if !ok {
			wg.Done()
			break
		}
	}
	steal() // the caller always participates
	wg.Wait()
}
