package workpool

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilPoolSequential(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers = %d, want 1", p.Workers())
	}
	if got := ranges(p, 10); !slices.Equal(got, [][2]int{{0, 10}}) {
		t.Fatalf("nil pool ran ranges %v, want the whole region once", got)
	}
	p.Close() // must not panic
}

func TestNewSmallParallelism(t *testing.T) {
	if New(0) != nil || New(1) != nil {
		t.Fatal("New(<=1) must return the nil sequential pool")
	}
}

func TestRunCoversAllIndices(t *testing.T) {
	p := New(4)
	defer p.Close()
	for _, n := range []int{0, 1, 2, 3, 7, 16, 100, 1000} {
		hits := make([]atomic.Int32, n)
		p.RunRange(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d executed %d times, want 1", n, i, got)
			}
		}
	}
}

func TestRunRangePartition(t *testing.T) {
	p := New(3)
	defer p.Close()
	const n = 257
	var covered [n]atomic.Int32
	p.RunRange(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad range [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
		}
	})
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i].Load())
		}
	}
}

// TestNestedRegions verifies that parallel regions issued from inside a
// parallel region complete without deadlock (busy workers ⇒ caller runs the
// inner region itself).
func TestNestedRegions(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	p.RunRange(8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.RunRange(8, func(lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}
	})
	if total.Load() != 64 {
		t.Fatalf("nested total = %d, want 64", total.Load())
	}
}

// TestConcurrentCallers verifies that many goroutines can drive the same pool
// at once — the monitor runs several variant executors concurrently, all
// sharing per-executor pools but potentially also one pool.
func TestConcurrentCallers(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				p.RunRange(37, func(lo, hi int) { total.Add(int64(hi - lo)) })
			}
		}()
	}
	wg.Wait()
	if want := int64(8 * 50 * 37); total.Load() != want {
		t.Fatalf("total = %d, want %d", total.Load(), want)
	}
}

func TestUseAfterCloseFallsBack(t *testing.T) {
	p := New(4)
	p.Close()
	if got := ranges(p, 10); !slices.Equal(got, [][2]int{{0, 10}}) { // sequential fallback, no panic
		t.Fatalf("closed pool ran ranges %v, want the whole region once", got)
	}
}

// ranges runs a region of n indices on p and returns the [lo,hi) chunks it
// was split into, in call order.
func ranges(p *Pool, n int) [][2]int {
	var mu sync.Mutex
	var got [][2]int
	p.RunRange(n, func(lo, hi int) {
		mu.Lock()
		got = append(got, [2]int{lo, hi})
		mu.Unlock()
	})
	return got
}
