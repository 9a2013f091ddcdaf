// Package blas provides the linear-algebra backends underlying the MVTEE
// inference runtimes. The paper's variants differ, among other axes, in which
// BLAS library they link (OpenBLAS vs Eigen vs Intel MKL); a fault attack like
// FrameFlip that targets one library's code is harmless to variants using a
// different one. This package reproduces that axis with three independent
// GEMM implementations behind a common interface. All are exact (no
// approximation) so functionally-equivalent variants produce bitwise-close
// results, yet the code paths, loop orders and memory access patterns are
// genuinely distinct:
//
//   - naive: row-streaming ikj triple loop with the p loop unrolled by four,
//     no blocking or packing — the reference-BLAS stand-in;
//   - blocked: k-blocked L1 tiles whose 4-column strips are copied into an
//     interleaved stack buffer, driving a 4×4 SSE micro-kernel in Go
//     assembly on amd64 (a pure-Go tile with the same arithmetic elsewhere)
//     plus 1×4 and small-N 4×1 Go register tiles, each adding one
//     partial sum per k-block into C — the OpenBLAS-style kernel stand-in;
//   - packed: the whole of B transposed into a pooled column-major buffer,
//     then 2×4 tiles of full-length dot products over the packed panels —
//     the MKL/Eigen-style packing stand-in.
//
// Each backend accumulates every output element in ascending p
// (inner-dimension) order with a parallelism-independent partial-sum
// grouping, so a backend's result is bitwise identical at every parallelism
// level; only cross-backend results differ, by float rounding. No backend
// skips zero operands: NaN and Inf propagate identically through all three,
// so a non-finite value can never be a cross-variant divergence source at
// checkpoints.
package blas

import (
	"fmt"
	"sync"
)

// Backend computes dense single-precision matrix products. Implementations
// must be safe for concurrent use by multiple goroutines.
type Backend interface {
	// Name identifies the backend ("naive", "blocked", "packed").
	Name() string
	// Gemm computes C = A·B where A is m×k, B is k×n and C is m×n, all
	// row-major. C is overwritten.
	Gemm(m, n, k int, a, b, c []float32)
}

// Ranger runs f over a partition of [0,n) into contiguous [lo,hi) ranges,
// possibly concurrently. workpool.Pool implements it; a nil Ranger means
// sequential execution on the caller.
type Ranger interface {
	RunRange(n int, f func(lo, hi int))
}

// panelBackend is implemented by the built-in backends: compute C with
// independent row panels distributed over r.
type panelBackend interface {
	gemmPanels(r Ranger, m, n, k int, a, b, c []float32)
}

// ParallelGemm computes C = A·B on be, splitting independent row panels of C
// across r when the backend supports panel execution. Wrapped or external
// backends (e.g. fault-injection wrappers) fall back to their own sequential
// Gemm, preserving their semantics. A nil r runs sequentially.
func ParallelGemm(be Backend, r Ranger, m, n, k int, a, b, c []float32) {
	if pb, ok := be.(panelBackend); ok {
		checkGemmArgs(m, n, k, a, b, c)
		pb.gemmPanels(r, m, n, k, a, b, c)
		return
	}
	be.Gemm(m, n, k, a, b, c)
}

// Kind selects one of the built-in backends.
type Kind int

// Built-in backend kinds. They stand in for the distinct BLAS libraries of
// the paper's variant pool (§4.2, §6.5).
const (
	Naive   Kind = iota + 1 // triple loop, ikj order — stands in for a reference BLAS
	Blocked                 // cache-blocked/tiled — stands in for OpenBLAS-style kernels
	Packed                  // B-transposed packing — stands in for MKL/Eigen-style packing
)

func (k Kind) String() string {
	switch k {
	case Naive:
		return "naive"
	case Blocked:
		return "blocked"
	case Packed:
		return "packed"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// New returns the backend for kind k.
func New(k Kind) (Backend, error) {
	switch k {
	case Naive:
		return naiveBackend{}, nil
	case Blocked:
		return blockedBackend{}, nil
	case Packed:
		return packedBackend{}, nil
	default:
		return nil, fmt.Errorf("blas: unknown backend kind %d", int(k))
	}
}

// MustNew is New that panics on error; for static configuration tables.
func MustNew(k Kind) Backend {
	b, err := New(k)
	if err != nil {
		panic(err)
	}
	return b
}

// Kinds lists all built-in backend kinds.
func Kinds() []Kind { return []Kind{Naive, Blocked, Packed} }

func checkGemmArgs(m, n, k int, a, b, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("blas: gemm buffer too small: m=%d n=%d k=%d len(a)=%d len(b)=%d len(c)=%d",
			m, n, k, len(a), len(b), len(c)))
	}
}

// --- naive ------------------------------------------------------------------

type naiveBackend struct{}

func (naiveBackend) Name() string { return "naive" }

func (be naiveBackend) Gemm(m, n, k int, a, b, c []float32) {
	checkGemmArgs(m, n, k, a, b, c)
	be.gemmPanels(nil, m, n, k, a, b, c)
}

// gemmPanels runs naiveRows over all of C, split across r when r is not nil.
// The closure exists only on the branch that hands work to r: escape
// analysis is flow-insensitive, so a closure passed to r on any path would
// be heap-allocated on every call.
func (naiveBackend) gemmPanels(r Ranger, m, n, k int, a, b, c []float32) {
	if r == nil {
		naiveRows(0, m, n, k, a, b, c)
		return
	}
	r.RunRange(m, func(lo, hi int) { naiveRows(lo, hi, n, k, a, b, c) })
}

// naiveRows streams C rows [lo,hi) one at a time in ikj order: zero the row,
// then add a[i,p]·B[p,:] into it for ascending p. The p loop is unrolled by
// four, so each C element is loaded and stored once per four products; the
// sum still runs left to right in ascending p. Deliberately unblocked and
// unpacked.
func naiveRows(lo, hi, n, k int, a, b, c []float32) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : i*n+n]
		for x := range ci {
			ci[x] = 0
		}
		ai := a[i*k : i*k+k]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
			b0 := b[p*n : p*n+n]
			b1 := b[(p+1)*n : (p+1)*n+n]
			b2 := b[(p+2)*n : (p+2)*n+n]
			b3 := b[(p+3)*n : (p+3)*n+n]
			b0 = b0[:len(ci)]
			b1 = b1[:len(ci)]
			b2 = b2[:len(ci)]
			b3 = b3[:len(ci)]
			for j, cv := range ci {
				ci[j] = cv + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; p < k; p++ {
			av := ai[p]
			bp := b[p*n : p*n+n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// --- blocked ------------------------------------------------------------------

type blockedBackend struct{}

func (blockedBackend) Name() string { return "blocked" }

// blockK is the k-panel depth: a 4-column B strip of blockK rows (1 KiB)
// stays L1-resident while every row of the current panel sweeps it. panelM
// bounds the A row panel so A stays L1-resident against the strip.
const (
	blockK = 64
	panelM = 32
)

func (be blockedBackend) Gemm(m, n, k int, a, b, c []float32) {
	checkGemmArgs(m, n, k, a, b, c)
	be.gemmPanels(nil, m, n, k, a, b, c)
}

// gemmPanels runs blockedRows over all of C in 4-row tiles, split across r
// when r is not nil (see naiveBackend.gemmPanels for why the closure lives
// on that branch alone).
func (blockedBackend) gemmPanels(r Ranger, m, n, k int, a, b, c []float32) {
	if r == nil {
		blockedRows(0, m, n, k, a, b, c)
		return
	}
	r.RunRange((m+3)/4, func(tlo, thi int) { blockedRows(tlo*4, min(thi*4, m), n, k, a, b, c) })
}

// blockedRows is the cache-tiled backend over C rows [lo,hi). For every
// k-block it copies each 4-column strip of B once into a stack buffer
// interleaved as [p][4], then sweeps the panel's rows: 4×4 tiles through
// blockedTile4x4 (the SSE micro-kernel on amd64), the leftover rows through
// the 1×4 Go tile over the same strip. The n%4 tail columns go through a 4×1
// register tile that reads B in place. Every tile starts each k-block's
// partial sums at 0, accumulates them in ascending p and adds them into the
// zeroed C in k-block order, so every output element gets the same
// arithmetic whichever tile or row panel computes it, and results are
// bitwise identical at every parallelism level. Products are rounded
// explicitly (float32(x*y)) so no GOARCH or GOAMD64 level fuses them into
// FMAs the SSE kernel does not do.
func blockedRows(lo, hi, n, k int, a, b, c []float32) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : i*n+n]
		for x := range ci {
			ci[x] = 0
		}
	}
	var buf [blockK * 4]float32
	nAlign := n &^ 3
	for m0 := lo; m0 < hi; m0 += panelM {
		m1 := min(m0+panelM, hi)
		for p0 := 0; p0 < k; p0 += blockK {
			pMax := min(p0+blockK, k)
			s := buf[:(pMax-p0)*4]
			for j := 0; j < nAlign; j += 4 {
				for p := p0; p < pMax; p++ {
					copy(s[(p-p0)*4:(p-p0)*4+4], b[p*n+j:p*n+j+4])
				}
				i := m0
				for ; i+4 <= m1; i += 4 {
					blockedTile4x4(a[i*k+p0:], k, s, c[i*n+j:], n)
				}
				for ; i < m1; i++ {
					blockedTile1x4(a[i*k+p0:i*k+pMax], s, c[i*n+j:i*n+j+4])
				}
			}
			for j := nAlign; j < n; j++ {
				i := m0
				for ; i+4 <= m1; i += 4 {
					blockedTile4x1(a[i*k+p0:], k, pMax-p0, b[p0*n+j:], n, c[i*n+j:])
				}
				for ; i < m1; i++ {
					ai := a[i*k+p0 : i*k+pMax]
					var s0 float32
					for p, av := range ai {
						s0 += float32(av * b[(p0+p)*n+j])
					}
					c[i*n+j] += s0
				}
			}
		}
	}
}

// blockedTile4x4Go adds the k-block partial sums of the 4×4 C tile at c (row
// stride n) from the A rows at a (row stride k) and the interleaved [p][4] B
// strip s. It is the portable form of the SSE micro-kernel, with the same
// arithmetic: the path on GOARCHes without the assembly kernel, and the
// reference the kernel is tested against.
func blockedTile4x4Go(a []float32, k int, s, c []float32, n int) {
	plen := len(s) / 4
	a0 := a[0*k : 0*k+plen]
	a1 := a[1*k : 1*k+plen]
	a2 := a[2*k : 2*k+plen]
	a3 := a[3*k : 3*k+plen]
	a1 = a1[:len(a0)]
	a2 = a2[:len(a0)]
	a3 = a3[:len(a0)]
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	for p := range a0 {
		bp := s[p*4 : p*4+4]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		av := a0[p]
		c00 += float32(av * b0)
		c01 += float32(av * b1)
		c02 += float32(av * b2)
		c03 += float32(av * b3)
		av = a1[p]
		c10 += float32(av * b0)
		c11 += float32(av * b1)
		c12 += float32(av * b2)
		c13 += float32(av * b3)
		av = a2[p]
		c20 += float32(av * b0)
		c21 += float32(av * b1)
		c22 += float32(av * b2)
		c23 += float32(av * b3)
		av = a3[p]
		c30 += float32(av * b0)
		c31 += float32(av * b1)
		c32 += float32(av * b2)
		c33 += float32(av * b3)
	}
	addRow4(c[0*n:0*n+4], c00, c01, c02, c03)
	addRow4(c[1*n:1*n+4], c10, c11, c12, c13)
	addRow4(c[2*n:2*n+4], c20, c21, c22, c23)
	addRow4(c[3*n:3*n+4], c30, c31, c32, c33)
}

// blockedTile1x4 is blockedTile4x4Go for the single row a0 into the four
// elements c0.
func blockedTile1x4(a0, s, c0 []float32) {
	s = s[:len(a0)*4]
	var c00, c01, c02, c03 float32
	for p, av := range a0 {
		bp := s[p*4 : p*4+4]
		c00 += float32(av * bp[0])
		c01 += float32(av * bp[1])
		c02 += float32(av * bp[2])
		c03 += float32(av * bp[3])
	}
	addRow4(c0, c00, c01, c02, c03)
}

// blockedTile4x1 adds the k-block partial sums of the 4×1 C column at c (row
// stride n) from the A rows at a (row stride k) and plen elements of the B
// column at b (stride n): the small-N tail, where the spatial size of a deep
// layer leaves fewer than four columns.
func blockedTile4x1(a []float32, k, plen int, b []float32, n int, c []float32) {
	a0 := a[0*k : 0*k+plen]
	a1 := a[1*k : 1*k+plen]
	a2 := a[2*k : 2*k+plen]
	a3 := a[3*k : 3*k+plen]
	a1 = a1[:len(a0)]
	a2 = a2[:len(a0)]
	a3 = a3[:len(a0)]
	var c0, c1, c2, c3 float32
	for p := range a0 {
		bv := b[p*n]
		c0 += float32(a0[p] * bv)
		c1 += float32(a1[p] * bv)
		c2 += float32(a2[p] * bv)
		c3 += float32(a3[p] * bv)
	}
	c[0*n] += c0
	c[1*n] += c1
	c[2*n] += c2
	c[3*n] += c3
}

// addRow4 adds one k-block's four partial sums into the C row r.
func addRow4(r []float32, c0, c1, c2, c3 float32) {
	r = r[:4]
	r[0] += c0
	r[1] += c1
	r[2] += c2
	r[3] += c3
}

// --- packed ------------------------------------------------------------------

type packedBackend struct{}

func (packedBackend) Name() string { return "packed" }

// btPool recycles the B-transpose packing buffers so steady-state inference
// does not allocate per GEMM call.
var btPool = sync.Pool{New: func() any { s := []float32(nil); return &s }}

func getPacked(n int) *[]float32 {
	p := btPool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

func (be packedBackend) Gemm(m, n, k int, a, b, c []float32) {
	checkGemmArgs(m, n, k, a, b, c)
	be.gemmPanels(nil, m, n, k, a, b, c)
}

// gemmPanels transposes the whole of B once into a pooled column-major
// buffer, then computes 2×4 tiles of full-length dot products over the
// contiguous packed panels — k is the innermost loop over the entire inner
// dimension, the opposite traversal of the other two backends. Every output
// element is one straight ascending-p dot product in every code path, so
// results are bitwise identical at every parallelism level. Row pairs are
// split across r when r is not nil (see naiveBackend.gemmPanels for why the
// closure lives on that branch alone).
func (packedBackend) gemmPanels(r Ranger, m, n, k int, a, b, c []float32) {
	btp := getPacked(k * n)
	bt := *btp
	for p := 0; p < k; p++ {
		bp := b[p*n : p*n+n]
		for j, bv := range bp {
			bt[j*k+p] = bv
		}
	}
	if r == nil {
		packedRows(0, m, n, k, a, bt, c)
	} else {
		r.RunRange((m+1)/2, func(tlo, thi int) { packedRows(tlo*2, min(thi*2, m), n, k, a, bt, c) })
	}
	btPool.Put(btp)
}

// packedRows fills C rows [lo,hi) from the packed B: row pairs through
// packedRows2, an odd last row as plain dot products.
func packedRows(lo, hi, n, k int, a, bt, c []float32) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		packedRows2(i, n, k, a, bt, c)
	}
	if i < hi {
		ai := a[i*k : i*k+k]
		for j := 0; j < n; j++ {
			bj := bt[j*k : j*k+k]
			bj = bj[:len(ai)]
			var s float32
			for p := range ai {
				s += ai[p] * bj[p]
			}
			c[i*n+j] = s
		}
	}
}

// packedRows2 fills C[i:i+2, :] with 2×4 dot-product tiles over packed B.
func packedRows2(i, n, k int, a, bt, c []float32) {
	a0 := a[(i+0)*k : (i+0)*k+k]
	a1 := a[(i+1)*k : (i+1)*k+k]
	a1 = a1[:len(a0)]
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := bt[(j+0)*k : (j+0)*k+k]
		b1 := bt[(j+1)*k : (j+1)*k+k]
		b2 := bt[(j+2)*k : (j+2)*k+k]
		b3 := bt[(j+3)*k : (j+3)*k+k]
		b0 = b0[:len(a0)]
		b1 = b1[:len(a0)]
		b2 = b2[:len(a0)]
		b3 = b3[:len(a0)]
		var c00, c01, c02, c03 float32
		var c10, c11, c12, c13 float32
		for p := range a0 {
			w0, w1, w2, w3 := b0[p], b1[p], b2[p], b3[p]
			av := a0[p]
			c00 += av * w0
			c01 += av * w1
			c02 += av * w2
			c03 += av * w3
			av = a1[p]
			c10 += av * w0
			c11 += av * w1
			c12 += av * w2
			c13 += av * w3
		}
		r0 := c[(i+0)*n+j : (i+0)*n+j+4]
		r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
		r1 := c[(i+1)*n+j : (i+1)*n+j+4]
		r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	}
	for ; j < n; j++ {
		bj := bt[j*k : j*k+k]
		bj = bj[:len(a0)]
		var s0, s1 float32
		for p := range bj {
			bv := bj[p]
			s0 += a0[p] * bv
			s1 += a1[p] * bv
		}
		c[(i+0)*n+j] = s0
		c[(i+1)*n+j] = s1
	}
}
