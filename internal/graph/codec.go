package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Binary graph container format. The encoding is deterministic (maps are
// emitted in sorted key order) so that serialized graphs can double as
// attestation measurement inputs.
const (
	codecMagic   = "MVTG"
	codecVersion = 1
)

// encoder walks a graph in container order. With buf nil it only counts the
// encoded size, so Marshal can size its output exactly and then fill it in a
// second walk.
type encoder struct {
	buf []byte
	n   int
}

func (e *encoder) u32(v uint32) {
	if e.buf != nil {
		binary.LittleEndian.PutUint32(e.buf[e.n:], v)
	}
	e.n += 4
}

func (e *encoder) u64(v uint64) {
	if e.buf != nil {
		binary.LittleEndian.PutUint64(e.buf[e.n:], v)
	}
	e.n += 8
}

func (e *encoder) raw(s string) {
	if e.buf != nil {
		copy(e.buf[e.n:], s)
	}
	e.n += len(s)
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.raw(s)
}

func (e *encoder) strs(ss []string) {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *encoder) tensor(t *tensor.Tensor) {
	if e.buf != nil {
		t.Encode(e.buf[e.n:])
	}
	e.n += t.EncodedSize()
}

func (e *encoder) graph(g *Graph) error {
	e.raw(codecMagic)
	e.u32(codecVersion)
	e.str(g.Name)

	e.u32(uint32(len(g.Inputs)))
	for _, vi := range g.Inputs {
		e.str(vi.Name)
		e.u32(uint32(len(vi.Shape)))
		for _, d := range vi.Shape {
			e.u32(uint32(d))
		}
	}
	e.strs(g.Outputs)

	e.u32(uint32(len(g.Nodes)))
	for _, n := range g.Nodes {
		e.str(n.Name)
		e.str(n.Op)
		e.strs(n.Inputs)
		e.strs(n.Outputs)
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.u32(uint32(len(keys)))
		for _, k := range keys {
			a := n.Attrs[k]
			e.str(k)
			e.u32(uint32(a.Kind))
			switch a.Kind {
			case AttrInt:
				e.u64(uint64(a.I))
			case AttrFloat:
				e.u64(math.Float64bits(a.F))
			case AttrString:
				e.str(a.S)
			case AttrInts:
				e.u32(uint32(len(a.Ints)))
				for _, x := range a.Ints {
					e.u64(uint64(x))
				}
			default:
				return fmt.Errorf("graph: encode: node %q attr %q has unknown kind %d", n.Name, k, a.Kind)
			}
		}
	}

	inits := make([]string, 0, len(g.Initializers))
	for k := range g.Initializers {
		inits = append(inits, k)
	}
	sort.Strings(inits)
	e.u32(uint32(len(inits)))
	for _, k := range inits {
		e.str(k)
		e.tensor(g.Initializers[k])
	}
	return nil
}

// Marshal returns the binary container encoding of g in a buffer of exactly
// its encoded size.
func Marshal(g *Graph) ([]byte, error) {
	var size encoder
	if err := size.graph(g); err != nil {
		return nil, err
	}
	e := encoder{buf: make([]byte, size.n)}
	if err := e.graph(g); err != nil {
		return nil, err
	}
	return e.buf, nil
}

type graphReader struct {
	r   *bufio.Reader
	err error
}

func (gr *graphReader) u32() uint32 {
	if gr.err != nil {
		return 0
	}
	var b [4]byte
	_, gr.err = io.ReadFull(gr.r, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (gr *graphReader) u64() uint64 {
	if gr.err != nil {
		return 0
	}
	var b [8]byte
	_, gr.err = io.ReadFull(gr.r, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

const maxStringLen = 1 << 20

func (gr *graphReader) str() string {
	n := gr.u32()
	if gr.err != nil {
		return ""
	}
	if n > maxStringLen {
		gr.err = fmt.Errorf("graph: decode: string length %d exceeds limit", n)
		return ""
	}
	b := make([]byte, n)
	_, gr.err = io.ReadFull(gr.r, b)
	return string(b)
}

func (gr *graphReader) strs() []string {
	n := gr.u32()
	if gr.err != nil || n > maxStringLen {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = gr.str()
	}
	return out
}

// Decode reads a graph from r in the binary container format.
func Decode(r io.Reader) (*Graph, error) {
	gr := &graphReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(gr.r, magic); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("graph: decode: bad magic %q", magic)
	}
	if v := gr.u32(); v != codecVersion {
		return nil, fmt.Errorf("graph: decode: unsupported version %d", v)
	}
	g := New(gr.str())

	nin := gr.u32()
	for i := uint32(0); i < nin && gr.err == nil; i++ {
		vi := ValueInfo{Name: gr.str()}
		nd := gr.u32()
		vi.Shape = make([]int, nd)
		for j := range vi.Shape {
			vi.Shape[j] = int(gr.u32())
		}
		g.Inputs = append(g.Inputs, vi)
	}
	g.Outputs = gr.strs()

	nn := gr.u32()
	for i := uint32(0); i < nn && gr.err == nil; i++ {
		n := &Node{Name: gr.str(), Op: gr.str(), Inputs: gr.strs(), Outputs: gr.strs()}
		na := gr.u32()
		if na > 0 {
			n.Attrs = make(map[string]Attr, na)
		}
		for j := uint32(0); j < na && gr.err == nil; j++ {
			k := gr.str()
			a := Attr{Kind: AttrKind(gr.u32())}
			switch a.Kind {
			case AttrInt:
				a.I = int64(gr.u64())
			case AttrFloat:
				a.F = math.Float64frombits(gr.u64())
			case AttrString:
				a.S = gr.str()
			case AttrInts:
				cnt := gr.u32()
				a.Ints = make([]int64, cnt)
				for x := range a.Ints {
					a.Ints[x] = int64(gr.u64())
				}
			default:
				return nil, fmt.Errorf("graph: decode: node %q attr %q unknown kind %d", n.Name, k, a.Kind)
			}
			n.Attrs[k] = a
		}
		g.Nodes = append(g.Nodes, n)
	}

	ni := gr.u32()
	for i := uint32(0); i < ni && gr.err == nil; i++ {
		name := gr.str()
		if gr.err != nil {
			break
		}
		t, err := tensor.ReadFrom(gr.r)
		if err != nil {
			return nil, fmt.Errorf("graph: decode initializer %q: %w", name, err)
		}
		g.Initializers[name] = t
	}
	if gr.err != nil {
		return nil, fmt.Errorf("graph: decode: %w", gr.err)
	}
	return g, nil
}

// Unmarshal decodes a graph from its binary encoding.
func Unmarshal(b []byte) (*Graph, error) {
	return Decode(bytes.NewReader(b))
}
