package tensor

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	tests := []struct {
		shape []int
		size  int
	}{
		{nil, 1},
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{1, 3, 4, 4}, 48},
		{[]int{5, 0, 2}, 0},
	}
	for _, tt := range tests {
		x := New(tt.shape...)
		if x.Size() != tt.size {
			t.Errorf("New(%v).Size() = %d, want %d", tt.shape, x.Size(), tt.size)
		}
		if !reflect.DeepEqual(x.Shape(), append([]int{}, tt.shape...)) && len(tt.shape) > 0 {
			t.Errorf("New(%v).Shape() = %v", tt.shape, x.Shape())
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestVolumeOverflowRejected(t *testing.T) {
	// The wraparound attack: 2^54 * 3 * 32 * 32 ≡ 0 (mod 2^64), so an
	// unchecked product would equal len(nil) and admit a tensor claiming
	// 2^54 leading items.
	if _, err := FromSlice(nil, 1<<54, 3, 32, 32); !errors.Is(err, ErrShape) {
		t.Fatalf("FromSlice(wrapping shape) err = %v, want ErrShape", err)
	}
	if _, err := CheckedVolume([]int{math.MaxInt, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("Volume(overflowing shape) err = %v, want ErrShape", err)
	}
	if _, err := CheckedVolume([]int{MaxVolume + 1}); !errors.Is(err, ErrShape) {
		t.Fatalf("Volume(MaxVolume+1) err = %v, want ErrShape", err)
	}
	if n, err := CheckedVolume([]int{MaxVolume}); err != nil || n != MaxVolume {
		t.Fatalf("Volume(MaxVolume) = %d, %v; want %d, nil", n, err, MaxVolume)
	}
	// Zero dimensions still give volume zero, even next to huge ones.
	if n, err := CheckedVolume([]int{0, 1 << 54}); err != nil || n != 0 {
		t.Fatalf("Volume([0, 2^54]) = %d, %v; want 0, nil", n, err)
	}
}

func TestNewOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for overflowing volume")
		}
	}()
	New(1<<54, 1<<54)
}

func TestFromSlice(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	x, err := FromSlice(data, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", x.At(1, 2))
	}
	x.Set(9, 0, 1)
	if data[1] != 9 {
		t.Error("FromSlice must retain the caller's slice")
	}
	if _, err := FromSlice(data, 4, 2); err == nil {
		t.Error("expected shape/volume mismatch error")
	}
	if _, err := FromSlice(data, -1, 6); err == nil {
		t.Error("expected negative dim error")
	}
}

func TestAtSetBounds(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestReshape(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y, err := x.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(2, 1) != 6 {
		t.Errorf("reshaped At(2,1) = %v, want 6", y.At(2, 1))
	}
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Error("Reshape must share data")
	}
	if _, err := x.Reshape(4, 2); err == nil {
		t.Error("expected volume mismatch error")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3}, 3)
	y := x.Clone()
	y.Set(7, 1)
	if x.At(1) != 2 {
		t.Error("Clone must deep-copy data")
	}
	if !x.SameShape(y) {
		t.Error("Clone must preserve shape")
	}
}

func TestElementwiseHelpers(t *testing.T) {
	x := MustFromSlice([]float32{1, -2, 3}, 3)
	x.Apply(func(v float32) float32 { return v * 2 })
	if got := x.Data(); got[0] != 2 || got[1] != -4 || got[2] != 6 {
		t.Errorf("Apply result %v", got)
	}
	y := MustFromSlice([]float32{1, 1, 1}, 3)
	if err := x.AddInPlace(y); err != nil {
		t.Fatal(err)
	}
	if x.At(1) != -3 {
		t.Errorf("AddInPlace: %v", x.Data())
	}
	if err := x.AddInPlace(New(2)); err == nil {
		t.Error("expected shape error")
	}
	x.Scale(0.5)
	if x.At(0) != 1.5 {
		t.Errorf("Scale: %v", x.Data())
	}
	x.Fill(0)
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("Fill(0) left nonzero")
		}
	}
}

func TestHasNaN(t *testing.T) {
	x := New(3)
	if x.HasNaN() {
		t.Error("zero tensor has no NaN")
	}
	x.Set(float32(math.NaN()), 1)
	if !x.HasNaN() {
		t.Error("NaN not detected")
	}
	y := New(2)
	y.Set(float32(math.Inf(1)), 0)
	if !y.HasNaN() {
		t.Error("Inf not detected")
	}
}

// encode returns the wire-format encoding of x in fresh memory.
func encode(x *Tensor) []byte {
	buf := make([]byte, x.EncodedSize())
	x.Encode(buf)
	return buf
}

func TestMarshalUnmarshalRoundtrip(t *testing.T) {
	x := MustFromSlice([]float32{1.5, -2.25, 3.125, 0}, 2, 2)
	buf := encode(x)
	y, n, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if !reflect.DeepEqual(x.Shape(), y.Shape()) || !reflect.DeepEqual(x.Data(), y.Data()) {
		t.Errorf("roundtrip mismatch: %v vs %v", x, y)
	}
}

func TestEncodeReadFromRoundtrip(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 2, 2, 2)
	y, err := ReadFrom(bytes.NewReader(encode(x)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x.Data(), y.Data()) || !x.SameShape(y) {
		t.Error("stream roundtrip mismatch")
	}
}

// overflowHeader is a 16-byte tensor encoding whose rank-2 header declares
// dims 0x41303030 x 0x80303030: an unchecked volume product overflows the
// payload size. It is committed as a FuzzTensorReadFrom seed too.
var overflowHeader = []byte{2, 0, 0, 0, 0x30, 0x30, 0x30, 0x41, 0x30, 0x30, 0x30, 0x80, 0, 0, 0, 0}

func TestReadFromRejectsOverflowingShape(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader(overflowHeader)); !errors.Is(err, ErrShape) {
		t.Fatalf("ReadFrom(overflowing dims) = %v, want ErrShape", err)
	}
}

// TestReadFromTruncatedHugePayload: a header declaring 2^28 elements (1 GiB
// of payload) followed by 8 bytes must fail as truncated, having allocated
// memory for the bytes that arrived, not for the volume the header claims.
func TestReadFromTruncatedHugePayload(t *testing.T) {
	in := []byte{1, 0, 0, 0, 0, 0, 0, 0x10, 1, 2, 3, 4, 5, 6, 7, 8}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrom(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFrom(truncated 2^28-element tensor) = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Fatalf("allocated %d bytes for 8 payload bytes, want <= 256 KiB", got)
	}
}

// TestReadFromGrowsToExactVolume streams a tensor several read chunks long:
// the payload decodes bit-exactly into a backing array of exactly its volume.
func TestReadFromGrowsToExactVolume(t *testing.T) {
	x := New(3, readChunk+5)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	y, err := ReadFrom(bytes.NewReader(encode(x)))
	if err != nil {
		t.Fatal(err)
	}
	if !x.SameShape(y) || !reflect.DeepEqual(x.Data(), y.Data()) {
		t.Fatal("multi-chunk stream roundtrip mismatch")
	}
	if cap(y.Data()) != len(y.Data()) {
		t.Fatalf("backing array cap %d for volume %d", cap(y.Data()), len(y.Data()))
	}
}

// FuzzTensorReadFrom checks the streaming decoder model graphs load through
// against the buffer decoder: both accept exactly the same inputs, consume
// the same bytes and decode the same bits.
func FuzzTensorReadFrom(f *testing.F) {
	f.Add(encode(MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)))
	f.Add(encode(MustFromSlice([]float32{float32(math.NaN()), -0}, 2)))
	f.Add(encode(New()))
	f.Add(encode(New(0, 4)))
	f.Add(overflowHeader)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		got, errR := ReadFrom(r)
		want, n, errU := Unmarshal(data)
		if (errR == nil) != (errU == nil) {
			t.Fatalf("ReadFrom err %v, Unmarshal err %v", errR, errU)
		}
		if errR != nil {
			return
		}
		if used := len(data) - r.Len(); used != n {
			t.Fatalf("ReadFrom consumed %d bytes, Unmarshal %d", used, n)
		}
		if !got.SameShape(want) {
			t.Fatalf("shape %v, Unmarshal %v", got.Shape(), want.Shape())
		}
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("element %d: %x, Unmarshal %x", i, math.Float32bits(v), math.Float32bits(want.Data()[i]))
			}
		}
	})
}

func TestUnmarshalMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{0xff, 0xff, 0xff, 0xff}, // absurd rank
		encode(MustFromSlice([]float32{1, 2}, 2))[:6], // truncated
		// Rank 2 with dims whose product wraps negative, then 4 bytes.
		{2, 0, 0, 0, 0x30, 0x30, 0x30, 0x41, 0x30, 0x30, 0x30, 0x80, 0, 0, 0, 0},
	}
	for i, c := range cases {
		if _, _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestQuickSerializationRoundtrip property-tests the wire codec: any tensor
// survives marshal/unmarshal bit-exactly.
func TestQuickSerializationRoundtrip(t *testing.T) {
	f := func(seed uint64, d1, d2 uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		shape := []int{int(d1%8) + 1, int(d2%8) + 1}
		x := New(shape...)
		for i := range x.Data() {
			x.Data()[i] = float32(rng.NormFloat64())
		}
		y, _, err := Unmarshal(encode(x))
		if err != nil {
			return false
		}
		return x.SameShape(y) && reflect.DeepEqual(x.Data(), y.Data())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReshapeVolume property-tests that reshape succeeds exactly when
// volumes match.
func TestQuickReshapeVolume(t *testing.T) {
	f := func(a, b uint8) bool {
		m, n := int(a%6)+1, int(b%6)+1
		x := New(m, n)
		_, err := x.Reshape(n, m)
		if err != nil {
			return false
		}
		_, err = x.Reshape(m*n + 1)
		return err != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
