package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

func pubInputs() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		"image": tensor.MustFromSlice([]float32{0, float32(math.Copysign(0, -1)), 1.5, -2.25, 3e38, -3e38}, 2, 3),
		"mask":  tensor.MustFromSlice([]float32{1}, 1, 1),
	}
}

func TestPublicRequestRoundtrip(t *testing.T) {
	in := pubInputs()
	var body bytes.Buffer
	if err := EncodeRequest(&body, in); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(body.Len()), RequestEncodedSize(in); got != want {
		t.Fatalf("encoded size %d, RequestEncodedSize says %d", got, want)
	}
	out, err := DecodeRequest(bytes.NewReader(body.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d tensors, want %d", len(out), len(in))
	}
	for name, want := range in {
		got := out[name]
		if got == nil || !got.SameShape(want) {
			t.Fatalf("tensor %q shape mismatch", name)
		}
		for i, w := range want.Data() {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(w) {
				t.Fatalf("tensor %q element %d: bits %x != %x", name, i,
					math.Float32bits(got.Data()[i]), math.Float32bits(w))
			}
		}
	}
}

func TestPublicRequestNaNSafe(t *testing.T) {
	// NaN payload bits (including a non-default quiet-NaN payload) and both
	// infinities must survive the binary roundtrip bit-exactly — the property
	// the JSON path cannot offer at all.
	odd := math.Float32frombits(0x7fc00123)
	in := map[string]*tensor.Tensor{"x": tensor.MustFromSlice(
		[]float32{float32(math.NaN()), odd, float32(math.Inf(1)), float32(math.Inf(-1))}, 1, 4)}
	var body bytes.Buffer
	if err := EncodeRequest(&body, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRequest(&body, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range in["x"].Data() {
		if g := out["x"].Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("element %d: bits %x != %x", i, math.Float32bits(g), math.Float32bits(w))
		}
	}
}

func TestPublicRequestDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := EncodeRequest(&a, pubInputs()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeRequest(&b, pubInputs()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same inputs encode to different bytes (map-order leak)")
	}
}

// trackingReader counts how many bytes DecodeRequest consumed.
type trackingReader struct {
	r io.Reader
	n int
}

func (t *trackingReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.n += n
	return n, err
}

func TestPublicDecodeValidatesBeforePayload(t *testing.T) {
	// A frame whose shape the validator rejects must be refused at header
	// cost: the reader must not be asked for the (large) payload.
	big := tensor.New(64, 1024) // 256 KiB payload
	var body bytes.Buffer
	if err := EncodeRequest(&body, map[string]*tensor.Tensor{"x": big}); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("shape rejected at admission")
	tr := &trackingReader{r: bytes.NewReader(body.Bytes())}
	_, err := DecodeRequest(tr, func(name string, shape []int) error {
		if shape[0] > 1 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want the validator's error", err)
	}
	if tr.n > 1024 {
		t.Fatalf("decoder consumed %d bytes of a rejected frame; payload must stay unread", tr.n)
	}
}

func TestPublicDecodeRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		var b bytes.Buffer
		if err := EncodeRequest(&b, pubInputs()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad-magic":   append([]byte("XVT\x01"), valid()[4:]...),
		"bad-version": append([]byte("MVT\x09"), valid()[4:]...),
		"zero-count":  {'M', 'V', 'T', 1, 0, 0},
		"truncated":   valid()[:len(valid())/2],
		"no-end":      valid()[:len(valid())-frameHdrSize],
	}
	for name, body := range cases {
		if _, err := DecodeRequest(bytes.NewReader(body), nil); !errors.Is(err, ErrPubDecode) {
			t.Errorf("%s: err = %v, want ErrPubDecode", name, err)
		}
	}
	// Oversize declared count.
	hdr := []byte{'M', 'V', 'T', 1, 0xff, 0xff}
	if _, err := DecodeRequest(bytes.NewReader(hdr), nil); !errors.Is(err, ErrPubDecode) {
		t.Errorf("oversize count: err = %v, want ErrPubDecode", err)
	}
}

func TestPublicResponseRoundtrip(t *testing.T) {
	outs := pubInputs()
	meta := PubMeta{ID: 42, BatchID: 7, BatchFill: 3, Latency: 1500 * time.Microsecond, Tensors: len(outs)}
	var body bytes.Buffer
	if err := WriteResponseHeader(&body, meta); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"image", "mask"} { // sorted, as the server writes
		if err := WriteTensorFrame(&body, name, outs[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteEndFrame(&body); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotOuts, err := DecodeResponse(&body)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	for name, want := range outs {
		got := gotOuts[name]
		if got == nil || !got.SameShape(want) {
			t.Fatalf("output %q missing or misshapen", name)
		}
	}
}

func TestPublicResponseTruncationDetected(t *testing.T) {
	outs := map[string]*tensor.Tensor{"y": tensor.MustFromSlice([]float32{1, 2}, 1, 2)}
	var body bytes.Buffer
	if err := WriteResponseHeader(&body, PubMeta{Tensors: 1}); err != nil {
		t.Fatal(err)
	}
	if err := WriteTensorFrame(&body, "y", outs["y"]); err != nil {
		t.Fatal(err)
	}
	// No end frame: a complete-looking but unterminated stream must fail.
	if _, _, err := DecodeResponse(&body); !errors.Is(err, ErrPubDecode) {
		t.Fatalf("err = %v, want ErrPubDecode on missing end frame", err)
	}
}

func TestPublicErrorFrame(t *testing.T) {
	var body bytes.Buffer
	if err := WriteErrorFrame(&body, http.StatusTooManyRequests, 75*time.Millisecond, "tenant overloaded"); err != nil {
		t.Fatal(err)
	}
	_, _, err := DecodeResponse(&body)
	var pe *PubError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PubError", err)
	}
	if pe.Status != http.StatusTooManyRequests || pe.RetryAfter != 75*time.Millisecond ||
		!strings.Contains(pe.Msg, "overloaded") {
		t.Fatalf("decoded error = %+v", pe)
	}
}

func TestMaxRequestSizeCoversDeclaredShapes(t *testing.T) {
	shapes := map[string][]int{"image": {1, 3, 32, 32}, "mask": {1, 32}}
	const maxItems = 16
	bound := MaxRequestSize(shapes, maxItems)

	// A maximal legitimate request must fit under the bound.
	in := map[string]*tensor.Tensor{
		"image": tensor.New(maxItems, 3, 32, 32),
		"mask":  tensor.New(maxItems, 32),
	}
	if got := RequestEncodedSize(in); got > bound {
		t.Fatalf("maximal request %d bytes exceeds MaxRequestSize %d", got, bound)
	}
	// The bound must stay close to binary reality: not the ~24 bytes/float
	// JSON estimate (6x would already be generous).
	if slack := bound - RequestEncodedSize(in); slack > 1<<12 {
		t.Fatalf("bound slack %d bytes; binary sizing should be tight", slack)
	}
}

func TestCheckPublicShape(t *testing.T) {
	for _, bad := range [][]int{
		{},                 // rank 0
		make([]int, 17),    // rank over MaxWireDims
		{1, 0, 3},          // zero dim
		{-1, 4},            // negative dim
		{1 << 31, 1 << 31}, // overflow
	} {
		if _, err := CheckPublicShape(bad); err == nil {
			t.Errorf("CheckPublicShape(%v) accepted", bad)
		}
	}
	vol, err := CheckPublicShape([]int{2, 3, 4})
	if err != nil || vol != 24 {
		t.Fatalf("vol=%d err=%v", vol, err)
	}
}
