package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// FuzzPublicRequest drives the public binary request decoder — the one
// parser on the serving surface that pre-auth internet bytes reach — with
// arbitrary input: it must never panic, and every body it accepts must
// re-encode deterministically and decode back bit-identically.
func FuzzPublicRequest(f *testing.F) {
	seed := func(inputs map[string]*tensor.Tensor) {
		var b bytes.Buffer
		if err := EncodeRequest(&b, inputs); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	seed(map[string]*tensor.Tensor{
		"image": tensor.MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3),
		"mask":  tensor.MustFromSlice([]float32{-0, float32(math.NaN())}, 1, 2),
	})
	seed(map[string]*tensor.Tensor{"x": tensor.MustFromSlice([]float32{0}, 1)})
	f.Add([]byte("MVT\x01"))
	f.Add([]byte{'M', 'V', 'T', 1, 1, 0, FrameTensor, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		inputs, err := DecodeRequest(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var b1, b2 bytes.Buffer
		if err := EncodeRequest(&b1, inputs); err != nil {
			t.Fatalf("accepted request fails to re-encode: %v", err)
		}
		in2, err := DecodeRequest(bytes.NewReader(b1.Bytes()), nil)
		if err != nil {
			t.Fatalf("re-encoded request fails to decode: %v", err)
		}
		if err := EncodeRequest(&b2, in2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("request not bit-stable across roundtrip")
		}
	})
}

// FuzzWireUnmarshal drives the tagged-message decoder with arbitrary bytes:
// it must never panic, and everything it does accept must survive a
// re-marshal/re-unmarshal roundtrip (decode-encode-decode stability).
func FuzzWireUnmarshal(f *testing.F) {
	seedMsgs := []Msg{
		&Batch{ID: 7, Tensors: map[string]*tensor.Tensor{
			"a": tensor.MustFromSlice([]float32{1, 2, 3, 4}, 2, 2),
			"b": tensor.MustFromSlice([]float32{-1.5}, 1),
		}},
		&Result{ID: 9, VariantID: "v1", Err: "boom", Tensors: map[string]*tensor.Tensor{
			"y": tensor.MustFromSlice([]float32{0}, 1),
		}},
		&Ack{Detail: "ok"},
		&Bound{VariantID: "v1", Resume: 3},
		&Shutdown{},
	}
	for _, m := range seedMsgs {
		b, err := marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{byte(TBatch), 0, 0, 0})
	f.Add([]byte{byte(TResult)})
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		b2, err := marshal(m)
		if err != nil {
			t.Fatalf("accepted message fails to re-marshal: %v", err)
		}
		m2, err := Unmarshal(b2)
		if err != nil {
			t.Fatalf("re-marshalled message fails to decode: %v", err)
		}
		// Binary messages must be bit-stable across the roundtrip (MarshalBuf
		// sorts tensor names and is NaN-safe); control messages may normalize
		// JSON, so compare only the concrete type.
		switch m.(type) {
		case *Batch, *Verify, *Result, *Digest, *SpanReport:
			b3, err := marshal(m2)
			if err != nil {
				t.Fatalf("second re-marshal: %v", err)
			}
			if !bytes.Equal(b2, b3) {
				t.Fatalf("%T not bit-stable across roundtrip", m)
			}
		default:
			if reflect.TypeOf(m) != reflect.TypeOf(m2) {
				t.Fatalf("type drift: %T -> %T", m, m2)
			}
		}
	})
}
