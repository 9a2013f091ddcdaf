package wire

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// BenchmarkBatchCodec measures the hot-path tensor-message codec on
// checkpoint-sized payloads: the allocating Marshal, the pooled MarshalBuf
// the data plane sends from, and Unmarshal.
func BenchmarkBatchCodec(b *testing.B) {
	for _, dim := range []int{16, 56} {
		x := tensor.New(1, 64, dim, dim)
		msg := &Batch{ID: 1, Tensors: map[string]*tensor.Tensor{"boundary": x}}
		b.Run(fmt.Sprintf("marshal/%dx%d", dim, dim), func(b *testing.B) {
			b.SetBytes(int64(4 * x.Size()))
			for i := 0; i < b.N; i++ {
				if _, err := Marshal(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("marshal-pooled/%dx%d", dim, dim), func(b *testing.B) {
			b.SetBytes(int64(4 * x.Size()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, err := MarshalBuf(msg)
				if err != nil {
					b.Fatal(err)
				}
				buf.Free()
			}
		})
		buf, err := Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("unmarshal/%dx%d", dim, dim), func(b *testing.B) {
			b.SetBytes(int64(4 * x.Size()))
			for i := 0; i < b.N; i++ {
				if _, err := Unmarshal(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
