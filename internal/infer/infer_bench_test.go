package infer

import (
	"testing"

	"repro/internal/tensor"
)

// BenchmarkRun measures warm single-image inference on the standard
// evaluation model through both executor families: the interpreter's
// per-call maps against the planned executor's plan-time arena.
func BenchmarkRun(b *testing.B) {
	g := testModel(b)
	in := map[string]*tensor.Tensor{"image": testInput(5)}
	for _, rt := range []RuntimeKind{Interp, Planned} {
		ex, err := New(g, Config{Runtime: rt})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("googlenet/"+rt.String(), func(b *testing.B) {
			for i := 0; i < 2; i++ { // warm the arena and scratch pools
				if _, err := ex.Run(in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ex.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
