package transcript

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// BenchmarkLogAppend measures leaf append, amortized over a growing tree.
func BenchmarkLogAppend(b *testing.B) {
	b.ReportAllocs()
	l := NewLog()
	var leaf [8]byte
	for i := 0; b.Loop(); i++ {
		binary.LittleEndian.PutUint64(leaf[:], uint64(i))
		l.Append(LeafHash(leaf[:]))
	}
}

// BenchmarkProof measures inclusion and consistency proof generation over a
// log of n leaves, cycling through every index and prefix size. Beyond the
// first few hundred leaves most stored hashes are read back from sealed
// segments of the spill file.
func BenchmarkProof(b *testing.B) {
	for _, n := range []uint64{4096, 65536, 1 << 20} {
		l := buildLog(b, testLeaves(int(n)))
		defer l.Close()
		b.Run(fmt.Sprintf("inclusion/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := uint64(0); b.Loop(); i++ {
				if _, err := l.InclusionProof(i%n, n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("consistency/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := uint64(0); b.Loop(); i++ {
				if _, err := l.ConsistencyProof(i%(n-1)+1, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
