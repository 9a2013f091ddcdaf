//go:build !race

package securechan

import (
	"bytes"
	"strings"
	"testing"
)

// TestRecordLayerAllocatesNothing pins the warm record layer over TCP
// loopback: a send (in-place SendBuf or fan-out Send) plus the Recv of that
// record allocates nothing beyond the caller's decode, for sealed and plain
// framing alike. The nonces, length words and write vector live in the
// connection for this reason.
func TestRecordLayerAllocatesNothing(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 4<<10)
	for _, cc := range connCases() {
		if !strings.HasSuffix(cc.name, "-tcp") {
			continue // net.Pipe writes block until read: no single-goroutine round trip
		}
		send, recv, _ := cc.open(t)
		for name, sendOne := range map[string]func() error{
			"SendBuf": func() error { return send.SendBuf(newBufPayload(payload)) },
			"Send":    func() error { return send.Send(payload) },
		} {
			roundtrip := func() {
				if err := sendOne(); err != nil {
					t.Fatal(err)
				}
				got, err := recv.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(payload) {
					t.Fatalf("received %d bytes, want %d", len(got), len(payload))
				}
			}
			for i := 0; i < 5; i++ { // warm the buffer pool and receive buffer
				roundtrip()
			}
			if got := testing.AllocsPerRun(100, roundtrip); got != 0 {
				t.Errorf("%s %s+Recv allocates %.1f times per record, want 0", cc.name, name, got)
			}
		}
	}
}
