package securechan

import (
	"fmt"
	"net"
	"testing"
)

// BenchmarkChannelThroughput measures the record layer on checkpoint-sized
// payloads — the encryption overhead Figure 10 decomposes — for the secure
// (AES-GCM-256 + sequence numbers) and plain framings. secure-zerocopy is
// the secure framing on the pooled path the data plane uses (SendShared into
// a pooled frame, RecvBuf opening in place) instead of a fresh buffer per
// message.
func BenchmarkChannelThroughput(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
		payload := make([]byte, size)
		for _, mode := range []string{"plain", "secure", "secure-zerocopy"} {
			b.Run(fmt.Sprintf("%s/%dKiB", mode, size>>10), func(b *testing.B) {
				ca, cb := net.Pipe()
				defer ca.Close()
				var send, recv Conn
				if mode == "plain" {
					send, recv = Plain(ca), Plain(cb)
				} else {
					_, cliEncl := testEnclave(b, "cli")
					_, srvEncl := testEnclave(b, "srv")
					done := make(chan *SecureConn, 1)
					go func() {
						c, err := Server(cb, srvEncl, nil)
						if err != nil {
							panic(err)
						}
						done <- c
					}()
					cli, err := Client(ca, cliEncl, nil)
					if err != nil {
						b.Fatal(err)
					}
					send, recv = cli, <-done
				}
				sendMsg, recvMsg := send.Send, recv.Recv
				if mode == "secure-zerocopy" {
					sendMsg, recvMsg = send.(ZeroCopy).SendShared, recv.(ZeroCopy).RecvBuf
				}
				errCh := make(chan error, 1)
				go func() {
					for i := 0; i < b.N; i++ {
						if _, err := recvMsg(); err != nil {
							errCh <- err
							return
						}
					}
					errCh <- nil
				}()
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sendMsg(payload); err != nil {
						b.Fatal(err)
					}
				}
				if err := <-errCh; err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkHandshake measures the attested channel establishment cost (the
// per-variant bring-up price in Figure 6).
func BenchmarkHandshake(b *testing.B) {
	_, cliEncl := testEnclave(b, "cli")
	_, srvEncl := testEnclave(b, "srv")
	for i := 0; i < b.N; i++ {
		ca, cb := net.Pipe()
		done := make(chan error, 1)
		go func() {
			_, err := Server(cb, srvEncl, nil)
			done <- err
		}()
		if _, err := Client(ca, cliEncl, nil); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		ca.Close()
	}
}
