package securechan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// secureOver runs the handshake over both ends of a transport with no
// attestation (nil attesters), for record-layer tests.
func secureOver(t testing.TB, a, b net.Conn) (*SecureConn, *SecureConn) {
	t.Helper()
	type res struct {
		c   *SecureConn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := Server(b, nil, nil)
		ch <- res{c, err}
	}()
	cli, err := Client(a, nil, nil)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("server handshake: %v", r.err)
	}
	return cli, r.c
}

// pipePair returns both ends of a secure channel over net.Pipe.
func pipePair(t testing.TB) (*SecureConn, *SecureConn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return secureOver(t, a, b)
}

// tcpPair returns both ends of a TCP loopback connection.
func tcpPair(t testing.TB) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.Fatal("accept failed")
	}
	return a, b
}

// connCase is one Conn implementation on one transport. raw builds the
// transport; wrap turns its two ends into channel ends.
type connCase struct {
	name string
	raw  func(testing.TB) (net.Conn, net.Conn)
	wrap func(testing.TB, net.Conn, net.Conn) (Conn, Conn)
}

// connCases crosses both Conn implementations with net.Pipe and TCP
// loopback. Every contract test runs over all of them.
func connCases() []connCase {
	pipe := func(testing.TB) (net.Conn, net.Conn) { return net.Pipe() }
	plain := func(_ testing.TB, a, b net.Conn) (Conn, Conn) { return Plain(a), Plain(b) }
	secure := func(t testing.TB, a, b net.Conn) (Conn, Conn) { return secureOver(t, a, b) }
	return []connCase{
		{"plain", pipe, plain},
		{"secure", pipe, secure},
		{"plain-tcp", tcpPair, plain},
		{"secure-tcp", tcpPair, secure},
	}
}

// open builds a fresh channel pair and the sender's raw transport, all
// closed when the test ends.
func (cc connCase) open(t testing.TB) (send, recv Conn, raw net.Conn) {
	t.Helper()
	a, b := cc.raw(t)
	t.Cleanup(func() { a.Close(); b.Close() })
	send, recv = cc.wrap(t, a, b)
	return send, recv, a
}

// exchange runs send on one goroutine and recv on the caller's (net.Pipe
// writes block until the peer reads) and returns what arrived.
func exchange(t *testing.T, send func() error, recv Conn) []byte {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- send() }()
	got, err := recv.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("send: %v", err)
	}
	return got
}

func newBufPayload(p []byte) *Buf {
	b := GetBuf(len(p))
	b.AppendPayload(p)
	return b
}

// TestFrameLenCapPreAuth is the regression test for the unbounded
// pre-authentication allocation: a forged length word beyond MaxFrameSize
// must be rejected with the typed error before any body memory is committed.
func TestFrameLenCapPreAuth(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrameSize)+1)
	if _, err := readFrameLen(bytes.NewReader(hdr[:]), make([]byte, frameHdrLen)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("forged length accepted: err = %v", err)
	}
	// Exactly at the cap is allowed (the body read then proceeds
	// incrementally, committing memory only as bytes arrive).
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrameSize))
	if n, err := readFrameLen(bytes.NewReader(hdr[:]), make([]byte, frameHdrLen)); err != nil || n != MaxFrameSize {
		t.Fatalf("cap-sized length rejected: n=%d err=%v", n, err)
	}
	// Sender side enforces the same cap.
	if err := writeFrame(io.Discard, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized send accepted: err = %v", err)
	}
	// Every path applies the receiver's rule to the length word itself: a
	// cap-sized record passes, one byte more fails.
	if err := checkFrameLen(MaxFrameSize); err != nil {
		t.Fatalf("cap-sized length refused by the size rule: %v", err)
	}
	if err := checkFrameLen(MaxFrameSize + 1); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-cap length passed the size rule: err = %v", err)
	}
	// A plain SendBuf checks its payload length before it touches the
	// buffer, so a header-only Buf claiming an over-cap payload is refused
	// without committing the payload memory.
	a, b := net.Pipe()
	a.Close()
	b.Close()
	overCap := &Buf{full: make([]byte, BufHeadroom), n: MaxFrameSize + 1, cls: -1}
	if err := Plain(a).SendBuf(overCap); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-cap plain SendBuf: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestReadBodyIncremental verifies that large frame bodies are committed in
// readChunk steps tracking the bytes actually received: a peer that claims a
// huge frame but hangs up early never forces a full-size allocation.
func TestReadBodyIncremental(t *testing.T) {
	// 3 MiB claimed, only 2.5 MiB sent: must fail with EOF, not succeed.
	claimed := 3 << 20
	sent := claimed - (1 << 19)
	body := make([]byte, sent)
	for i := range body {
		body[i] = byte(i)
	}
	if _, err := readBody(bytes.NewReader(body), nil, claimed); err == nil {
		t.Fatal("short body accepted")
	}
	// Full delivery roundtrips.
	full := make([]byte, claimed)
	for i := range full {
		full[i] = byte(i * 7)
	}
	got, err := readBody(bytes.NewReader(full), nil, claimed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("incremental body read corrupted data")
	}
	// Warm scratch path reuses capacity.
	scratch := make([]byte, 0, claimed)
	got, err = readBody(bytes.NewReader(full), scratch, claimed)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("scratch capacity not reused")
	}
}

// TestConnContract pins the channel contract on every implementation and
// transport: Send leaves its payload intact for fan-out, SendBuf consumes its
// buffer, a Recv result is intact until the next Recv reuses its storage, and
// an over-cap record is refused on both sides before memory is committed. The
// IO timeout is TestIOTimeoutUnblocksRecv, over the same cases.
func TestConnContract(t *testing.T) {
	for _, cc := range connCases() {
		t.Run(cc.name, func(t *testing.T) {
			t.Run("send-leaves-payload-intact", func(t *testing.T) {
				payload := bytes.Repeat([]byte{1, 2, 3, 4}, 4096)
				orig := append([]byte(nil), payload...)
				for i := 0; i < 2; i++ {
					send, recv, _ := cc.open(t)
					got := exchange(t, func() error { return send.Send(payload) }, recv)
					if !bytes.Equal(got, orig) {
						t.Fatalf("conn %d: delivered payload diverged", i)
					}
					if !bytes.Equal(payload, orig) {
						t.Fatalf("conn %d: Send mutated the shared payload", i)
					}
				}
				send, recv, _ := cc.open(t)
				if got := exchange(t, func() error { return send.Send(nil) }, recv); len(got) != 0 {
					t.Fatalf("empty payload arrived as %d bytes", len(got))
				}
			})
			t.Run("sendbuf-consumes", func(t *testing.T) {
				send, recv, _ := cc.open(t)
				msg := bytes.Repeat([]byte{0x5C}, 8192)
				// SendBuf returns the buffer to its pool, so a Get right
				// after it on the same goroutine can hand the same Buf back.
				// The pool may drop an entry (it does so at random under the
				// race detector) or the goroutine may be moved to another P
				// in between, so require reuse at least once over many sends.
				reused := 0
				for i := 0; i < 32; i++ {
					b := newBufPayload(msg)
					done := make(chan []byte, 1)
					go func() {
						got, err := recv.Recv()
						if err != nil {
							got = nil
						}
						done <- append([]byte(nil), got...)
					}()
					err := send.SendBuf(b)
					next := GetBuf(len(msg))
					if next == b {
						reused++
					}
					next.Free()
					if err != nil {
						t.Fatal(err)
					}
					if got := <-done; !bytes.Equal(got, msg) {
						t.Fatalf("send %d: payload mismatch", i)
					}
				}
				if reused == 0 {
					t.Fatal("no buffer handed to SendBuf ever came back from its pool")
				}
			})
			t.Run("recv-valid-until-next-recv", func(t *testing.T) {
				send, recv, _ := cc.open(t)
				one := bytes.Repeat([]byte{0x11}, 4096)
				two := bytes.Repeat([]byte{0x22}, 4096)
				errCh := make(chan error, 1)
				go func() {
					if err := send.Send(one); err != nil {
						errCh <- err
						return
					}
					errCh <- send.Send(two)
				}()
				first, err := recv.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first, one) {
					t.Fatal("first record corrupted")
				}
				second, err := recv.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if err := <-errCh; err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(second, two) {
					t.Fatal("second record corrupted")
				}
				// The next Recv reuses the storage: that is why a caller
				// must decode or copy before receiving again.
				if &first[0] != &second[0] {
					t.Fatal("same-size receives did not reuse the connection's buffer")
				}
			})
			t.Run("over-cap-refused", func(t *testing.T) {
				send, recv, raw := cc.open(t)
				over := &Buf{n: MaxFrameSize + 1, cls: -1} // no payload memory behind it
				if err := send.SendBuf(over); !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("over-cap SendBuf: err = %v", err)
				}
				var hdr [frameHdrLen]byte
				binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrameSize)+1)
				go func() { _, _ = raw.Write(hdr[:]) }()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := recv.Recv()
				runtime.ReadMemStats(&after)
				if !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("over-cap length word: err = %v", err)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= readChunk {
					t.Fatalf("rejecting an over-cap length word allocated %d bytes", grew)
				}
			})
		})
	}
}

// TestIOTimeoutUnblocksRecv pins SetIOTimeout: a Recv with no data arriving
// fails with a timeout instead of blocking.
func TestIOTimeoutUnblocksRecv(t *testing.T) {
	for _, cc := range connCases() {
		t.Run(cc.name, func(t *testing.T) {
			_, recv, _ := cc.open(t)
			recv.SetIOTimeout(20 * time.Millisecond)
			start := time.Now()
			_, err := recv.Recv()
			if err == nil {
				t.Fatal("Recv returned without data")
			}
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("Recv error %v is not a timeout", err)
				}
			}
			if waited := time.Since(start); waited > 2*time.Second {
				t.Fatalf("Recv blocked %v despite deadline", waited)
			}
		})
	}
}

// TestZeroCopySequenceDiscipline confirms SendBuf and Send share one
// sequence space: records from both arrive in order and authenticate.
func TestZeroCopySequenceDiscipline(t *testing.T) {
	cli, srv := pipePair(t)
	go func() {
		_ = cli.SendBuf(newBufPayload([]byte("one")))
		_ = cli.Send([]byte("two"))
		_ = cli.SendBuf(newBufPayload([]byte("three")))
	}()
	for _, want := range []string{"one", "two", "three"} {
		got, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("got %q want %q", got, want)
		}
	}
}

// TestBufGrowPreservesLayout exercises the pooled buffer across size-class
// reallocation: headroom discipline and payload bytes must survive growth.
func TestBufGrowPreservesLayout(t *testing.T) {
	b := GetBuf(16)
	defer b.Free()
	first := []byte("0123456789abcdef")
	b.AppendPayload(first)
	// Force several reallocation steps.
	big := bytes.Repeat([]byte{0xEE}, 1<<14)
	b.AppendPayload(big)
	want := append(append([]byte(nil), first...), big...)
	if !bytes.Equal(b.Payload(), want) {
		t.Fatal("payload corrupted across Grow reallocation")
	}
	if len(b.full) < BufHeadroom+b.Len()+BufTailroom {
		t.Fatal("tailroom lost after growth")
	}
}

// TestBufOversizedUnpooled checks the beyond-class fallback allocates exactly
// and never panics on Free.
func TestBufOversizedUnpooled(t *testing.T) {
	b := GetBuf((1 << 29) + 1)
	if b.cls != -1 {
		t.Fatalf("oversized buffer pooled in class %d", b.cls)
	}
	b.Free() // must be a no-op
}
