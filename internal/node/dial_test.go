package node

import (
	"net"
	"testing"
	"time"
)

// freeAddr returns a loopback address with nothing listening on it.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialRetryWaitsForLateListener starts the listener 300 ms after the
// first dial: the refused dials before it are retried, not fatal.
func TestDialRetryWaitsForLateListener(t *testing.T) {
	addr := freeAddr(t)
	accepted := make(chan error, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			accepted <- err
			return
		}
		defer ln.Close()
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
		accepted <- err
	}()
	start := time.Now()
	conn, err := DialRetry(addr)
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	conn.Close()
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < 300*time.Millisecond {
		t.Fatalf("connected after %v, before the listener opened", waited)
	}
}

// TestDialRetryGivesUp requires the retry loop to end at its deadline with
// the dial's error.
func TestDialRetryGivesUp(t *testing.T) {
	addr := freeAddr(t)
	start := time.Now()
	if conn, err := dialRetry(addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Fatal("dial to a closed port succeeded")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("gave up after %v, deadline 200ms", waited)
	}
}
