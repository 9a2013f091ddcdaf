package node

import (
	"fmt"
	"math/rand/v2"
	"net"
	"time"
)

// dialDeadline bounds how long DialRetry keeps trying: long enough for a
// monitor started beside its variants to bind its port, short enough that a
// wrong address still ends the process promptly.
const dialDeadline = 30 * time.Second

// DialRetry dials addr over TCP, retrying a failed dial with jittered,
// doubling backoff (25–50 ms at first, at most 1 s) until dialDeadline has
// passed. Only the dial is retried: once a connection is returned, its
// handshake and session are the caller's, and a session that dies later is
// never redialled.
func DialRetry(addr string) (net.Conn, error) {
	return dialRetry(addr, dialDeadline)
}

func dialRetry(addr string, within time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(within)
	d := net.Dialer{Deadline: deadline}
	backoff := 50 * time.Millisecond
	for attempt := 1; ; attempt++ {
		conn, err := d.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		// Half to all of the backoff, so processes started together spread
		// their retries.
		wait := backoff/2 + rand.N(backoff/2+1)
		if time.Until(deadline) < wait {
			return nil, fmt.Errorf("gave up after %d dials in %v: %w", attempt, within, err)
		}
		time.Sleep(wait)
		backoff = min(2*backoff, time.Second)
	}
}
