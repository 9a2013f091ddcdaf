package core

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestBufferedPipeWriteDoesNotWaitForReader(t *testing.T) {
	a, b := bufferedPipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 8; i++ {
			if _, err := a.Write([]byte("frame")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Write waited for the peer to read")
	}
	buf := make([]byte, 40)
	if _, err := io.ReadFull(b, buf); err != nil || string(buf) != strings.Repeat("frame", 8) {
		t.Fatalf("read %q, %v", buf, err)
	}
}

func TestBufferedPipeCloseSemantics(t *testing.T) {
	a, b := bufferedPipe()
	if _, err := a.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// The peer reads what was written before the close, then EOF.
	got, err := io.ReadAll(b)
	if err != nil || string(got) != "last words" {
		t.Fatalf("peer read %q, %v", got, err)
	}
	if _, err := b.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write to a closed peer: %v", err)
	}
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read on a closed end: %v", err)
	}
	if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write on a closed end: %v", err)
	}

	// Close releases a blocked Read on the same end.
	c, d := bufferedPipe()
	defer d.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("blocked read after Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not release a blocked Read")
	}
}

func TestBufferedPipeDeadlines(t *testing.T) {
	a, b := bufferedPipe()
	defer a.Close()
	defer b.Close()
	if err := b.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := b.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("read deadline fired late")
	}
	// A deadline moved into the past releases a Read already waiting.
	if err := b.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := b.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = b.SetReadDeadline(time.Now())
	select {
	case err := <-errc:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("waiting read after deadline change: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a past deadline did not release a waiting Read")
	}
}
