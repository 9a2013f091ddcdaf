package main

import (
	"crypto/sha256"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostProbe times two fixed pieces of work that involve none of the
// program, and reads the host's CPU accounting. Every run probes before and
// after its window and records the diagnostics hostDiagnostics derives, so a
// result can be read against the host's speed at the time: on shared
// virtual machines it drifts by tens of percent over minutes, and the
// hand-off-bound workloads follow the wake-up time more than the compute
// time.
type hostProbe struct {
	hashMS float64 // 100k SHA-256 blocks on one thread
	// wakeUS is the median round trip between two OS threads through a
	// pipe pair: each trip waits on the kernel waking the other thread, as
	// the stack's hand-offs do.
	wakeUS float64
	// steal and total are the system-wide "steal" and summed CPU times of
	// /proc/stat, in clock ticks.
	steal, total uint64
}

func probeHost() hostProbe {
	var p hostProbe
	p.steal, p.total = cpuStat()
	var b [32]byte
	t0 := time.Now()
	for i := 0; i < 100_000; i++ {
		b = sha256.Sum256(b[:])
	}
	p.hashMS = ms(time.Since(t0))

	ar, aw, err1 := os.Pipe()
	br, bw, err2 := os.Pipe()
	if err1 != nil || err2 != nil {
		return p
	}
	defer func() {
		for _, f := range []*os.File{ar, aw, br, bw} {
			f.Close()
		}
	}()
	const trips = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]byte, 1)
		for i := 0; i < trips; i++ {
			if _, err := ar.Read(buf); err != nil {
				return
			}
			if _, err := bw.Write(buf); err != nil {
				return
			}
		}
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]byte, 1)
	rtts := make([]float64, 0, trips)
	for i := 0; i < trips; i++ {
		t := time.Now()
		if _, err := aw.Write(buf); err != nil {
			break
		}
		if _, err := br.Read(buf); err != nil {
			break
		}
		rtts = append(rtts, float64(time.Since(t))/float64(time.Microsecond))
	}
	aw.Close() // ends the helper's loop early if a trip failed
	<-done
	p.wakeUS = median(rtts)
	return p
}

// cpuStat reads the steal and total CPU ticks from /proc/stat's "cpu" line;
// zeros where it is unreadable.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostDiagnostics averages two probes and gives the share of CPU time the
// hypervisor stole between them.
func hostDiagnostics(before, after hostProbe) map[string]float64 {
	d := map[string]float64{
		"host_hash_ms": (before.hashMS + after.hashMS) / 2,
		"host_wake_us": (before.wakeUS + after.wakeUS) / 2,
	}
	if after.total > before.total {
		d["host_steal_share"] = float64(after.steal-before.steal) / float64(after.total-before.total)
	}
	return d
}
