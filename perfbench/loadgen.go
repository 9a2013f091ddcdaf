package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// outcome is one request's fate as the client saw it. Times are Unix
// nanoseconds so outcomes cross the process boundary exactly.
type outcome struct {
	Input int `json:"i"`
	// Due is the latency base: the scheduled send time in an open loop, the
	// send time in a closed loop.
	Due  int64 `json:"due"`
	Sent int64 `json:"sent"`
	Done int64 `json:"done"`
	// Cause is empty for an OK response whose outputs passed the check;
	// otherwise it names the failure ("timeout", "http 429", "mismatch", ...).
	Cause  string `json:"cause,omitempty"`
	Detail string `json:"detail,omitempty"`
	// The server's answer: request and batch IDs, batch fill and the
	// server-side admission-to-delivery latency.
	ID       uint64 `json:"id,omitempty"`
	BatchID  uint64 `json:"batch,omitempty"`
	Fill     int    `json:"fill,omitempty"`
	ServerNs int64  `json:"server_ns,omitempty"`
}

func (o *outcome) ok() bool               { return o.Cause == "" }
func (o *outcome) latency() time.Duration { return time.Duration(o.Done - o.Due) }

// phase is one load phase's record.
type phase struct {
	Outcomes []outcome `json:"outcomes"`
	Start    int64     `json:"start"`
	End      int64     `json:"end"`       // last completion
	Window   int64     `json:"window_ns"` // the d drive was given
	// LateMaxNs is how late the generator ran at worst: past a request's
	// scheduled time in an open loop, from a response to the connection's
	// next send in a closed loop.
	LateMaxNs int64 `json:"late_max_ns"`
	// The output check's reach: the share of pool pairs the swap check can
	// tell apart, and the largest L∞ error of an answer that passed, to be
	// read against swapTolerance (see inputPool.check).
	DistinctShare float64 `json:"distinct_share"`
	MaxErr        float64 `json:"max_err"`
}

func (p *phase) seconds() float64 { return float64(p.End-p.Start) / 1e9 }

// drive runs reqs against the server for d with conns connections and
// returns every request sent. A closed loop keeps one request in flight per
// connection until d has passed, or with d == 0 until it has sent every
// request of reqs once; an open loop sends each request at its
// scheduled offset, queueing behind busy connections, and its latency counts
// from the schedule. Requests get the workload's deadline and no retries.
func drive(client *serve.Client, pool *inputPool, w workload, reqs []request, d time.Duration, conns int) phase {
	start := time.Now()
	p := phase{Start: start.UnixNano(), Window: int64(d)}
	var mu sync.Mutex
	late := func(ns int64) {
		mu.Lock()
		p.LateMaxNs = max(p.LateMaxNs, ns)
		mu.Unlock()
	}
	record := func(o outcome, e float64) {
		mu.Lock()
		p.Outcomes = append(p.Outcomes, o)
		if o.ok() {
			p.MaxErr = max(p.MaxErr, e)
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	if w.rate > 0 {
		type job struct {
			input int
			due   time.Time
		}
		jobs := make(chan job, len(reqs)) // the whole schedule may queue
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					record(send(client, pool, w, j.input, j.due))
				}
			}()
		}
		for _, r := range reqs {
			due := start.Add(r.at)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late(int64(time.Since(due)))
			jobs <- job{r.input, due}
		}
		close(jobs)
	} else {
		end := start.Add(d)
		var next atomic.Int64
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var prev int64
				for d == 0 || time.Now().Before(end) {
					k := int(next.Add(1) - 1)
					if d == 0 && k >= len(reqs) {
						return
					}
					o, e := send(client, pool, w, reqs[k%len(reqs)].input, time.Time{})
					if prev != 0 {
						late(o.Sent - prev)
					}
					prev = o.Done
					record(o, e)
				}
			}()
		}
	}
	wg.Wait()
	for i := range p.Outcomes {
		p.End = max(p.End, p.Outcomes[i].Done)
	}
	return p
}

// send issues one request and checks its outputs, returning the outcome and
// the answer's L∞ error. A zero due means now.
func send(client *serve.Client, pool *inputPool, w workload, input int, due time.Time) (outcome, float64) {
	ctx, cancel := context.WithTimeout(context.Background(), w.deadline())
	defer cancel()
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	o := outcome{Input: input, Due: due.UnixNano(), Sent: sent.UnixNano()}
	resp, err := client.Infer(ctx, serve.Request{Inputs: pool.inputs[input]})
	o.Done = time.Now().UnixNano()
	var se *serve.StatusError
	var e float64
	switch {
	case err == nil:
		o.ID, o.BatchID, o.Fill, o.ServerNs = resp.ID, resp.BatchID, resp.BatchFill, int64(resp.Latency)
		var cerr error
		e, cerr = pool.check(input, resp.Tensors)
		switch {
		case errors.Is(cerr, errSwapped):
			o.Cause, o.Detail = "swapped", cerr.Error()
		case cerr != nil:
			o.Cause, o.Detail = "mismatch", cerr.Error()
		}
	case errors.Is(err, context.DeadlineExceeded):
		o.Cause = "timeout"
	case errors.As(err, &se):
		o.Cause, o.Detail = fmt.Sprintf("http %d", se.Status), se.Msg
	default:
		o.Cause, o.Detail = "transport", err.Error()
	}
	return o, e
}

// Client-process protocol. The load generator runs in its own process so
// that its timers and latency clock are not starved by the serving stack's
// goroutines (the two share the host's cores, not one Go scheduler), and so
// the server's CPU time excludes the client's. It prints markerStart and
// markerEnd around the measured window, then the window's phase as JSON.
const (
	markerStart = "window-start"
	markerEnd   = "window-end"
	urlEnv      = "PERFBENCH_URL"
)

// clientMain is the client process: warm up with a fixed number of
// requests, then measure one window.
func clientMain(o options, stdout io.Writer) int {
	w := o.workload
	pool, err := newInputPool(w, o.seed, poolSize)
	if err == nil {
		err = pool.expect(w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench client:", err)
		return 1
	}
	client := newClient(os.Getenv(urlEnv), conns())
	rng := rand.New(rand.NewSource(o.seed))
	window := time.Duration(o.seconds) * time.Second
	warm := drive(client, pool, w, w.warmupSchedule(rng), w.warmupDuration(), conns())
	for i := range warm.Outcomes {
		if c := warm.Outcomes[i].Cause; c == "mismatch" || c == "swapped" {
			fmt.Fprintf(os.Stderr, "perfbench client: warm-up answer failed the output check: %s\n", warm.Outcomes[i].Detail)
			return 1
		}
	}
	reqs := w.schedule(rng, window)
	fmt.Fprintln(stdout, markerStart)
	ph := drive(client, pool, w, reqs, window, conns())
	fmt.Fprintln(stdout, markerEnd)
	ph.DistinctShare, ph.MaxErr = pool.distinctShare(), max(ph.MaxErr, warm.MaxErr)
	fmt.Fprintf(stdout, "%s\n", mustJSON(ph))
	return 0
}

// runClient starts the client process against url and calls onStart and
// onEnd as it enters and leaves the measured window. It waits for the
// process and returns the window's phase. Once the client runs, this
// process drops below it in CPU priority (see deprioritize).
func runClient(o options, url string, onStart, onEnd func()) (phase, error) {
	exe, err := os.Executable()
	if err != nil {
		return phase{}, err
	}
	args := []string{"--workload", o.workload.name, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds)}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), roleEnv+"=client", urlEnv+"="+url)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return phase{}, err
	}
	if err := cmd.Start(); err != nil {
		return phase{}, err
	}
	deprioritize()
	var ph phase
	var perr error
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == markerStart:
			onStart()
		case line == markerEnd:
			onEnd()
		case strings.HasPrefix(line, "{"):
			perr = json.Unmarshal([]byte(line), &ph)
		}
	}
	serr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return phase{}, fmt.Errorf("client process: %w", err)
	}
	if serr != nil {
		return phase{}, fmt.Errorf("client output: %w", serr)
	}
	if perr != nil {
		return phase{}, fmt.Errorf("client result: %w", perr)
	}
	if len(ph.Outcomes) == 0 {
		return phase{}, errors.New("client process sent no requests")
	}
	return ph, nil
}

// serverNice is the scheduling niceness the serving process takes once its
// load generator runs. On a two-core host the stack keeps both cores busy
// through the MVX stage; at equal priority the generator's timer wake-ups
// waited behind it for up to 17 ms, above the 11 ms median latency they
// were measuring. A client on its own machine never waits for the server's
// cores; a lower server priority is the closest a shared host gets. With no
// contention, niceness changes nothing.
const serverNice = 10

// deprioritize renices every thread of this process (Linux niceness is
// per thread; threads created later inherit it from their creator).
// Failures leave the default priority: the measurement stays valid, only
// noisier.
func deprioritize() {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			_ = syscall.Setpriority(syscall.PRIO_PROCESS, tid, serverNice)
		}
	}
}
