// Command perfbench is the repository's end-to-end serving benchmark. It
// brings the shipped serving stack up in process with the daemons' default
// flags (five stages, three-variant MVX on stage 2, adaptive control plane,
// audit transcript, binary protocol), drives it over loopback HTTP with the
// serve package's binary client, checks every output against the
// unprotected baseline model, and prints one JSON result line.
//
//	perfbench --workload cluster-closed --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 re-runs the same
// workload and seed untraced in a child process, then runs it traced and
// reports the per-layer metrics, the span budget and the tracing overhead.
// See README.md in this directory.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// roleEnv selects a child role: "setup" times one fresh set-up and exits;
// "client" is the load generator; "untraced" is the untraced reference run
// of a traced invocation.
const roleEnv = "PERFBENCH_ROLE"

// setupSamples is how many fresh processes time the set-up in an untraced
// run, half before the measured phase and half after it, in addition to the
// run's own set-up; setup_s is their median. Spreading them over the run
// keeps one slow stretch of the host from moving every sample.
const setupSamples = 10

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for result and span files
	role     string
}

func parseOptions(args []string) (options, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "seed for inputs and arrival times")
	seconds := fl.Int("seconds", 10, "measurement window in seconds")
	trace := fl.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	out := fl.String("out", "", "directory for result and span files (default .bench_build/perfbench under the repository root)")
	if err := fl.Parse(args); err != nil {
		return options{}, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: *out, role: os.Getenv(roleEnv)}, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func realMain(args []string, stdout io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	switch o.role {
	case "setup":
		return setupProbe(o, stdout)
	case "client":
		return clientMain(o, stdout)
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.out == "" {
		o.out = filepath.Join(root, ".bench_build", "perfbench")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	prov := newProvenance(o, root)
	fmt.Fprintf(stdout, "provenance %s\n", mustJSON(prov))
	var rep *report
	if o.trace {
		rep, err = runTraced(o, stdout)
	} else {
		rep, err = runUntraced(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.Provenance = prov
	trace := 0
	if o.trace {
		trace = 1
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload.name, o.seed, trace)
	// An untraced reference run of a traced invocation only hands its result
	// line to its parent: a file would overwrite a real --trace 0 result.
	if o.role != "untraced" {
		if err := os.WriteFile(filepath.Join(o.out, name), append(mustJSON(rep), '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", mustJSON(rep.Result))
	if !rep.Result.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed; see the failure causes above")
		return 1
	}
	return 0
}

// report is everything one run measured; Result is the printed line.
type report struct {
	Provenance provenance         `json:"provenance"`
	Result     result             `json:"result"`
	Failures   map[string]int     `json:"failures"`
	Setup      []setupSample      `json:"setup_samples,omitempty"`
	Extra      map[string]float64 `json:"diagnostics"`
	// Chunks holds the per-chunk values behind each median-of-chunks
	// metric, in window order.
	Chunks map[string][]float64 `json:"chunks,omitempty"`
}

type setupSample struct {
	TotalS          float64 `json:"setup_s"`
	BuildS          float64 `json:"build_s"`
	DeployS         float64 `json:"deploy_s"`
	FirstResponseMS float64 `json:"first_response_ms"`
}

func sampleOf(t setupTimes) setupSample {
	return setupSample{
		TotalS:          t.total.Seconds(),
		BuildS:          t.build.Seconds(),
		DeployS:         t.deploy.Seconds(),
		FirstResponseMS: ms(t.firstResponse),
	}
}

// setupProbe is a child's whole life: one timed set-up, checked first
// answer, teardown, one JSON line.
func setupProbe(o options, stdout io.Writer) int {
	pool, err := newInputPool(o.workload, o.seed, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench setup probe:", err)
		return 1
	}
	st, err := setUp(o.workload, pool, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench setup probe:", err)
		return 1
	}
	st.Close()
	fmt.Fprintf(stdout, "%s\n", mustJSON(sampleOf(st.times)))
	return 0
}

// child runs this program again with role set and returns its last stdout
// line. The child inherits stderr; it is waited for before child returns.
func child(role string, args []string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), roleEnv+"="+role)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", role, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	return []byte(lines[len(lines)-1]), nil
}

func childArgs(o options) []string {
	return []string{"--workload", o.workload.name, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", "0", "--out", o.out}
}

// conns is the client's connection count: one per core, at most two, so
// every workload offers the same concurrency on any multicore host.
func conns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runUntraced measures the end-to-end metrics.
func runUntraced(o options, stdout io.Writer) (*report, error) {
	w := o.workload
	rep := &report{Extra: map[string]float64{}}
	probe := func(n int) error {
		for i := 0; i < n && o.role != "untraced"; i++ {
			line, err := child("setup", childArgs(o))
			if err != nil {
				return err
			}
			var s setupSample
			if err := json.Unmarshal(line, &s); err != nil {
				return fmt.Errorf("setup child output %q: %w", line, err)
			}
			rep.Setup = append(rep.Setup, s)
		}
		return nil
	}
	if err := probe(setupSamples / 2); err != nil {
		return nil, err
	}
	pool, err := newInputPool(w, o.seed, poolSize)
	if err != nil {
		return nil, err
	}
	st, err := setUp(w, pool, nil)
	if err != nil {
		return nil, err
	}
	rep.Setup = append(rep.Setup, sampleOf(st.times))

	before := probeHost()
	var cpu0, cpu time.Duration
	var rss float64
	ph, err := runClient(o, st.url,
		func() { cpu0, rss = cpuTime(), peakRSSMiB() },
		func() { cpu = cpuTime() - cpu0 })
	st.Close()
	if err != nil {
		return nil, err
	}
	after := probeHost()
	for k, v := range hostDiagnostics(before, after) {
		rep.Extra[k] = v
	}
	if err := probe(setupSamples - setupSamples/2); err != nil {
		return nil, err
	}

	m, fails, chunks := endToEnd(w, ph, cpu, rss)
	var setups []float64
	for _, s := range rep.Setup {
		setups = append(setups, s.TotalS)
	}
	m["setup_s"] = metric{median(setups), "s"}
	rep.Failures = fails
	rep.Chunks = chunks
	rep.Result = summarize(ph, m)
	lat := latencies(ph)
	rep.Extra["output_check_distinct_share"] = ph.DistinctShare
	rep.Extra["output_check_max_err"] = ph.MaxErr
	rep.Extra["latency_p99_ms"] = quantile(lat, 0.99)
	rep.Extra["latency_samples"] = float64(len(lat))
	late := ms(time.Duration(ph.LateMaxNs))
	rep.Extra["loadgen_late_max_ms"] = late
	if w.rate > 0 && late > m["latency_p50_ms"].Value {
		// The open-loop generator itself fell behind by more than a typical
		// request takes: latencies measured from the schedule then describe
		// the client, not the stack.
		fmt.Fprintf(stdout, "invalid run: the load generator ran %.3f ms late, above latency_p50_ms\n", late)
	}
	printReport(stdout, w, rep)
	return rep, nil
}

// chunks splits the window for the median-of-chunks estimators: host CPU
// speed drifts on a scale of seconds, and a median over sub-windows keeps
// one slow stretch from moving a whole run's figure. A closed loop answers
// hundreds of requests a second and gets one chunk per second, at most 20;
// an open loop gets chunks of at least chunkArrivals scheduled requests, so
// that each chunk's p90 rests on enough samples.
func (w workload) chunks(window float64) int {
	n := int(window)
	if w.rate > 0 {
		n = int(w.rate * window / chunkArrivals)
	}
	return max(1, min(n, 20))
}

const chunkArrivals = 200

// endToEnd computes the end-to-end metrics of one measured phase (all but
// setup_s), the failure count by cause and the per-chunk series. Closed-loop
// throughput and the latency percentiles are medians over the window's
// chunks (requests assigned by their due time); the shares and CPU cost
// cover the whole window. rss is the VmHWM read at the window's start.
func endToEnd(w workload, ph phase, cpu time.Duration, rss float64) (map[string]metric, map[string]int, map[string][]float64) {
	fails := map[string]int{}
	ok, inSLO, completed := 0, 0, 0
	span := ph.End - ph.Start
	chunks := w.chunks(time.Duration(ph.Window).Seconds())
	okIn := make([]float64, chunks)
	latIn := make([][]float64, chunks)
	for i := range ph.Outcomes {
		o := &ph.Outcomes[i]
		if o.Cause != "timeout" {
			completed++
		}
		if !o.ok() {
			fails[o.Cause]++
			continue
		}
		ok++
		if o.latency() <= w.slo {
			inSLO++
		}
		c := min(int(int64(chunks)*(o.Due-ph.Start)/span), chunks-1)
		okIn[c]++
		latIn[c] = append(latIn[c], ms(o.latency()))
	}
	var rps, p50, p90 []float64
	for c := range okIn {
		rps = append(rps, okIn[c]/(float64(span)/1e9/float64(chunks)))
		sort.Float64s(latIn[c])
		p50 = append(p50, quantile(latIn[c], 0.5))
		p90 = append(p90, quantile(latIn[c], 0.9))
	}
	// An open loop's arrivals per chunk vary with the seed, so its
	// throughput covers the whole window; it equals the offered rate unless
	// a backlog grows.
	tput := median(rps)
	if w.rate > 0 {
		tput = float64(ok) / ph.seconds()
	}
	n := float64(len(ph.Outcomes))
	m := map[string]metric{
		"throughput_rps": {tput, "1/s"},
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p90_ms": {median(p90), "ms"},
		"ok_share":       {float64(ok) / n, "share"},
		"slo_ok_share":   {float64(inSLO) / n, "share"},
		"cpu_ms_per_req": {ms(cpu) / float64(max(completed, 1)), "ms"},
		"peak_rss_mb":    {rss, "MiB"},
	}
	return m, fails, map[string][]float64{"throughput_rps": rps, "latency_p50_ms": p50, "latency_p90_ms": p90}
}

// summarize builds the result line. correct is false when any answered
// request failed the output check (a mismatch or a swapped row).
func summarize(ph phase, m map[string]metric) result {
	r := result{Correct: true, Attempted: len(ph.Outcomes), Metrics: m}
	for i := range ph.Outcomes {
		switch ph.Outcomes[i].Cause {
		case "":
		case "mismatch", "swapped":
			r.Correct = false
			r.Failed++
		default:
			r.Failed++
		}
	}
	return r
}

func printReport(w io.Writer, wl workload, rep *report) {
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed\n", wl.name, rep.Result.Attempted, rep.Result.Failed)
	for _, cause := range sortedKeys(rep.Failures) {
		fmt.Fprintf(w, "  failed %-12s %d\n", cause, rep.Failures[cause])
	}
	for _, name := range sortedKeys(rep.Result.Metrics) {
		m := rep.Result.Metrics[name]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(rep.Extra) {
		fmt.Fprintf(w, "  %-40s %14.6g (diagnostic)\n", name, rep.Extra[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// latencies returns the OK requests' latencies in milliseconds, sorted.
func latencies(ph phase) []float64 {
	var lat []float64
	for i := range ph.Outcomes {
		if ph.Outcomes[i].ok() {
			lat = append(lat, ms(ph.Outcomes[i].latency()))
		}
	}
	sort.Float64s(lat)
	return lat
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's VmHWM.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// provenance identifies the host, toolchain and source a result came from.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Traced       bool   `json:"traced"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Conns        int    `json:"connections"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func newProvenance(o options, root string) provenance {
	return provenance{
		Workload:     o.workload.name,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Traced:       o.trace,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Conns:        conns(),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		Commit:       gitCommit(root),
		SourceDigest: sourceDigest(root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is HEAD when root is a git work tree, else "none".
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root (outside build
// output), so results from checkouts without git history stay attributable.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// repoRoot walks up from the working directory to the module root the
// benchmark builds against.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root (go.mod of module repro) not found above the working directory")
		}
		dir = parent
	}
}
