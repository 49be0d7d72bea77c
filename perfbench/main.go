// Command perfbench is the repository's benchmark: one program that
// drives the simulator and the live path through their public
// functions, checks their outputs, and reports end-to-end and
// per-layer metrics. RATIONALE.md records why each workload exists and
// which metric each layer should move.
//
//	perfbench --workload sim-decentral --seed 1 --seconds 15 --trace 0
//	perfbench --workload all --seed 1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the run is measured
// once untraced and once under a CPU profile with spans, and the
// metrics are the per-layer set. The lines before it are the
// human-readable report. A failed correctness check prints
// "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int // how many measurements the value summarizes
}

// result is what one workload run reports.
type result struct {
	attempted int // jobs submitted (live) or simulated (sim)
	failed    int // jobs aborted, unreported or unfinished
	problems  []string
	endToEnd  []metric
	perLayer  []metric
	notes     []string // extra report lines: diagnostics outside the JSON
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// add counts jobs a measured pass attempted and failed.
func (r *result) add(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// options are the command-line flags a run is given.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// deadline is when waiting for stragglers must stop so the run
	// still ends within runLimit.
	deadline time.Time
}

// runLimit is the longest a run may take; waits end early enough to
// report within it.
const runLimit = 180 * time.Second

// benchWorkload is one named benchmark input.
type benchWorkload struct {
	name string
	why  string
	run  func(opts options) (*result, error)
}

var workloads = []benchWorkload{
	{"sim-decentral", "decentralized Hopper in the simulator: the event engine and the protocol cores do most of the work",
		simDecentral.run},
	{"sim-central", "centralized Hopper at scale: dispatch, speculation scan and cluster state, bypassing the protocol and the engine",
		simCentral.run},
	{"live-steady", "live cluster over loopback TCP below the knee, with CPU to spare, where the per-job cost of the real protocol shows",
		liveSteady.run},
	{"live-heavy", "live cluster past the knee, with every core busy while jobs arrive, where queueing, backpressure and batching efficacy show",
		liveHeavy.run},
}

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\" to run each in turn")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: add a traced run and report per-layer metrics")
	flag.Parse()

	if *name == "all" {
		os.Exit(runAll())
	}
	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload all or one of %s, --seconds > 0 and --trace 0 or 1\n", names())
		os.Exit(2)
	}
	start := time.Now()
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, deadline: start.Add(runLimit - 15*time.Second)}

	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d: %s\n", wl.name, opts.seed, opts.seconds, *trace, wl.why)
	fmt.Printf("host: %s\n", hostInfo())
	res, err := wl.run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	report(res, time.Since(start))

	ms := res.endToEnd
	if opts.trace {
		ms = res.perLayer
	}
	line, err := json.Marshal(jsonResult(res, ms))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

// runAll runs every workload, each in its own process so that its
// resident-memory peak is its own, with the same flags, and returns the
// exit code: non-zero if any run failed.
func runAll() int {
	code := 0
	for _, w := range workloads {
		var args []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		cmd := exec.Command(os.Args[0], append(args, "-workload="+w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// report prints the human-readable result.
func report(res *result, wall time.Duration) {
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Println(title)
		for _, m := range ms {
			fmt.Printf("  %-34s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
		}
	}
	section("end-to-end:", res.endToEnd)
	section("per-layer:", res.perLayer)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	fmt.Printf("jobs: attempted=%d failed=%d jobs_failed_frac=%.6f; run took %.1fs\n",
		res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)), wall.Seconds())
	if len(res.problems) == 0 {
		fmt.Println("correctness: all checks passed")
	}
	for _, p := range res.problems {
		fmt.Println("correctness FAILED:", p)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonOut struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// jsonResult renders the machine-read last line. JSON has no infinity:
// a latency percentile that reaches a failed job (+Inf) is written as
// the largest float64, so any bound on it fails.
func jsonResult(res *result, ms []metric) jsonOut {
	out := jsonOut{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range ms {
		v := m.value
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return out
}

// cpuShareMetrics turns a folded profile into per-module share metrics,
// one per layer named in layers, in that order.
func cpuShareMetrics(b *cpuBreakdown, layers []string) []metric {
	n := int(b.total / int64(10*time.Millisecond)) // pprof samples at 100 Hz
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{l + ".cpu_share", "%", b.share(l), n})
	}
	ms = append(ms, metric{"runtime.syscall_share", "%", 100 * ratio(float64(b.syscall), float64(b.total)), n})
	return ms
}

// profileLayers are the modules whose CPU share the traced run reports;
// together with "runtime" they cover every sample.
var profileLayers = []string{
	"simulator", "decentral", "protocol", "speculation", "estimate", "cluster",
	"scheduler", "core", "live", "transport", "wire", "workload", "metrics", "stats", "runtime",
}

// shareTable is the traced run's per-module report, every sampled
// module listed so the shares visibly sum to 100%.
func shareTable(b *cpuBreakdown) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cpu profile: %.2fs sampled\n", time.Duration(b.total).Seconds())
	var sum float64
	for _, m := range b.modules() {
		sum += b.share(m)
		fmt.Fprintf(&sb, "  %-12s %6.2f%%\n", m, b.share(m))
	}
	fmt.Fprintf(&sb, "  %-12s %6.2f%%", "sum", sum)
	return sb.String()
}

// overheadTable prints traced-minus-untraced for each end-to-end metric.
func overheadTable(untraced, traced []metric) string {
	byName := map[string]metric{}
	for _, m := range traced {
		byName[m.name] = m
	}
	var sb strings.Builder
	sb.WriteString("tracing overhead (traced - untraced):")
	for _, u := range untraced {
		t, ok := byName[u.name]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "\n  %-20s %12.4f -> %12.4f %-4s (%+.4f, %+.1f%%)",
			u.name, u.value, t.value, u.unit, t.value-u.value, 100*ratio(t.value-u.value, u.value))
	}
	return sb.String()
}

// spanLog records spans around the benchmark's own calls into each
// layer: name, start, end and the span that caused it. A nil log
// records nothing, so untraced runs pay no bookkeeping.
type spanLog struct {
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // index of the causing span, -1 for a root
	start, end time.Duration
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, start: time.Since(l.t0)})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = time.Since(l.t0)
}

// summary totals spans by name: count, total time and self time (the
// span's duration less the part its child spans cover).
func (l *spanLog) summary() string {
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range l.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.total += s.end - s.start
		a.self += s.end - s.start - child[i]
	}
	var ns []string
	for n := range by {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	var sb strings.Builder
	sb.WriteString("spans (count, total, self):")
	for _, n := range ns {
		a := by[n]
		fmt.Fprintf(&sb, "\n  %-24s %6d %10.3fs %10.3fs", n, a.n, a.total.Seconds(), a.self.Seconds())
	}
	return sb.String()
}
