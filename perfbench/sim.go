package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/decentral"
	"github.com/hopper-sim/hopper/internal/scheduler"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

// simWorkload replays Facebook-profile traces through the serial
// discrete-event simulator. A run replays a fixed number of traces, one
// per traceSecs of the window, each generated from its own seed drawn
// from the run's seed, so every figure is deterministic per (seed,
// window) except host time.
//
// Two profile settings keep one seed's figures comparable to another's.
// Jobs are capped at simTaskCap tasks: with the profile's Pareto(1)
// sizes, a trace's cost is otherwise set by its one or two largest
// jobs. Arrivals are plain Poisson: the profile's burst states last 600
// simulated seconds on average, about as long as a whole trace, so each
// trace would otherwise run either overloaded or nearly idle.
type simWorkload struct {
	name      string
	machines  int
	jobs      int // per trace
	util      float64
	decentral bool
	traceSecs float64 // host seconds one trace and its gauge samples take, roughly; sets traces per run
}

const (
	slotsPerMachine = 4
	simTaskCap      = 200
)

// simProfile is the Facebook profile with the benchmark's cap and
// Poisson arrivals.
func simProfile() workload.Profile {
	p := workload.Facebook()
	p.JobSizeCap = simTaskCap
	p.BurstHigh, p.BurstLow = 0, 0
	return p
}

var (
	simDecentral = simWorkload{name: "sim-decentral", machines: 500, jobs: 140, util: 0.7,
		decentral: true, traceSecs: 1.7}
	simCentral = simWorkload{name: "sim-central", machines: 4000, jobs: 600, util: 0.9, traceSecs: 2.1}
)

// arriver is the part of a scheduler the benchmark drives.
type arriver interface {
	Arrive(*cluster.Job)
	Completed() []*cluster.Job
}

// simTrace is one replayed trace's measurements.
type simTrace struct {
	gen, boot  time.Duration // trace generation; machines, executor, scheduler and arrivals
	wall       time.Duration // Engine.Run
	scale      float64       // host-gauge factor for this trace's cost (see hostGauge)
	proc       procDelta     // over Engine.Run
	decisions  int           // Executor.CopiesStarted: placed copies, speculative included
	events     uint64
	jobs       int
	unfinished int

	respMs, placeMs []float64 // per job, simulated milliseconds; +Inf if unfinished
	done            []jobTime

	ledger                      ledger
	roundsStarted, roundsPlaced int64
	leaks, doubleWakeups        int64
	specCopies, localCopies     int
	slotSecs, specSlotSecs      float64
}

// simRun is every trace of one measured pass.
type simRun struct {
	traces []simTrace
	digest string
	gauge  hostGauge // sampled before the first trace and after every trace, on a gauged pass
}

// gaugeSamplesPerTrace is how many gauge runs precede the first trace
// and follow each trace.
const gaugeSamplesPerTrace = 5

func (w simWorkload) traceSeeds(opts options) []int64 {
	k := int(math.Round(opts.seconds / w.traceSecs))
	if k < 2 {
		k = 2
	}
	rng := rand.New(rand.NewSource(opts.seed))
	seeds := make([]int64, k)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// replay generates, builds and runs one trace.
func (w simWorkload) replay(seed int64, spans *spanLog) simTrace {
	var st simTrace
	root := spans.begin("sim.trace", -1)
	t0 := time.Now()
	sp := spans.begin("workload.Generate", root)
	tr := workload.Generate(workload.Config{
		Profile:           simProfile(),
		NumJobs:           w.jobs,
		TargetUtilization: w.util,
		TotalSlots:        w.machines * slotsPerMachine,
		NumMachines:       w.machines,
		Seed:              seed,
	})
	spans.end(sp)
	st.gen = time.Since(t0)

	t1 := time.Now()
	sp = spans.begin("sim.build", root)
	eng := simulator.New(seed + 1)
	exec := cluster.NewExecutor(eng, cluster.NewMachines(w.machines, slotsPerMachine), cluster.DefaultExecModel())
	var sys *decentral.System
	var arr arriver
	if w.decentral {
		sys = decentral.New(eng, exec, decentral.Config{Mode: decentral.ModeHopper, NumSchedulers: 50})
		arr = sys
	} else {
		arr = scheduler.NewHopper(eng, exec, scheduler.Config{CheckInterval: 1})
	}
	for _, j := range tr.Jobs {
		job := j
		eng.Post(job.Arrival, func() { arr.Arrive(job) })
	}
	spans.end(sp)
	st.boot = time.Since(t1)

	runtime.GC()
	before := sampleProc()
	sp = spans.begin("simulator.Engine.Run", root)
	t2 := time.Now()
	eng.Run()
	st.wall = time.Since(t2)
	spans.end(sp)
	st.proc = before.to(sampleProc())
	spans.end(root)

	st.decisions = exec.CopiesStarted
	st.events = eng.Fired
	st.jobs = len(tr.Jobs)
	st.specCopies = exec.SpeculativeCopies
	st.localCopies = exec.LocalCopies
	st.slotSecs = exec.SlotSecondsUsed
	st.specSlotSecs = exec.SpeculativeSlotSeconds
	st.unfinished = len(tr.Jobs) - len(arr.Completed())
	for _, j := range tr.Jobs {
		if !j.Done() {
			st.respMs = append(st.respMs, math.Inf(1))
			st.placeMs = append(st.placeMs, math.Inf(1))
			continue
		}
		st.respMs = append(st.respMs, 1000*float64(j.DoneAt-j.Arrival))
		st.placeMs = append(st.placeMs, 1000*float64(j.StartAt-j.Arrival))
		st.done = append(st.done, jobTime{id: uint64(j.ID), done: float64(j.DoneAt)})
	}
	if sys != nil {
		st.ledger = ledger{messages: sys.Messages, probes: sys.Probes, offers: sys.Offers, rollbacks: sys.Rollbacks}
		st.roundsStarted, st.roundsPlaced = sys.RoundsStarted, sys.RoundsPlaced
		st.leaks, st.doubleWakeups = sys.OccupancyLeaks, sys.DoubleWakeups
	}
	return st
}

// pass replays every trace of the run once. A gauged pass samples the
// host's speed before the first trace and after every trace, once the
// trace's heap is garbage, and scales each trace's cost by the samples
// on both sides of it. The traced pass does not, so the gauge stays out
// of the CPU profile; its caller copies the scales over.
func (w simWorkload) pass(seeds []int64, spans *spanLog, gauged bool) simRun {
	var r simRun
	var all []jobTime
	var before float64
	if gauged {
		before = r.gauge.sample(gaugeSamplesPerTrace)
	}
	for i, s := range seeds {
		st := w.replay(s, spans)
		if gauged {
			after := r.gauge.sample(gaugeSamplesPerTrace)
			st.scale = gaugeScale((before + after) / 2)
			before = after
		}
		for _, d := range st.done {
			all = append(all, jobTime{id: uint64(i)<<32 | d.id, done: d.done})
		}
		r.traces = append(r.traces, st)
	}
	r.digest = digest(all)
	return r
}

func (w simWorkload) run(opts options) (*result, error) {
	seeds := w.traceSeeds(opts)
	res := &result{}
	plain := w.pass(seeds, nil, true)
	w.check(res, plain)
	if err := checkDigestFile(res, w.name, opts, plain.digest); err != nil {
		return nil, err
	}
	res.endToEnd = w.endToEnd(plain)
	res.add(plain.totals())
	resp := pooled(plain, func(st simTrace) []float64 { return st.respMs })
	res.note("sim_job_mean_s %.6f (simulated s, n=%d); completion digest %s over %d traces",
		mean(resp)/1000, len(resp), plain.digest, len(seeds))
	res.note("simulator.ns_per_event %.1f (n=%d traces)", w.nsPerEvent(plain), len(seeds))
	res.note("host gauge %.3f ms (n=%d); us_per_decision before scaling %.4f",
		1000*plain.gauge.secs(), len(plain.gauge.samples), w.hostUsPerDecision(plain))
	for i, st := range plain.traces {
		res.note("  trace %d: %d jobs, %d decisions, %d events, %.2fs wall, %.2fs cpu, %.1f cpu us/decision, gauge scale %.4f",
			i, st.jobs, st.decisions, st.events, st.wall.Seconds(), st.proc.cpu.Seconds(),
			st.hostUsPerDecision(), st.scale)
	}

	if !opts.trace {
		return res, nil
	}
	spans := newSpanLog()
	prof, err := startProfile(w.name)
	if err != nil {
		return nil, err
	}
	traced := w.pass(seeds, spans, false)
	for i := range traced.traces {
		traced.traces[i].scale = plain.traces[i].scale
	}
	var cpu cpuBreakdown
	if err := prof.stop(&cpu); err != nil {
		return nil, err
	}
	w.check(res, traced)
	res.add(traced.totals())
	if traced.digest != plain.digest {
		res.fail("completion digest differs between two passes of one seed: %s then %s", plain.digest, traced.digest)
	}
	res.perLayer = append(w.perLayer(traced, &plain.gauge), cpuShareMetrics(&cpu, profileLayers)...)
	res.note("%s", shareTable(&cpu))
	res.note("%s", overheadTable(res.endToEnd, w.endToEnd(traced)))
	res.note("%s", spans.summary())
	return res, nil
}

// totals counts a pass's jobs and the ones that never finished.
func (r simRun) totals() (jobs, unfinished int) {
	for _, st := range r.traces {
		jobs += st.jobs
		unfinished += st.unfinished
	}
	return jobs, unfinished
}

// check applies the simulator's correctness checks to one pass.
func (w simWorkload) check(res *result, r simRun) {
	for i, st := range r.traces {
		if st.unfinished != 0 {
			res.fail("trace %d: %d of %d jobs never finished", i, st.unfinished, st.jobs)
		}
		if st.decisions == 0 {
			res.fail("trace %d: no copies placed", i)
		}
		if !w.decentral {
			continue
		}
		if st.leaks != 0 || st.doubleWakeups != 0 {
			res.fail("trace %d: %d occupancy leaks, %d double wakeups", i, st.leaks, st.doubleWakeups)
		}
		if err := st.ledger.check(); err != nil {
			res.fail("trace %d: %v", i, err)
		}
	}
}

// pooled concatenates one per-job series across traces.
func pooled(r simRun, f func(simTrace) []float64) []float64 {
	var xs []float64
	for _, st := range r.traces {
		xs = append(xs, f(st)...)
	}
	return xs
}

// perTrace collects one per-trace value.
func perTrace(r simRun, f func(simTrace) float64) []float64 {
	var xs []float64
	for _, st := range r.traces {
		xs = append(xs, f(st))
	}
	return xs
}

// sums adds integer counters across traces.
func sums(r simRun, f func(simTrace) float64) float64 {
	var s float64
	for _, st := range r.traces {
		s += f(st)
	}
	return s
}

// hostUsPerDecision is a trace's host cost per decision as measured:
// process CPU time during Engine.Run over its decisions. The engine
// runs on one goroutine, so on a quiet host this is its wall time plus
// the collector's, and unlike wall time it does not count time the host
// stole from the process.
func (st simTrace) hostUsPerDecision() float64 {
	return ratio(float64(st.proc.cpu.Microseconds()), float64(st.decisions))
}

// hostUsPerDecision is the median over a pass's traces of their host
// cost, unscaled.
func (w simWorkload) hostUsPerDecision(r simRun) float64 {
	return median(perTrace(r, simTrace.hostUsPerDecision))
}

// endToEnd summarizes one pass. The cost per decision is the median
// over traces of each trace's host cost times its gauge scale, so one
// trace that hits a slow path moves the figure only if most do; the
// cost per job multiplies it by the pass's decisions per job.
func (w simWorkload) endToEnd(r simRun) []metric {
	n := len(r.traces)
	resp := pooled(r, func(st simTrace) []float64 { return st.respMs })
	usPerDecision := median(perTrace(r, func(st simTrace) float64 { return st.hostUsPerDecision() * st.scale }))
	decisionsPerJob := ratio(sums(r, func(st simTrace) float64 { return float64(st.decisions) }),
		sums(r, func(st simTrace) float64 { return float64(st.jobs) }))
	return []metric{
		{"setup_s", "s", median(perTrace(r, func(st simTrace) float64 { return (st.gen + st.boot).Seconds() })), n},
		{"us_per_decision", "us", usPerDecision, n},
		{"cpu_ms_per_job", "ms", usPerDecision * decisionsPerJob / 1000, n},
		{"job_p50_ms", "ms", quantile(resp, 0.50), len(resp)},
		{"job_p90_ms", "ms", quantile(resp, 0.90), len(resp)},
		{"peak_rss_mb", "MB", peakRSSMB(), 1},
	}
}

func (w simWorkload) nsPerEvent(r simRun) float64 {
	return ratio(sums(r, func(st simTrace) float64 { return float64(st.wall.Nanoseconds()) }),
		sums(r, func(st simTrace) float64 { return float64(st.events) }))
}

func (w simWorkload) perLayer(r simRun, gauge *hostGauge) []metric {
	n := len(r.traces)
	dec := sums(r, func(st simTrace) float64 { return float64(st.decisions) })
	jobs := sums(r, func(st simTrace) float64 { return float64(st.jobs) })
	place := pooled(r, func(st simTrace) []float64 { return st.placeMs })
	sum := func(f func(simTrace) float64) float64 { return sums(r, f) }
	gcFrac := median(perTrace(r, func(st simTrace) float64 { return st.proc.gcCPUFrac }))
	mallocs := sum(func(st simTrace) float64 { return float64(st.proc.mallocs) })
	return []metric{
		{"workload.gen_s", "s", median(perTrace(r, func(st simTrace) float64 { return st.gen.Seconds() })), n},
		{"bench.boot_s", "s", median(perTrace(r, func(st simTrace) float64 { return st.boot.Seconds() })), n},
		{"bench.cores_busy", "cores", ratio(sum(func(st simTrace) float64 { return st.proc.cpu.Seconds() }),
			sum(func(st simTrace) float64 { return st.wall.Seconds() })), n},
		{"bench.place_p50_ms", "ms", quantile(place, 0.50), len(place)},
		{"bench.place_p99_ms", "ms", quantile(place, 0.99), len(place)},
		{"simulator.events_per_decision", "count", ratio(sum(func(st simTrace) float64 { return float64(st.events) }), dec), n},
		{"decentral.msgs_per_decision", "count", ratio(sum(func(st simTrace) float64 { return float64(st.ledger.messages) }), dec), n},
		{"protocol.rounds_per_placement", "count", ratio(sum(func(st simTrace) float64 { return float64(st.roundsStarted) }),
			sum(func(st simTrace) float64 { return float64(st.roundsPlaced) })), n},
		{"protocol.offers_per_decision", "count", ratio(sum(func(st simTrace) float64 { return float64(st.ledger.offers) }), dec), n},
		{"cluster.spec_copy_frac", "ratio", ratio(sum(func(st simTrace) float64 { return float64(st.specCopies) }), dec), n},
		{"cluster.spec_waste_frac", "ratio", ratio(sum(func(st simTrace) float64 { return st.specSlotSecs }),
			sum(func(st simTrace) float64 { return st.slotSecs })), n},
		{"cluster.local_frac", "ratio", ratio(sum(func(st simTrace) float64 { return float64(st.localCopies) }), dec), n},
		{"transport.frames_per_job", "count", 0, 0},
		{"transport.frames_per_flush", "count", 0, 0},
		{"transport.outbox_stalls", "count", 0, 0},
		{"live.offer_timeouts", "count", 0, 0},
		{"live.requeues", "count", 0, 0},
		{"live.watchdog_expiries", "count", 0, 0},
		{"bench.gauge_ms", "ms", 1000 * gauge.secs(), len(gauge.samples)},
		{"runtime.gc_cpu_frac", "ratio", gcFrac, n},
		{"runtime.allocs_per_decision", "count", ratio(mallocs, dec), n},
		{"runtime.allocs_per_job", "count", ratio(mallocs, jobs), n},
	}
}

// peakRSSMB is the process's resident-memory high-water mark. Every run
// is its own process, so the mark belongs to this run alone.
func peakRSSMB() float64 { return float64(sampleProc().maxRSS) / (1 << 20) }

// checkDigestFile pins determinism across processes: the first run of
// a (binary, workload, seed, window) records its completion digest
// next to the binary, and every later run must reproduce it.
func checkDigestFile(res *result, name string, opts options, got string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	dir := filepath.Join(filepath.Dir(exe), "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("digest store: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%x-%s-%d-%g", h.Sum(nil)[:8], name, opts.seed, opts.seconds))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != got {
			res.fail("completion digest %s differs from %s recorded by an earlier run of this seed", got, prev)
		}
		return nil
	case os.IsNotExist(err):
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			return fmt.Errorf("digest store: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("digest store: %w", err)
	}
}
