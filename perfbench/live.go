package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hopper-sim/hopper/internal/live"
	"github.com/hopper-sim/hopper/internal/protocol"
	"github.com/hopper-sim/hopper/internal/transport"
	"github.com/hopper-sim/hopper/internal/wire"
	"github.com/hopper-sim/hopper/internal/workload"
)

// liveWorkload drives an in-process live cluster (goroutine schedulers
// and multiplexed workers over loopback TCP) with an open loop: one
// sending goroutine submits Poisson arrivals at a fixed rate for the
// window, round-robin over one client connection per scheduler,
// whatever the cluster's progress. Each job's latency is timed from
// when it was due, so a generator stall is charged to the jobs it
// delayed.
type liveWorkload struct {
	name string
	rate float64 // jobs per wall second
}

const (
	liveSchedulers = 2
	liveWorkers    = 1000
	liveSlots      = 4
	// liveTimeScale compresses virtual task time: 0.05 keeps the
	// worker's 5-virtual-second offer timeout at 250ms wall.
	liveTimeScale = 0.05
	liveTaskCap   = 20 // tasks per job, so a job's length is mostly its tail
	// liveBoots is how many times a run boots the cluster; setup_s is
	// the median, and the last cluster carries the load. One boot's
	// time spreads too widely across runs (RATIONALE.md).
	liveBoots = 3
	// liveDrain bounds the wait for in-flight jobs after the window. A
	// job's latency is mostly its slowest task's heavy-tailed service
	// time: most windows drain within 30s, the slowest seen took 50s.
	liveDrain = 100 * time.Second
	// liveMaxLate invalidates a run whose generator sent its p99 job
	// later than this after the job was due: the offered load was not
	// the nominal rate.
	liveMaxLate = 250 * time.Millisecond
	jobIDBase   = uint64(1) << 40
)

var (
	liveSteady = liveWorkload{name: "live-steady", rate: 10}
	liveHeavy  = liveWorkload{name: "live-heavy", rate: 30}
)

// liveCluster is a booted cluster with its submission stream.
type liveCluster struct {
	lc   *live.LocalCluster
	msgs []*wire.SubmitJob // one distinct job per arrival of a window, IDs unset
}

// liveWindow is one open-loop window's measurements.
type liveWindow struct {
	submitted, completed, aborted, unreported int
	dupOrUnknown                              int64

	latMs     []float64 // scheduled send to JobComplete; +Inf if failed
	lateMs    []float64 // how late the generator sent each job
	submitUs  []float64 // Client.Submit call time
	proc      procDelta // from the first send to the last completion
	wall      time.Duration
	sendCPU   time.Duration // process CPU while the generator was sending
	sendWall  time.Duration
	placed    int64 // worker rounds that placed a copy
	rounds    int64 // worker rounds started
	batches   transport.BatchCounters
	sched     protocol.Stats // summed over schedulers
	workerSum protocol.Stats // summed over workers
}

func (w liveWorkload) run(opts options) (*result, error) {
	// Two descriptors per worker-scheduler connection, for the running
	// cluster and a stopped one whose sockets are still closing, plus
	// slack for clients and listeners.
	if err := raiseFileLimit(uint64(2*2*liveWorkers*liveSchedulers + 256)); err != nil {
		return nil, err
	}
	var spans *spanLog
	if opts.trace {
		spans = newSpanLog()
	}
	res := &result{}
	// The host gauge is reported, not applied: live costs are mostly
	// system calls, which the gauge does not model. It runs before the
	// first boot, since a booted cluster keeps both cores busy.
	var gauge hostGauge
	gauge.sample(5)
	var setups, gens, boots []float64
	var c *liveCluster
	idle := runtime.NumGoroutine()
	for b := 0; b < liveBoots; b++ {
		if c != nil {
			settle(c, idle)
		}
		var err error
		var setup, gen, boot time.Duration
		c, setup, gen, boot, err = w.boot(opts, spans)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		gens = append(gens, gen.Seconds())
		boots = append(boots, boot.Seconds())
	}
	defer c.lc.Stop()
	setup := median(setups)

	plain, err := w.window(c, opts, 0, nil)
	if err != nil {
		return nil, err
	}
	w.check(res, plain)
	res.add(plain.submitted, plain.aborted+plain.unreported)
	res.endToEnd = w.endToEnd(plain, setup, len(setups))
	res.note("setup_s per boot: %.4f", setups)
	// The placement histogram accumulates from boot: read now, it holds
	// the untraced window only.
	place := readPlacement(c)
	w.notes(res, c, plain)
	if !opts.trace {
		return res, nil
	}

	prof, err := startProfile(w.name)
	if err != nil {
		return nil, err
	}
	traced, err := w.window(c, opts, 1, spans)
	if err != nil {
		pprof.StopCPUProfile()
		return nil, err
	}
	var cpu cpuBreakdown
	if err := prof.stop(&cpu); err != nil {
		return nil, err
	}
	w.check(res, traced)
	res.add(traced.submitted, traced.aborted+traced.unreported)
	res.perLayer = append(w.perLayer(traced, place, median(gens), median(boots), len(boots), &gauge),
		cpuShareMetrics(&cpu, profileLayers)...)
	res.note("%s", shareTable(&cpu))
	res.note("%s", overheadTable(res.endToEnd, w.endToEnd(traced, setup, len(setups))))
	res.note("%s", spans.summary())
	return res, nil
}

// boot starts a cluster and prepares its submission stream: the
// set-up a run pays before the first job.
func (w liveWorkload) boot(opts options, spans *spanLog) (c *liveCluster, setup, gen, boot time.Duration, err error) {
	root := spans.begin("live.setup", -1)
	defer spans.end(root)
	t0 := time.Now()
	sp := spans.begin("live.StartLocalCluster", root)
	lc, err := live.StartLocalCluster(live.LocalClusterConfig{
		Schedulers: liveSchedulers,
		Workers:    liveWorkers,
		Slots:      liveSlots,
		TimeScale:  liveTimeScale,
		Seed:       opts.seed,
	})
	spans.end(sp)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("booting the live cluster: %w", err)
	}
	boot = time.Since(t0)

	t1 := time.Now()
	sp = spans.begin("workload.Generate", root)
	// Every job's mean task length is the profile's median: a job's
	// wall latency is mostly service time, and the profile's per-job
	// spread in task length would otherwise swamp the scheduling and
	// protocol share of it that this workload measures.
	p := workload.Facebook()
	p.JobSizeCap = liveTaskCap
	p.MeanTaskDurSigma = 0
	// A distinct job for every arrival of a window.
	n := int(math.Round(w.rate * opts.seconds))
	tr := workload.Generate(workload.Config{
		Profile:           p,
		NumJobs:           n,
		TargetUtilization: 0.7,
		TotalSlots:        liveWorkers * liveSlots,
		NumMachines:       liveWorkers,
		Seed:              opts.seed,
	})
	c = &liveCluster{lc: lc}
	for _, j := range tr.Jobs {
		c.msgs = append(c.msgs, live.SubmitFromJob(j))
	}
	spans.end(sp)
	gen = time.Since(t1)
	return c, time.Since(t0), gen, boot, nil
}

// settle stops a cluster and waits, up to a second, for its
// goroutines to exit, then returns its memory, so the next boot is
// timed on a quiet process and the resident-memory peak is one
// cluster's.
func settle(c *liveCluster, idleGoroutines int) {
	c.lc.Stop()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > idleGoroutines && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	debug.FreeOSMemory()
}

// arrivals is one window's send schedule: a Poisson process of the
// given rate conditioned on its expected count, i.e. rate·seconds
// instants drawn uniformly over the window and sorted. Fixing the count
// keeps per-job costs comparable across seeds; the gaps stay
// exponential-like and independent of the cluster's progress.
func arrivals(seed int64, rate, seconds float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	at := make([]time.Duration, int(math.Round(rate*seconds)))
	for i := range at {
		at[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// window runs one open-loop window on the cluster and drains it. Every
// window submits the same jobs on the same schedule; window k numbers
// them from its own base, so the traced window repeats the untraced
// one's load without reusing job IDs.
func (w liveWorkload) window(c *liveCluster, opts options, k int, spans *spanLog) (*liveWindow, error) {
	var clients []*live.Client
	for _, a := range c.lc.Addrs {
		sp := spans.begin("live.NewClient", -1)
		cl, err := live.NewClient(a)
		spans.end(sp)
		if err != nil {
			for _, cl := range clients {
				cl.Close()
			}
			return nil, fmt.Errorf("dialing scheduler %s: %w", a, err)
		}
		clients = append(clients, cl)
	}

	n := len(c.msgs)
	base := jobIDBase + uint64(k*n)
	doneAt := make([]atomic.Int64, n) // ns after start; 0 = not reported
	aborted := make([]atomic.Bool, n)
	var reported, dups atomic.Int64
	schedBefore, workerBefore := c.stats()
	before, batchBefore := sampleProc(), transport.BatchTotals()
	start := time.Now()
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *live.Client) {
			defer wg.Done()
			for {
				jc, err := cl.WaitAny()
				if err != nil {
					return // closed after the drain
				}
				i := int(jc.JobID - base)
				if jc.JobID < base || i >= n || !doneAt[i].CompareAndSwap(0, int64(time.Since(start))+1) {
					dups.Add(1)
					continue
				}
				aborted[i].Store(jc.Aborted)
				reported.Add(1)
			}
		}(cl)
	}

	win := &liveWindow{}
	due := arrivals(opts.seed, w.rate, opts.seconds)
	var sendErr error
	for i, at := range due {
		if d := at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		m := *c.msgs[i]
		m.JobID = base + uint64(i)
		sp := spans.begin("live.Client.Submit", -1)
		t := time.Now()
		win.lateMs = append(win.lateMs, float64(t.Sub(start)-at)/float64(time.Millisecond))
		err := clients[i%len(clients)].Submit(&m)
		win.submitUs = append(win.submitUs, float64(time.Since(t))/float64(time.Microsecond))
		spans.end(sp)
		if err != nil {
			sendErr = fmt.Errorf("submitting job %d: %w", m.JobID, err)
			break
		}
		win.submitted++
	}

	win.sendCPU, win.sendWall = before.to(sampleProc()).cpu, time.Since(start)
	sp := spans.begin("bench.drain", -1)
	deadline := time.Now().Add(liveDrain)
	if deadline.After(opts.deadline) {
		deadline = opts.deadline
	}
	for int(reported.Load()) < win.submitted && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	// Cost runs to the last completion, so work a change adds anywhere
	// in a job's life counts even when the window kept every core busy.
	win.proc = before.to(sampleProc())
	spans.end(sp)
	win.wall = time.Since(start)
	win.batches = batchDelta(batchBefore, transport.BatchTotals())
	for _, cl := range clients {
		cl.Close()
	}
	wg.Wait()
	if sendErr != nil {
		return nil, sendErr
	}
	schedAfter, workerAfter := c.stats()
	win.sched = statsDelta(schedBefore, schedAfter)
	win.workerSum = statsDelta(workerBefore, workerAfter)
	win.placed, win.rounds = win.workerSum.RoundsPlaced, win.workerSum.RoundsStarted
	win.dupOrUnknown = dups.Load()

	for i := 0; i < win.submitted; i++ {
		d := doneAt[i].Load()
		switch {
		case d == 0:
			win.unreported++
			win.latMs = append(win.latMs, math.Inf(1))
		case aborted[i].Load():
			win.aborted++
			win.latMs = append(win.latMs, math.Inf(1))
		default:
			win.completed++
			win.latMs = append(win.latMs, float64(time.Duration(d-1)-due[i])/float64(time.Millisecond))
		}
	}
	return win, nil
}

// stats sums the protocol counters the benchmark reads over every
// scheduler and every worker.
func (c *liveCluster) stats() (sched, workers protocol.Stats) {
	for _, s := range c.lc.Scheds {
		addStats(&sched, s.Stats())
	}
	for _, wk := range c.lc.Workers {
		addStats(&workers, wk.Stats())
	}
	return sched, workers
}

func addStats(dst *protocol.Stats, s protocol.Stats) {
	dst.RoundsStarted += s.RoundsStarted
	dst.RoundsPlaced += s.RoundsPlaced
	dst.OccupancyLeaks += s.OccupancyLeaks
	dst.DoubleWakeups += s.DoubleWakeups
	dst.Requeues += s.Requeues
	dst.OfferTimeouts += s.OfferTimeouts
	dst.WatchdogExpiries += s.WatchdogExpiries
}

// statsDelta is after minus before for the counters addStats sums.
func statsDelta(before, after protocol.Stats) protocol.Stats {
	return protocol.Stats{
		RoundsStarted:    after.RoundsStarted - before.RoundsStarted,
		RoundsPlaced:     after.RoundsPlaced - before.RoundsPlaced,
		OccupancyLeaks:   after.OccupancyLeaks - before.OccupancyLeaks,
		DoubleWakeups:    after.DoubleWakeups - before.DoubleWakeups,
		Requeues:         after.Requeues - before.Requeues,
		OfferTimeouts:    after.OfferTimeouts - before.OfferTimeouts,
		WatchdogExpiries: after.WatchdogExpiries - before.WatchdogExpiries,
	}
}

func batchDelta(before, after transport.BatchCounters) transport.BatchCounters {
	return transport.BatchCounters{
		OutboxFlushes: after.OutboxFlushes - before.OutboxFlushes,
		FramesFlushed: after.FramesFlushed - before.FramesFlushed,
		OutboxStalls:  after.OutboxStalls - before.OutboxStalls,
	}
}

// check applies the live path's correctness checks to one window.
func (w liveWorkload) check(res *result, win *liveWindow) {
	if win.submitted == 0 {
		res.fail("no job was submitted")
	}
	if got := win.completed + win.aborted + win.unreported; got != win.submitted {
		res.fail("%d jobs submitted but %d completed + %d failed", win.submitted, win.completed, win.aborted+win.unreported)
	}
	if win.dupOrUnknown != 0 {
		res.fail("%d duplicate or unknown job completions", win.dupOrUnknown)
	}
	if win.sched.DoubleWakeups != 0 || win.sched.OccupancyLeaks != 0 {
		res.fail("schedulers report %d double wakeups and %d occupancy leaks",
			win.sched.DoubleWakeups, win.sched.OccupancyLeaks)
	}
	if late := time.Duration(quantile(win.lateMs, 0.99) * float64(time.Millisecond)); late > liveMaxLate {
		res.fail("run invalid: the generator sent its p99 job %v late (limit %v)", late, liveMaxLate)
	}
}

func (w liveWorkload) endToEnd(win *liveWindow, setup float64, boots int) []metric {
	cpuUs := float64(win.proc.cpu.Microseconds())
	n := win.submitted
	return []metric{
		{"setup_s", "s", setup, boots},
		{"us_per_decision", "us", ratio(cpuUs, float64(win.placed)), int(win.placed)},
		{"cpu_ms_per_job", "ms", ratio(cpuUs/1000, float64(n)), n},
		{"job_p50_ms", "ms", quantile(win.latMs, 0.50), n},
		{"job_p90_ms", "ms", quantile(win.latMs, 0.90), n},
		{"peak_rss_mb", "MB", peakRSSMB(), 1},
	}
}

// placement is the first-placement latency quantiles of one window.
type placement struct {
	p50Ms, p99Ms float64
	n            int
}

func readPlacement(c *liveCluster) placement {
	h, _ := c.lc.Latency()
	ms := func(q float64) float64 { return float64(h.Quantile(q)) / float64(time.Millisecond) }
	return placement{ms(0.50), ms(0.99), int(h.Count())}
}

// cores is how many cores the process kept busy on average.
func cores(cpu, wall time.Duration) float64 { return ratio(cpu.Seconds(), wall.Seconds()) }

func (w liveWorkload) perLayer(win *liveWindow, place placement, gen, boot float64, boots int, gauge *hostGauge) []metric {
	n := win.submitted
	placed := float64(win.placed)
	return []metric{
		{"workload.gen_s", "s", gen, boots},
		{"bench.boot_s", "s", boot, boots},
		{"bench.cores_busy", "cores", cores(win.sendCPU, win.sendWall), 1},
		{"bench.place_p50_ms", "ms", place.p50Ms, place.n},
		{"bench.place_p99_ms", "ms", place.p99Ms, place.n},
		{"simulator.events_per_decision", "count", 0, 0},
		{"decentral.msgs_per_decision", "count", 0, 0},
		{"protocol.rounds_per_placement", "count", ratio(float64(win.rounds), placed), int(win.placed)},
		{"protocol.offers_per_decision", "count", 0, 0},
		{"cluster.spec_copy_frac", "ratio", 0, 0},
		{"cluster.spec_waste_frac", "ratio", 0, 0},
		{"cluster.local_frac", "ratio", 0, 0},
		{"transport.frames_per_job", "count", ratio(float64(win.batches.FramesFlushed), float64(n)), n},
		{"transport.frames_per_flush", "count",
			ratio(float64(win.batches.FramesFlushed), float64(win.batches.OutboxFlushes)), int(win.batches.OutboxFlushes)},
		{"transport.outbox_stalls", "count", float64(win.batches.OutboxStalls), 1},
		{"live.offer_timeouts", "count", float64(win.workerSum.OfferTimeouts), 1},
		{"live.requeues", "count", float64(win.sched.Requeues), 1},
		{"live.watchdog_expiries", "count", float64(win.sched.WatchdogExpiries), 1},
		{"bench.gauge_ms", "ms", 1000 * gauge.secs(), len(gauge.samples)},
		{"runtime.gc_cpu_frac", "ratio", win.proc.gcCPUFrac, 1},
		{"runtime.allocs_per_decision", "count", ratio(float64(win.proc.mallocs), placed), int(win.placed)},
		{"runtime.allocs_per_job", "count", ratio(float64(win.proc.mallocs), float64(n)), n},
	}
}

// notes reports the live figures kept out of the JSON: the probe
// round-trip histogram and the generator's own validity figures.
func (w liveWorkload) notes(res *result, c *liveCluster, win *liveWindow) {
	place, probe := c.lc.Latency()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	res.note("live: %d submitted, %d completed, %d aborted, %d unreported over %.1fs (rate %.0f/s)",
		win.submitted, win.completed, win.aborted, win.unreported, win.wall.Seconds(), w.rate)
	res.note("bench.cores_busy %.3f while sending (%.2f cpu-s over %.2fs), %.3f to the last completion (%.2f cpu-s over %.2fs)",
		cores(win.sendCPU, win.sendWall), win.sendCPU.Seconds(), win.sendWall.Seconds(),
		cores(win.proc.cpu, win.wall), win.proc.cpu.Seconds(), win.wall.Seconds())
	res.note("live.place_p50_ms %.2f  live.place_p99_ms %.2f  live.probe_rtt_p50_ms %.2f  live.probe_rtt_p99_ms %.2f (n=%d)",
		ms(place.Quantile(0.5)), ms(place.Quantile(0.99)), ms(probe.Quantile(0.5)), ms(probe.Quantile(0.99)), probe.Count())
	res.note("job latency ms: p95 %.1f  p99 %.1f  max %.1f (n=%d)",
		quantile(win.latMs, 0.95), quantile(win.latMs, 0.99), quantile(win.latMs, 1), win.submitted)
	res.note("bench.send_late_p99_ms %.3f  bench.submit_us_p99 %.1f (n=%d)",
		quantile(win.lateMs, 0.99), quantile(win.submitUs, 0.99), win.submitted)
	res.note("transport: %d frames in %d flushes, %d stalls; %.0f frames/s; workers: %d rounds, %d placed, %d offer timeouts",
		win.batches.FramesFlushed, win.batches.OutboxFlushes, win.batches.OutboxStalls,
		ratio(float64(win.batches.FramesFlushed), win.wall.Seconds()), win.rounds, win.placed, win.workerSum.OfferTimeouts)
}
