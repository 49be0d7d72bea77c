package main

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
)

// hostGauge measures how fast the host runs scheduler-like Go code right
// now, so that simulator costs can be reported at a steadier host speed.
//
// On a shared host the simulator's CPU cost per decision drifts with the
// neighbours' load by tens of percent over minutes, and a longer run
// does not average it out. The drift moves all Go code in the process
// alike: on a 2-core Xeon VM, ten processes in a row each replayed one
// sim-central and one sim-decentral trace six times; both medians rose
// by a third over the ten, and their correlation was 0.94.
//
// The gauge is a small scheduler of the benchmark's own: tasks placed
// by random probes, an event heap, a task map scanned in full, and the
// allocation and collection that come with them. A change to the
// program cannot move it. It drifts with the host, but more steeply
// than the simulator: over six runs per workload the log-log slope of
// the simulator's cost on the gauge's was 0.55 (sim-central) and 0.64
// (sim-decentral), so a cost is scaled by the square root of the
// gauge's ratio (gaugeScale); the full ratio over-corrected.
// RATIONALE.md records the spreads with and without it.
type hostGauge struct {
	samples []float64 // process CPU seconds per gauge run
}

// refGaugeSecs is about the gauge's median CPU time on a 2-core Xeon
// VM. A cost scaled by the gauge reads roughly as it would there.
const refGaugeSecs = 0.040

// sample runs the gauge n times, each after a collection so that it
// starts from the same heap, records the process CPU time of each, and
// returns their median. The caller runs nothing else meanwhile and
// holds no large heap, so the collections the gauge triggers cost the
// same from run to run.
func (g *hostGauge) sample(n int) float64 {
	for i := 0; i < n; i++ {
		runtime.GC()
		before := sampleProc()
		gaugeRun()
		g.samples = append(g.samples, before.to(sampleProc()).cpu.Seconds())
	}
	return median(g.samples[len(g.samples)-n:])
}

// secs is the median of every gauge run so far.
func (g *hostGauge) secs() float64 { return median(g.samples) }

// gaugeScale turns a simulator cost measured while a gauge run took
// secs into one at the reference speed: below 1 when the host runs
// slower than the reference.
func gaugeScale(secs float64) float64 { return math.Sqrt(ratio(refGaugeSecs, secs)) }

const (
	gaugeMachines = 1000
	gaugeSlots    = 4
	gaugeTasks    = 40000
	gaugeProbes   = 8   // machines probed per placement
	gaugeScanGap  = 256 // placements between full scans of running tasks
	// gaugeRate is arrivals per unit time. Service is Exp(1), so about
	// 90% of the slots are busy.
	gaugeRate = 0.9 * gaugeMachines * gaugeSlots
)

type gaugeMachine struct {
	free    int
	running []*gaugeTask
}

type gaugeTask struct {
	id       int
	machine  *gaugeMachine
	start    float64
	progress float64
}

type gaugeEvent struct {
	at   float64
	task *gaugeTask
}

type gaugeHeap []gaugeEvent

func (h gaugeHeap) Len() int           { return len(h) }
func (h gaugeHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h gaugeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *gaugeHeap) Push(x any)        { *h = append(*h, x.(gaugeEvent)) }
func (h *gaugeHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

var gaugeSink float64

// gaugeRun schedules a fixed stream of tasks, the same on every call.
func gaugeRun() {
	rng := rand.New(rand.NewSource(1))
	machines := make([]*gaugeMachine, gaugeMachines)
	for i := range machines {
		machines[i] = &gaugeMachine{free: gaugeSlots}
	}
	running := map[int]*gaugeTask{}
	var queue []*gaugeTask
	var events gaugeHeap
	now, sum := 0.0, 0.0
	for i := 0; i < gaugeTasks; i++ {
		now += rng.ExpFloat64() / gaugeRate
		for len(events) > 0 && events[0].at <= now {
			t := heap.Pop(&events).(gaugeEvent).task
			m := t.machine
			m.free++
			for k, r := range m.running {
				if r == t {
					m.running = append(m.running[:k], m.running[k+1:]...)
					break
				}
			}
			delete(running, t.id)
		}
		queue = append(queue, &gaugeTask{id: i})
		for len(queue) > 0 {
			var best *gaugeMachine
			for p := 0; p < gaugeProbes; p++ {
				if m := machines[rng.Intn(gaugeMachines)]; m.free > 0 && (best == nil || m.free > best.free) {
					best = m
				}
			}
			if best == nil {
				break
			}
			t := queue[0]
			queue = queue[1:]
			t.machine, t.start = best, now
			best.free--
			best.running = append(best.running, t)
			running[t.id] = t
			heap.Push(&events, gaugeEvent{at: now + rng.ExpFloat64(), task: t})
		}
		if i%gaugeScanGap == 0 {
			for _, t := range running {
				t.progress = now - t.start
				sum += t.progress
			}
		}
	}
	gaugeSink += sum
}
