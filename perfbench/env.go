package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// raiseFileLimit lifts the soft RLIMIT_NOFILE to the hard limit and
// fails unless at least need descriptors are then available. A
// thousand-worker cluster over loopback TCP holds two descriptors per
// worker-scheduler connection, so running short would otherwise show
// up as a dial error halfway through boot.
func raiseFileLimit(need uint64) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("reading RLIMIT_NOFILE: %w", err)
	}
	// An unlimited hard limit still cannot exceed the kernel's per-process
	// ceiling (fs.nr_open, 1<<20 by default).
	if target := min(lim.Max, 1<<20); lim.Cur < target {
		lim.Cur = target
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			return fmt.Errorf("raising RLIMIT_NOFILE to %d: %w", target, err)
		}
	}
	if lim.Cur < need {
		return fmt.Errorf("RLIMIT_NOFILE hard limit is %d, this workload needs %d open files (raise it with `ulimit -Hn`)",
			lim.Cur, need)
	}
	return nil
}

// hostInfo describes the machine a result was measured on.
func hostInfo() string {
	return fmt.Sprintf("nproc=%d cpu=%q go=%s GOMAXPROCS=%d os=%s/%s",
		runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procSample is a snapshot of the process's resource counters.
type procSample struct {
	cpu     time.Duration // user + system
	maxRSS  int64         // bytes, high-water mark since process start
	mallocs uint64
	gcCPU   float64 // seconds of GC CPU time since process start
}

// sampleProc reads the process counters.
func sampleProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	rt := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(rt)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS:  ru.Maxrss * 1024, // Linux reports kilobytes
		gcCPU:   rt[0].Value.Float64(),
		mallocs: rt[1].Value.Uint64(),
	}
}

// procDelta is the resource use between two samples.
type procDelta struct {
	cpu       time.Duration
	mallocs   uint64
	gcCPUFrac float64 // share of the process's CPU time spent in GC
}

func (b procSample) to(a procSample) procDelta {
	cpu := a.cpu - b.cpu
	return procDelta{
		cpu:       cpu,
		mallocs:   a.mallocs - b.mallocs,
		gcCPUFrac: ratio(a.gcCPU-b.gcCPU, cpu.Seconds()),
	}
}
