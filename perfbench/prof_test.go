package main

import (
	"math"
	"strings"
	"testing"
)

func TestFoldModuleTakesInnermostModuleFrame(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		// Leaf in the runtime, called from the engine, called from
		// decentral: the engine is the innermost module frame.
		{[]string{
			"runtime.mallocgc",
			"github.com/hopper-sim/hopper/internal/simulator.(*Engine).Post",
			"github.com/hopper-sim/hopper/internal/decentral.(*System).dispatch",
			"main.main",
		}, "simulator"},
		// Closures and nested package paths still name the module.
		{[]string{"github.com/hopper-sim/hopper/internal/live.(*Scheduler).Run.func1"}, "live"},
		{[]string{"sort.Sort", "github.com/hopper-sim/hopper/internal/stats.Mean"}, "stats"},
		// No module frame at all: runtime.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{nil, "runtime"},
		// The benchmark's own package is not a module.
		{[]string{"main.quantile", "main.main"}, "runtime"},
	}
	for _, c := range cases {
		if got := foldModule(c.frames); got != c.want {
			t.Errorf("foldModule(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestIsSyscall(t *testing.T) {
	yes := [][]string{
		{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6", "net.(*netFD).Write"},
		{"runtime.futex", "runtime.futexsleep"},
	}
	no := [][]string{
		{"runtime.mallocgc", "github.com/hopper-sim/hopper/internal/wire.Encode"},
		nil,
	}
	for _, f := range yes {
		if !isSyscall(f) {
			t.Errorf("isSyscall(%q) = false", f)
		}
	}
	for _, f := range no {
		if isSyscall(f) {
			t.Errorf("isSyscall(%q) = true", f)
		}
	}
}

func TestFoldTracesOnSyntheticOutput(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 1.10s (110.00%)
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             github.com/hopper-sim/hopper/internal/protocol.(*Sched).Offer (inline)
             github.com/hopper-sim/hopper/internal/speculation.Scan
             main.main
-----------+-------------------------------------------------------
      10ms   github.com/hopper-sim/hopper/internal/speculation.Scan
             main.main
-----------+-------------------------------------------------------
     1.06s   syscall.Syscall6
             main.main
-----------+-------------------------------------------------------
`
	var b cpuBreakdown
	if err := foldTraces(strings.NewReader(out), &b); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"protocol": 30e6, "speculation": 10e6, "runtime": 1060e6}
	for m, ns := range want {
		if b.byModule[m] != ns {
			t.Errorf("module %s: %d ns, want %d", m, b.byModule[m], ns)
		}
	}
	if b.total != 1100e6 || b.syscall != 1060e6 {
		t.Errorf("total %d ns, syscall %d ns; want 1.1e9 and 1.06e9", b.total, b.syscall)
	}
	var sum float64
	for _, m := range b.modules() {
		sum += b.share(m)
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%, want 100%%", sum)
	}
}

func TestFoldTracesRejectsMalformedOutput(t *testing.T) {
	for _, out := range []string{
		"File: perfbench\n",                     // no stack at all
		"-----------+---\n  12xs   main.main\n", // unknown unit
	} {
		if err := foldTraces(strings.NewReader(out), &cpuBreakdown{}); err == nil {
			t.Errorf("foldTraces(%q) succeeded", out)
		}
	}
}
