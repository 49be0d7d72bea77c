package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The traced run's CPU breakdown. runtime/pprof writes the profile next
// to the benchmark's binary, and the Go toolchain's pprof prints its
// stacks (`go tool pprof -traces`), which the fold below reads.

// modulePrefix marks the repository's own packages in symbol names.
const modulePrefix = "github.com/hopper-sim/hopper/internal/"

// moduleOf names the repository module a symbol belongs to ("protocol"
// for github.com/hopper-sim/hopper/internal/protocol.(*Sched).Offer),
// or "" for any other symbol.
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// foldModule attributes one sample to the innermost repository module
// on its stack (frames run leaf first). A sample with no module frame
// belongs to "runtime": the Go runtime, the standard library and the
// benchmark's own code.
func foldModule(frames []string) string {
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	return "runtime"
}

// isSyscall reports whether a sample was spent entering the kernel: a
// frame of the syscall packages anywhere on the stack, or a leaf in the
// runtime's own raw system-call wrappers.
func isSyscall(frames []string) bool {
	for _, f := range frames {
		if strings.HasPrefix(f, "syscall.") || strings.HasPrefix(f, "internal/runtime/syscall.") ||
			strings.HasPrefix(f, "runtime/internal/syscall.") {
			return true
		}
	}
	if len(frames) == 0 {
		return false
	}
	switch frames[0] {
	case "runtime.futex", "runtime.epollwait", "runtime.usleep", "runtime.nanosleep",
		"runtime.write1", "runtime.read", "runtime.madvise", "runtime.mmap":
		return true
	}
	return false
}

// cpuBreakdown is a folded CPU profile: CPU nanoseconds per module.
type cpuBreakdown struct {
	byModule map[string]int64
	syscall  int64
	total    int64
}

// add folds one sample.
func (b *cpuBreakdown) add(frames []string, ns int64) {
	if b.byModule == nil {
		b.byModule = map[string]int64{}
	}
	b.byModule[foldModule(frames)] += ns
	if isSyscall(frames) {
		b.syscall += ns
	}
	b.total += ns
}

// share is module m's percentage of all sampled CPU time.
func (b *cpuBreakdown) share(m string) float64 {
	return 100 * ratio(float64(b.byModule[m]), float64(b.total))
}

// modules lists the sampled modules, largest share first.
func (b *cpuBreakdown) modules() []string {
	var ms []string
	for m := range b.byModule {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool {
		if b.byModule[ms[i]] != b.byModule[ms[j]] {
			return b.byModule[ms[i]] > b.byModule[ms[j]]
		}
		return ms[i] < ms[j]
	})
	return ms
}

// profiler is a runtime/pprof CPU profile being written to a file.
type profiler struct {
	path string
	f    *os.File
}

// startProfile starts CPU profiling into <binary's directory>/<name>.pprof.
func startProfile(name string) (*profiler, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	p := &profiler{path: filepath.Join(filepath.Dir(exe), name+".pprof")}
	if p.f, err = os.Create(p.path); err != nil {
		return nil, fmt.Errorf("creating CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(p.f); err != nil {
		p.f.Close()
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends profiling and folds the samples into b.
func (p *profiler) stop(b *cpuBreakdown) error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("writing CPU profile: %w", err)
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", p.path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -traces %s: %w", p.path, err)
	}
	return foldTraces(strings.NewReader(string(out)), b)
}

// foldTraces folds the output of `go tool pprof -traces`: stacks
// separated by dashed lines, each listed leaf first, one function per
// line, the first line led by the stack's sampled CPU time.
//
//	-----------+-------------------------------------------------------
//	      10ms   runtime.mallocgc
//	             github.com/hopper-sim/hopper/internal/simulator.(*Engine).Post (inline)
func foldTraces(r io.Reader, b *cpuBreakdown) error {
	var frames []string
	var ns int64
	flush := func() {
		if len(frames) > 0 {
			b.add(frames, ns)
		}
		frames, ns = frames[:0], 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	inTrace := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTrace = true
			continue
		}
		if !inTrace || strings.TrimSpace(line) == "" {
			continue // the header before the first stack
		}
		fn := strings.TrimSpace(line)
		if len(frames) == 0 {
			v, rest, ok := strings.Cut(fn, " ")
			if !ok {
				return fmt.Errorf("pprof traces: no function after %q", v)
			}
			d, err := parseSampled(v)
			if err != nil {
				return err
			}
			ns, fn = d, strings.TrimSpace(rest)
		}
		frames = append(frames, strings.TrimSuffix(fn, " (inline)"))
	}
	flush()
	if err := sc.Err(); err != nil {
		return fmt.Errorf("pprof traces: %w", err)
	}
	if b.total == 0 {
		return fmt.Errorf("pprof traces: no samples")
	}
	return nil
}

// pprofUnits are the time units pprof scales sampled CPU time to.
var pprofUnits = []struct {
	suffix string
	d      time.Duration
}{
	{"mins", time.Minute}, {"hrs", time.Hour}, {"ns", time.Nanosecond},
	{"us", time.Microsecond}, {"µs", time.Microsecond}, {"ms", time.Millisecond}, {"s", time.Second},
}

// parseSampled reads a pprof time such as "10ms" or "14.03s" as
// nanoseconds.
func parseSampled(v string) (int64, error) {
	for _, u := range pprofUnits {
		if num, ok := strings.CutSuffix(v, u.suffix); ok {
			x, err := strconv.ParseFloat(num, 64)
			if err != nil {
				break
			}
			return int64(x * float64(u.d)), nil
		}
	}
	return 0, fmt.Errorf("pprof traces: bad sample value %q", v)
}
