package main

import (
	"math"
	"testing"
)

func TestGaugeScale(t *testing.T) {
	// A gauge run four times the reference: the host runs at a quarter
	// of the reference speed, and the simulator's cost, which moves
	// half as steeply, is scaled by one half.
	if got := gaugeScale(4 * refGaugeSecs); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("gaugeScale(4 x reference) = %v, want 0.5", got)
	}
	if got := gaugeScale(refGaugeSecs); got != 1 {
		t.Errorf("gaugeScale(reference) = %v, want 1", got)
	}
}

func TestGaugeRunIsTheSameWorkEveryTime(t *testing.T) {
	before := gaugeSink
	gaugeRun()
	first := gaugeSink - before
	gaugeRun()
	// The scans visit the task map in random order, so the float sums
	// agree only to rounding.
	if second := gaugeSink - before - first; first == 0 || math.Abs(second-first) > 1e-9*first {
		t.Errorf("two gauge runs summed %v and %v, want the same nonzero sum", first, second)
	}
}
