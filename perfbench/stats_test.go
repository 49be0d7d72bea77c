package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestQuantileCountsFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	// Ten jobs, two failed: 80% of the sample is finite.
	xs := []float64{5, 1, inf, 3, 2, 4, inf, 6, 8, 7}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.10, 1},
		{0.50, 5},
		{0.80, 8},
		{0.81, inf}, // the 9th value is the first failure
		{0.95, inf},
		{1.00, inf},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
}

func TestJSONResultEncodesInfiniteAsMaxFloat(t *testing.T) {
	res := &result{attempted: 4, failed: 1}
	out := jsonResult(res, []metric{{"job_p95_ms", "ms", math.Inf(1), 4}})
	if got := out.Metrics["job_p95_ms"].Value; got != math.MaxFloat64 {
		t.Errorf("+Inf encoded as %v, want MaxFloat64", got)
	}
	if !out.Correct {
		t.Error("a run with no failed checks should be correct")
	}
	res.fail("broken")
	if jsonResult(res, nil).Correct {
		t.Error("a failed check must make the run incorrect")
	}
}

func TestLedgerCheck(t *testing.T) {
	ok := ledger{messages: 10 + 2*7 + 3, probes: 10, offers: 7, rollbacks: 3}
	if err := ok.check(); err != nil {
		t.Errorf("balanced ledger rejected: %v", err)
	}
	bad := ok
	bad.messages++
	if err := bad.check(); err == nil || !strings.Contains(err.Error(), "message ledger") {
		t.Errorf("unbalanced ledger accepted (err %v)", err)
	}
}

func TestDigestIsOrderFreeAndExact(t *testing.T) {
	a := []jobTime{{1, 10.5}, {2, 20.25}, {3, 7}}
	b := []jobTime{{3, 7}, {1, 10.5}, {2, 20.25}}
	if digest(a) != digest(b) {
		t.Error("digest depends on input order")
	}
	c := []jobTime{{1, 10.5}, {2, math.Nextafter(20.25, 21)}, {3, 7}}
	if digest(a) == digest(c) {
		t.Error("digest missed a one-ulp change in a completion time")
	}
	d := []jobTime{{1, 20.25}, {2, 10.5}, {3, 7}}
	if digest(a) == digest(d) {
		t.Error("digest missed two jobs swapping completion times")
	}
}

func TestArrivalsAreSortedCountFixedAndInWindow(t *testing.T) {
	a := arrivals(7, 20, 12)
	if len(a) != 240 {
		t.Fatalf("%d arrivals, want rate*seconds = 240", len(a))
	}
	for i, at := range a {
		if at < 0 || at > 12*time.Second {
			t.Fatalf("arrival %d at %v is outside the window", i, at)
		}
		if i > 0 && at < a[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
	b := arrivals(7, 20, 12)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave a different schedule")
		}
	}
}
