package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q <= 1) of xs by nearest rank:
// the smallest value with at least q·n values at or below it. Failed
// jobs enter xs as +Inf, so they sort last and count as missing every
// latency limit; a quantile that reaches into them is +Inf. An empty
// sample has no quantile and yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean averages xs; +Inf entries make it +Inf.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// jobTime is one job's identity and completion instant, the unit of
// the completion digest.
type jobTime struct {
	id   uint64
	done float64
}

// digest hashes (job ID, completion time) pairs in job-ID order. Two
// runs of one deterministic simulation produce the same digest; any
// change in a single job's completion instant changes it.
func digest(jobs []jobTime) string {
	s := append([]jobTime(nil), jobs...)
	sort.Slice(s, func(a, b int) bool { return s[a].id < s[b].id })
	h := fnv.New64a()
	var buf [16]byte
	for _, j := range s {
		binary.LittleEndian.PutUint64(buf[:8], j.id)
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(j.done))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ledger is the decentralized simulator's message account.
type ledger struct {
	messages, probes, offers, rollbacks int64
}

// check verifies Messages == Probes + 2·Offers + Rollbacks: every
// message is a probe, one leg of an offer/reply round trip, or an
// occupancy rollback.
func (l ledger) check() error {
	if want := l.probes + 2*l.offers + l.rollbacks; l.messages != want {
		return fmt.Errorf("message ledger: %d messages, want probes %d + 2*offers %d + rollbacks %d = %d",
			l.messages, l.probes, l.offers, l.rollbacks, want)
	}
	return nil
}

// ratio divides, returning 0 for an empty base so counters of an
// unexercised layer read as zero rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
