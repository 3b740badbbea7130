package main

import (
	"slices"
	"time"
)

// quantile is the exact nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// beyond counts the samples of sorted strictly greater than v.
func beyond(sorted []int64, v int64) int {
	i, _ := slices.BinarySearch(sorted, v+1)
	return len(sorted) - i
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// midmean is the mean of the middle half of xs (all of xs when it has
// fewer than four values).
func midmean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if q := len(s) / 4; len(s) >= 4 {
		s = s[q : len(s)-q]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(max(1, len(s)))
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// latencyStats summarises one open-loop rate's blocks. Each block is cut
// into windows by intended start; p50 and p90 are the interquartile means
// of the per-window quantiles. The windows a host disturbance or a server
// GC cycle pushes to either end drop out, and unlike a median the result
// does not jump when about half the windows hold a GC cycle. The tail
// quantiles are taken over all samples, with the number of samples beyond
// them.
type latencyStats struct {
	p50, p90        float64 // µs
	p99, p999       float64 // µs
	n99, n999       int     // samples beyond p99, p999
	samples         int
	lagP50, lagP99  float64 // µs
	attempted       int
	completed       int
	failed, dropped int
	busy            float64 // generator CPU / wall
	cmdsPerWrite    float64

	windowP50, windowP90 []float64 // per window, µs
}

const windowsPerBlock = 4

func summarize(blocks []*olResult) latencyStats {
	var st latencyStats
	var all, lags []int64
	var genCPU, wall time.Duration
	cmds, writes := 0, 0
	for _, r := range blocks {
		a, c, f, d := r.tally()
		st.attempted, st.completed, st.failed, st.dropped = st.attempted+a, st.completed+c, st.failed+f, st.dropped+d
		genCPU, wall = genCPU+r.genCPU, wall+r.wall
		cmds, writes = cmds+r.cmds, writes+r.writes
		horizon := slices.Max(r.sched) + 1
		per := make([][]int64, windowsPerBlock)
		for i, l := range r.lat {
			if r.lag[i] >= 0 {
				lags = append(lags, r.lag[i])
			}
			if l < 0 {
				continue
			}
			w := int(int64(r.sched[i]) * windowsPerBlock / int64(horizon))
			per[w] = append(per[w], l)
			all = append(all, l)
		}
		for _, s := range per {
			if len(s) == 0 {
				continue
			}
			slices.Sort(s)
			st.windowP50 = append(st.windowP50, us(quantile(s, 0.5)))
			st.windowP90 = append(st.windowP90, us(quantile(s, 0.9)))
		}
	}
	st.p50, st.p90 = midmean(st.windowP50), midmean(st.windowP90)
	slices.Sort(all)
	st.samples = len(all)
	p99, p999 := quantile(all, 0.99), quantile(all, 0.999)
	st.p99, st.p999 = us(p99), us(p999)
	st.n99, st.n999 = beyond(all, p99), beyond(all, p999)
	slices.Sort(lags)
	st.lagP50, st.lagP99 = us(quantile(lags, 0.5)), us(quantile(lags, 0.99))
	if wall > 0 {
		st.busy = genCPU.Seconds() / wall.Seconds()
	}
	if writes > 0 {
		st.cmdsPerWrite = float64(cmds) / float64(writes)
	}
	return st
}

// generatorBound reports why an open-loop phase measured the generator
// rather than the program, or "" when it did not: the generator ran late by
// more than a quarter of the median latency, or was busy half of the time.
func generatorBound(st latencyStats) string {
	switch {
	case st.lagP50 > st.p50/4:
		return "generator lag p50 exceeds a quarter of latency p50"
	case st.busy > 0.5:
		return "generator busy more than half of the phase"
	}
	return ""
}
