package main

// Metric computation: end-to-end metrics from an untraced phase, per-layer
// metrics from a traced one. Every number comes from outside the server:
// the clients' own timing, fields of the responses, /metrics deltas over
// the measured window, and the spans /debug/trace exports.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"srumma"
	"srumma/internal/server"
)

// phase is one measured window against one server.
type phase struct {
	samples       []sample
	wall          time.Duration
	before, after server.MetricsSnapshot
	// spans are the rank-lane and sched-lane spans recorded during the
	// window (traced phases only).
	spans *spanSet
}

func (ph *phase) good() []sample {
	var out []sample
	for _, s := range ph.samples {
		if s.ok() {
			out = append(out, s)
		}
	}
	return out
}

func (ph *phase) rps() float64 { return float64(len(ph.good())) / ph.wall.Seconds() }

// latencies returns the client latencies of ss.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = ss[i].latMs
	}
	return out
}

// Segment sizes: a latency segment supports a p90 with 10 samples beyond
// it; a rate segment spans about ten requests of each client, so that a
// stall lands in few of them.
const (
	segmentSize     = 100
	rateSegmentSize = 20
)

// segmentMedian cuts ss, in completion order, into as many consecutive
// segments of at least size samples as it holds (one when it holds fewer)
// and returns the median over the segments of f. A burst of host
// interference that slows part of a run moves only the segments it
// overlaps, not the median.
func segmentMedian(ss []sample, size int, f func([]sample) float64) float64 {
	n := max(len(ss)/size, 1)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = f(ss[i*len(ss)/n : (i+1)*len(ss)/n])
	}
	return median(vals)
}

// endToEnd computes the user-visible metrics of an untraced run from its
// samples in completion order. Each rate and latency percentile is the
// median over segments of the run; latency percentiles cover successful
// responses, and failures count in success_rate.
func endToEnd(ss []sample, setups []float64, rssMB float64) (map[string]float64, map[string]int) {
	var ok []sample
	for _, s := range ss {
		if s.ok() {
			ok = append(ok, s)
		}
	}
	// rate sums what good responses deliver per second of a segment: the
	// segment lasts from the completion before its first sample to its
	// last, summed over the servers it spans.
	rate := func(per func(*sample) float64) func([]sample) float64 {
		return func(seg []sample) float64 {
			var sum float64
			var d time.Duration
			for i := range seg {
				d += seg[i].gap
				if seg[i].ok() {
					sum += per(&seg[i])
				}
			}
			return sum / d.Seconds()
		}
	}
	m := map[string]float64{
		"throughput_rps": segmentMedian(ss, rateSegmentSize, rate(func(*sample) float64 { return 1 })),
		"gflops":         segmentMedian(ss, rateSegmentSize, rate(func(s *sample) float64 { return s.it.flops() / 1e9 })),
		"success_rate":   ratio(float64(len(ok)), float64(len(ss))),
		"setup_s":        median(setups),
		"peak_rss_mb":    rssMB,
	}
	counts := map[string]int{}
	for _, p := range []float64{50, 90} {
		name := fmt.Sprintf("latency_p%.0f_ms", p)
		m[name] = segmentMedian(ok, segmentSize, func(seg []sample) float64 { return percentile(latencies(seg), p) })
		counts[name] = len(ok)
	}
	return m, counts
}

// engineRoutes are the routes whose requests run on a distributed engine.
var engineRoutes = map[string]bool{"srumma": true, "cluster": true}

// perLayer computes the layer metrics of a traced phase; untraced is the
// same workload's untraced phase, for the tracing overhead. comm is the
// library Report's traffic per engine request.
func perLayer(traced, untraced *phase, comm commBytes) map[string]float64 {
	good := traced.good()
	m := map[string]float64{}

	// server: what the handler adds around queueing and execution.
	var handler, lat, hit, miss []float64
	engineRoute := ""
	var engineElapsed []float64
	refused := 0
	for _, s := range traced.samples {
		if s.refused() {
			refused++
		}
	}
	for _, s := range good {
		handler = append(handler, s.latMs-s.queueMs-s.elapsedMs)
		lat = append(lat, s.latMs)
		if s.cached {
			hit = append(hit, s.latMs)
		} else {
			miss = append(miss, s.latMs)
		}
		if engineRoutes[s.route] {
			engineRoute = s.route
			engineElapsed = append(engineElapsed, s.elapsedMs)
		}
	}
	m["server.handler_ms"] = median(handler)
	m["server.unaccounted_frac"] = ratio(median(handler), median(lat))
	m["server.hit_ms"] = median(hit)
	m["server.miss_ms"] = median(miss)
	m["server.refused"] = float64(refused)
	if b, a := traced.before.Cache, traced.after.Cache; b != nil && a != nil {
		hits, misses := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses)
		m["server.hit_rate"] = ratio(hits, hits+misses)
	} else {
		m["server.hit_rate"] = 0
	}
	var reqs, in, out float64
	for wire, a := range traced.after.Wire {
		b := traced.before.Wire[wire]
		reqs += float64(a.Requests - b.Requests)
		in += float64(a.BytesIn - b.BytesIn)
		out += float64(a.BytesOut - b.BytesOut)
	}
	m["server.bytes_in_per_req"] = ratio(in, reqs)
	m["server.bytes_out_per_req"] = ratio(out, reqs)

	// sched: queue wait per class (cache hits never queue), dispatches.
	for _, class := range []string{classInteractive, classBatch} {
		var q []float64
		for _, s := range good {
			if s.it.class == class && !s.cached {
				q = append(q, s.queueMs)
			}
		}
		m["sched.queue_p50_ms."+class] = percentile(q, 50)
		m["sched.queue_p90_ms."+class] = percentile(q, 90)
	}
	if b, a := traced.before.Sched, traced.after.Sched; b != nil && a != nil {
		m["sched.dispatches"] = float64(a.Dispatches - b.Dispatches)
		m["sched.batch_occupancy"] = ratio(float64(a.DispatchedTasks-b.DispatchedTasks), float64(a.Dispatches-b.Dispatches))
	} else {
		m["sched.dispatches"], m["sched.batch_occupancy"] = 0, 0
	}

	// core/armci or cluster: the engine dispatches' spans.
	es := traced.spans.engine()
	perRank := func(kinds ...string) float64 {
		sum := 0.0
		for _, k := range kinds {
			sum += es.kindMs[k]
		}
		return ratio(sum, float64(es.dispatches*es.ranks))
	}
	elapsed := mean(engineElapsed)
	covered := ratio(es.coveredMs, float64(es.dispatches))
	worker := ratio(es.workerMs, float64(es.dispatches))
	gemm, wait, get := perRank("gemm"), perRank("wait"), perRank("get", "copy")
	core := map[string]float64{
		"core.elapsed_ms":        elapsed,
		"core.gemm_ms":           gemm,
		"core.wait_ms":           wait,
		"core.pack_ms":           perRank("pack"),
		"core.issue_ms":          perRank("issue"),
		"armci.get_ms":           get,
		"armci.barrier_ms":       perRank("barrier"),
		"core.unspanned_ms":      elapsed - covered,
		"core.exposed_comm_frac": ratio(wait+get, wait+get+gemm),
	}
	clus := map[string]float64{
		"cluster.elapsed_ms":     elapsed,
		"cluster.worker_ms":      worker,
		"cluster.overhead_ms":    elapsed - worker,
		"cluster.worker_gemm_ms": gemm,
		"cluster.worker_wait_ms": wait,
	}
	// A workload reaches one engine route; the other's metrics read 0.
	for name, v := range core {
		m[name] = 0
		if engineRoute == "srumma" {
			m[name] = v
		}
	}
	for name, v := range clus {
		m[name] = 0
		if engineRoute == "cluster" {
			m[name] = v
		}
	}
	engineFlops := 0.0
	for _, s := range good {
		if engineRoutes[s.route] {
			engineFlops += s.it.flops()
		}
	}
	// Per dispatch flops times dispatches seen in the trace, over the
	// summed gemm-span time of those dispatches.
	m["mat.gflops"] = ratio(ratio(engineFlops, float64(len(engineElapsed)))*float64(es.dispatches), es.kindMs["gemm"]/1e3) / 1e9
	m["core.bytes_remote"] = comm.remote
	m["core.bytes_shared"] = comm.shared

	// cluster: job placement and node health from /metrics.
	m["cluster.node_spread"], m["cluster.replaced"] = 0, 0
	if len(traced.after.Cluster) > 0 {
		lo, hi, replaced := int64(-1), int64(0), int64(0)
		for i, a := range traced.after.Cluster {
			var jobs int64
			if i < len(traced.before.Cluster) {
				jobs = a.Jobs - traced.before.Cluster[i].Jobs
				replaced += a.Replaced - traced.before.Cluster[i].Replaced
			}
			if lo < 0 || jobs < lo {
				lo = jobs
			}
			hi = max(hi, jobs)
		}
		m["cluster.node_spread"] = ratio(float64(lo), float64(hi))
		m["cluster.replaced"] = float64(replaced)
	}

	// Whole run.
	all := append(append([]sample(nil), untraced.samples...), traced.samples...)
	failed, checks := 0, []float64{}
	for _, s := range all {
		if s.ok() {
			checks = append(checks, s.checkMs)
		} else {
			failed++
		}
	}
	m["error_rate"] = ratio(float64(failed), float64(len(all)))
	m["trace_overhead_frac"] = 1 - ratio(traced.rps(), untraced.rps())
	m["bench.check_ms"] = mean(checks)
	return m
}

// commBytes is one-sided traffic per engine request.
type commBytes struct{ remote, shared float64 }

// libraryBytes runs each distinct product the server computed on the
// SRUMMA route once through the public library engine, on the serving
// topology (4 ranks, two shared-memory domains), and returns the mean
// traffic its Report counts: 0 on a workload that never takes that route.
func libraryBytes(ss []sample) (commBytes, error) {
	cl, err := srumma.NewCluster(4, 2, false)
	if err != nil {
		return commBytes{}, err
	}
	seen := map[string]bool{}
	var sum commBytes
	for _, s := range ss {
		it := s.it
		if !s.ok() || s.route != "srumma" || seen[it.label] {
			continue
		}
		seen[it.label] = true
		ar, ac, br, bc := storedShapes(it.cs, it.m, it.n, it.k)
		_, rep, err := cl.Multiply(srumma.RandomMatrix(ar, ac, 1), srumma.RandomMatrix(br, bc, 2),
			srumma.MultiplyOptions{Case: caseOf(it.cs)})
		if err != nil {
			return commBytes{}, fmt.Errorf("library multiply %s: %w", it.label, err)
		}
		sum.remote += float64(rep.BytesRemote)
		sum.shared += float64(rep.BytesShared)
	}
	n := float64(len(seen))
	return commBytes{ratio(sum.remote, n), ratio(sum.shared, n)}, nil
}

func caseOf(cs string) srumma.Case {
	return map[string]srumma.Case{"NN": srumma.NN, "TN": srumma.TN, "NT": srumma.NT, "TT": srumma.TT}[cs]
}

// spanSet is the spans of one measured window, by lane.
type spanSet struct {
	ranks      map[int][]traceEvent // rank lane -> spans sorted by start
	dispatches []traceEvent         // sched-lane "batch" spans
}

// newSpanSet keeps the spans of events that start at or after marker
// (the end of the last span recorded before the window opened).
func newSpanSet(events []traceEvent, marker float64) (*spanSet, error) {
	lanes := map[int]string{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "thread_name" {
			lanes[e.TID] = e.Args.Name
		}
	}
	ss := &spanSet{ranks: map[int][]traceEvent{}}
	for _, e := range events {
		if e.Ph != "X" || e.TS < marker {
			continue
		}
		switch name := lanes[e.TID]; {
		case strings.HasPrefix(name, "rank "):
			ss.ranks[e.TID] = append(ss.ranks[e.TID], e)
		case name == "sched" && e.Name == "batch":
			ss.dispatches = append(ss.dispatches, e)
		}
	}
	if len(ss.ranks) == 0 {
		return nil, fmt.Errorf("trace names no rank lanes")
	}
	for _, spans := range ss.ranks {
		sort.Slice(spans, func(i, j int) bool { return spans[i].TS < spans[j].TS })
	}
	return ss, nil
}

// traceEnd returns the end of the latest span in events.
func traceEnd(events []traceEvent) float64 {
	end := 0.0
	for _, e := range events {
		if e.Ph == "X" {
			end = max(end, e.TS+e.Dur)
		}
	}
	return end
}

// engineSpans summarizes the dispatches that ran a distributed multiply:
// those whose window holds at least one gemm span on a rank lane (batched
// small products run the local kernel unspanned).
type engineSpans struct {
	dispatches int
	ranks      int
	kindMs     map[string]float64 // span time by kind, summed over ranks and dispatches
	coveredMs  float64            // per dispatch: time any rank is in a non-job span, summed
	workerMs   float64            // per dispatch: the busiest rank's spanned time, summed
}

func (ss *spanSet) engine() engineSpans {
	es := engineSpans{ranks: len(ss.ranks), kindMs: map[string]float64{}}
	for _, d := range ss.dispatches {
		var all [][2]float64
		kinds := map[string]float64{}
		busiest := 0.0
		for _, spans := range ss.ranks {
			i := sort.Search(len(spans), func(i int) bool { return spans[i].TS >= d.TS })
			var mine [][2]float64
			for ; i < len(spans) && spans[i].TS <= d.TS+d.Dur; i++ {
				e := spans[i]
				iv := [2]float64{e.TS, e.TS + e.Dur}
				mine = append(mine, iv)
				if e.Name != "job" {
					kinds[e.Name] += e.Dur
					all = append(all, iv)
				}
			}
			busiest = max(busiest, unionLen(mine))
		}
		if kinds["gemm"] == 0 {
			continue
		}
		es.dispatches++
		for k, v := range kinds {
			es.kindMs[k] += v / 1e3
		}
		es.coveredMs += unionLen(all) / 1e3
		es.workerMs += busiest / 1e3
	}
	return es
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, end := 0.0, -1.0
	for _, iv := range ivs {
		if iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}
