package main

// Self-contained serving benchmarks added with the cluster subsystem:
//
//   - -bench-cluster: the sharded-vs-in-process arm — one request stream
//     served by an in-process SRUMMA server and by cluster servers (unix
//     and tcp node transports), every response held bit-identical across
//     arms and verified against the serial kernel;
//   - -bench-cache: cache-aware load shaping — a shared-weights profile
//     (few operand sets revisited by many requests) swept across result
//     cache capacity and TTL, recording hit rate and the throughput
//     multiplier over the cache-off baseline;
//   - -bench-overload: breaker/brownout policy sweep — a seeded
//     silent-corruption fault rate that ABFT cannot always clear produces
//     honest 500s for the breaker arms (500-rate vs availability as the
//     threshold tightens), and a deep-queue profile drives the brownout
//     arms (shed fraction vs latency/throughput).
//
// All three merge their results as keyed sections of BENCH_server.json
// (writeSection), so the document accumulates wire, cluster, cache and
// overload arms instead of each run clobbering the others.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"srumma/internal/faults"
	"srumma/internal/mat"
	"srumma/internal/server"
)

// writeSection merges one keyed section into the JSON document at path,
// preserving every other top-level key already recorded there. A missing
// or non-object document starts fresh.
func writeSection(path, key string, v any) {
	doc := map[string]json.RawMessage{}
	if path != "-" {
		if raw, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(raw, &doc); err != nil {
				doc = map[string]json.RawMessage{}
			}
		}
	}
	raw, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	doc[key] = raw
	writeJSONFile(doc, path)
}

// servedResult is one response as the bench arms observe it.
type servedResult struct {
	status  int
	latency float64 // seconds
	route   string
	c       []float64
	err     error
}

// postJSON issues one JSON-wire request and decodes the response,
// returning failures as statuses rather than fatal errors so overload
// arms can count 500s and 503s.
func postJSON(client *http.Client, addr string, body []byte) servedResult {
	t0 := time.Now()
	resp, err := client.Post(addr+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		return servedResult{err: err}
	}
	defer resp.Body.Close()
	r := servedResult{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		var eresp struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&eresp)
		r.latency = time.Since(t0).Seconds()
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, eresp.Error)
		return r
	}
	var m server.MultiplyResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		r.err = err
		return r
	}
	r.latency = time.Since(t0).Seconds()
	r.route = m.Route
	r.c = m.C
	return r
}

// driveArm issues the request bodies picked by pick through a worker pool
// against addr and returns every outcome in request order.
func driveArm(addr string, pick func(int) []byte, requests, concurrency int) ([]servedResult, float64) {
	results := make([]servedResult, requests)
	jobs := make(chan int)
	var wg sync.WaitGroup
	client := &http.Client{}
	t0 := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = postJSON(client, addr, pick(i))
			}
		}()
	}
	for i := 0; i < requests; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, time.Since(t0).Seconds()
}

func latencyStats(results []servedResult) (p50, p99, mean float64) {
	var ok []float64
	var sum float64
	for _, r := range results {
		if r.err == nil {
			ok = append(ok, r.latency)
			sum = sum + r.latency
		}
	}
	sort.Float64s(ok)
	if len(ok) == 0 {
		return 0, 0, 0
	}
	return percentile(ok, 0.50) * 1e3, percentile(ok, 0.99) * 1e3, sum / float64(len(ok)) * 1e3
}

// ---------------------------------------------------------------------------
// -bench-cluster: sharded vs in-process serving.

const (
	clusterBenchDim      = 192
	clusterBenchRequests = 24
	clusterBenchConc     = 4
	clusterBenchVariants = 6
)

// ClusterArmReport is one serving arrangement's view of the shared
// request stream.
type ClusterArmReport struct {
	Mode          string  `json:"mode"` // in_process | cluster_unix | cluster_tcp
	Nodes         int     `json:"nodes,omitempty"`
	Route         string  `json:"route"`
	OK            int     `json:"ok"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MeanMs        float64 `json:"mean_ms"`
	WallSeconds   float64 `json:"wall_s"`
	ThroughputRPS float64 `json:"throughput_rps"`
	ClusterJobs   int64   `json:"cluster_jobs,omitempty"`
}

// ClusterBenchReport is the "cluster" section of BENCH_server.json: an
// identical request stream served in-process and sharded across worker
// nodes over both node transports, with every response bit-identical
// across arms.
type ClusterBenchReport struct {
	Host        HostInfo `json:"host"`
	Shape       string   `json:"shape"`
	Requests    int      `json:"requests_per_arm"`
	Concurrency int      `json:"concurrency"`
	NProcs      int      `json:"nprocs"`
	PPN         int      `json:"ppn"`

	InProcess   ClusterArmReport `json:"in_process"`
	ClusterUnix ClusterArmReport `json:"cluster_unix"`
	ClusterTCP  ClusterArmReport `json:"cluster_tcp"`

	// ShardedVsInProcessX is in-process p50 over cluster (unix) p50: the
	// cost (or gain) of moving the distributed route onto worker
	// processes on this machine.
	ShardedVsInProcessX float64 `json:"sharded_vs_in_process_p50_x"`
	BitIdentical        bool    `json:"bit_identical"`
}

// HostInfo records the machine and build a BENCH section was measured on,
// so a number can be read against its core count and kernel.
type HostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() HostInfo {
	return HostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     mat.KernelName(),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
	}
}

// gitCommit names the checkout the benchmark ran from: HEAD, suffixed
// "-dirty" when tracked files differ from it, or "unknown" outside git.
func gitCommit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(head))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

// runClusterArm serves the stream from a fresh server with cfg and checks
// every response against the per-variant references (serial tolerance; nil
// refs means this arm records them for the later bit-identity check).
func runClusterArm(mode string, cfg server.Config, bodies [][]byte, wantRoute string, refs [][]float64) (ClusterArmReport, [][]float64) {
	s, err := server.New(cfg)
	if err != nil {
		log.Fatalf("cluster bench (%s): %v", mode, err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pick := func(i int) []byte { return bodies[i%len(bodies)] }
	// Warm the engine (and, for cluster arms, the node segment pools)
	// before timing.
	if r := postJSON(&http.Client{}, ts.URL, bodies[0]); r.err != nil {
		log.Fatalf("cluster bench (%s) warmup: %v", mode, r.err)
	}
	results, wall := driveArm(ts.URL, pick, clusterBenchRequests, clusterBenchConc)

	got := make([][]float64, len(bodies))
	arm := ClusterArmReport{Mode: mode, WallSeconds: wall}
	for i, r := range results {
		if r.err != nil {
			log.Fatalf("cluster bench (%s) request %d: %v", mode, i, r.err)
		}
		if r.route != wantRoute {
			log.Fatalf("cluster bench (%s) request %d: route %q, want %q", mode, i, r.route, wantRoute)
		}
		arm.OK++
		v := i % len(bodies)
		if got[v] == nil {
			got[v] = r.c
		}
		if refs != nil {
			for j := range r.c {
				if math.Float64bits(r.c[j]) != math.Float64bits(refs[v][j]) {
					log.Fatalf("cluster bench (%s) request %d: element %d = %v, want %v (not bit-identical to in-process)",
						mode, i, j, r.c[j], refs[v][j])
				}
			}
		}
	}
	arm.Route = wantRoute
	arm.P50Ms, arm.P99Ms, arm.MeanMs = latencyStats(results)
	if wall > 0 {
		arm.ThroughputRPS = float64(arm.OK) / wall
	}
	snap := s.Metrics()
	arm.Nodes = len(snap.Cluster)
	for _, nd := range snap.Cluster {
		arm.ClusterJobs += nd.Jobs
	}
	shutdownServer(s, mode)
	return arm, got
}

func shutdownServer(s *server.Server, label string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Fatalf("%s shutdown: %v", label, err)
	}
}

// runBenchCluster measures the sharded serving path against the
// in-process one on an identical stream and pins bit-identity between
// them — the acceptance gate for routing /v1/multiply across OS-process
// worker nodes.
func runBenchCluster(out string, seed uint64) {
	dim := clusterBenchDim
	bodies := make([][]byte, clusterBenchVariants)
	wants := make([]*mat.Matrix, clusterBenchVariants)
	for v := range bodies {
		vseed := seed + 300 + uint64(2*v)
		a := mat.Random(dim, dim, vseed)
		b := mat.Random(dim, dim, vseed+1)
		wants[v] = mat.New(dim, dim)
		if err := mat.Gemm(false, false, 1, a, b, 0, wants[v]); err != nil {
			log.Fatal(err)
		}
		req := server.MultiplyRequest{
			ID:    fmt.Sprintf("bench-cluster-%d", v),
			ARows: dim, ACols: dim, A: a.Data,
			BRows: dim, BCols: dim, B: b.Data,
		}
		body, err := json.Marshal(req)
		if err != nil {
			log.Fatal(err)
		}
		bodies[v] = body
	}

	base := server.Config{
		NProcs:         4,
		ProcsPerNode:   2,
		Teams:          2,
		SmallMNK:       1, // everything on the distributed route
		DefaultTimeout: 60 * time.Second,
	}
	rep := ClusterBenchReport{
		Host:        hostInfo(),
		Shape:       shape{dim, dim, dim}.String(),
		Requests:    clusterBenchRequests,
		Concurrency: clusterBenchConc,
		NProcs:      base.NProcs,
		PPN:         base.ProcsPerNode,
	}

	var refs [][]float64
	rep.InProcess, refs = runClusterArm("in_process", base, bodies, "srumma", nil)
	for v, ref := range refs {
		got := &mat.Matrix{Rows: dim, Cols: dim, Stride: dim, Data: ref}
		if diff := mat.MaxAbsDiff(got, wants[v]); diff > 1e-9*float64(dim) {
			log.Fatalf("cluster bench: in-process variant %d diverges from serial kernel by %g", v, diff)
		}
	}

	unixCfg := base
	unixCfg.Cluster = true
	unixCfg.ClusterNodes = 2
	rep.ClusterUnix, _ = runClusterArm("cluster_unix", unixCfg, bodies, "cluster", refs)

	tcpCfg := unixCfg
	tcpCfg.ClusterTransport = "tcp"
	rep.ClusterTCP, _ = runClusterArm("cluster_tcp", tcpCfg, bodies, "cluster", refs)

	// runClusterArm fatals on the first non-identical element, so reaching
	// here means every cluster response matched the in-process bits.
	rep.BitIdentical = true
	if p50 := rep.ClusterUnix.P50Ms; p50 > 0 {
		rep.ShardedVsInProcessX = rep.InProcess.P50Ms / p50
	}

	writeSection(out, "cluster", &rep)
	fmt.Printf("cluster: %s p50 %.1f ms in-process vs %.1f ms sharded/unix vs %.1f ms sharded/tcp (%d nodes, %d jobs); bit-identical %v\n",
		rep.Shape, rep.InProcess.P50Ms, rep.ClusterUnix.P50Ms, rep.ClusterTCP.P50Ms,
		rep.ClusterUnix.Nodes, rep.ClusterUnix.ClusterJobs, rep.BitIdentical)
}

// ---------------------------------------------------------------------------
// -bench-cache: cache-aware load shaping.

const (
	// 256^3: big enough that the compute a hit elides dominates the
	// request's wire cost, so the throughput multiplier measures the
	// cache rather than JSON parsing.
	cacheBenchDim      = 256
	cacheBenchRequests = 32
	cacheBenchConc     = 6
	cacheBenchWeights  = 6 // distinct operand sets cycled ("shared weights")
)

// CacheArmReport is one cache configuration under the shared-weights
// profile.
type CacheArmReport struct {
	CacheEntries  int     `json:"cache_entries"`
	CacheTTLMs    int64   `json:"cache_ttl_ms,omitempty"`
	OK            int     `json:"ok"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	CacheHits     int64   `json:"cache_hits"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	// ThroughputX is this arm's throughput over the cache-off baseline.
	ThroughputX float64 `json:"throughput_x"`
}

// CacheBenchReport is the "cache_shaping" section of BENCH_server.json:
// hit rate and throughput multiplier as capacity and TTL vary under a
// fixed revisit-heavy stream.
type CacheBenchReport struct {
	Shape       string `json:"shape"`
	Requests    int    `json:"requests_per_arm"`
	Concurrency int    `json:"concurrency"`
	// Weights is how many distinct operand sets the stream cycles; every
	// request repeats one of them, like inference traffic sharing weight
	// matrices.
	Weights int `json:"weights"`

	Arms []CacheArmReport `json:"arms"`
}

// runBenchCache sweeps result-cache capacity and TTL under a
// shared-weights profile: cacheBenchWeights operand sets revisited
// round-robin, so a cache that holds them all converts every revisit into
// a hit while an undersized or fast-expiring one keeps recomputing.
func runBenchCache(out string, seed uint64) {
	dim := cacheBenchDim
	sh := []shape{{dim, dim, dim}}
	// Binary wire: at this shape the JSON codec costs more than the
	// multiply, which would bury the cache's effect under parsing.
	items := buildItems(sh, nil, seed+500, cacheBenchWeights, "binary", false)
	pick := func(i int) workItem {
		row := items[0]
		return row[i%len(row)]
	}

	arms := []struct {
		entries int
		ttl     time.Duration
	}{
		{0, 0},                      // baseline: every request computes
		{2, 0},                      // undersized: thrashes under 6 weights
		{64, 0},                     // fits: steady-state all-hit
		{64, 25 * time.Millisecond}, // fits but expires between revisits
	}
	rep := CacheBenchReport{
		Shape:       sh[0].String(),
		Requests:    cacheBenchRequests,
		Concurrency: cacheBenchConc,
		Weights:     cacheBenchWeights,
	}
	var baseRPS float64
	for _, armCfg := range arms {
		s, err := server.New(server.Config{
			NProcs:         4,
			Teams:          1,
			QueueCap:       2 * cacheBenchConc,
			DefaultTimeout: 60 * time.Second,
			CacheEntries:   armCfg.entries,
			CacheTTL:       armCfg.ttl,
		})
		if err != nil {
			log.Fatalf("cache bench (entries %d): %v", armCfg.entries, err)
		}
		ts := httptest.NewServer(s.Handler())
		// Warm the engine and seed the cache with one pass over the
		// weights so the timed loop measures the steady state. drive()
		// verifies every result against the serial kernel and checks the
		// echoed digests, so a hit serving the wrong computation fails.
		warm, _ := drive(ts.URL, pick, cacheBenchWeights, 1, true, 1e-9*float64(dim), 100)
		for _, r := range warm {
			if r.err != nil {
				log.Fatalf("cache bench (entries %d) warmup: %v", armCfg.entries, r.err)
			}
		}
		results, wall := drive(ts.URL, pick, cacheBenchRequests, cacheBenchConc, true, 1e-9*float64(dim), 100)
		arm := CacheArmReport{CacheEntries: armCfg.entries, CacheTTLMs: armCfg.ttl.Milliseconds()}
		var lats []float64
		for i, r := range results {
			if r.err != nil {
				log.Fatalf("cache bench (entries %d) request %d: %v", armCfg.entries, i, r.err)
			}
			arm.OK++
			lats = append(lats, r.latency)
		}
		sort.Float64s(lats)
		arm.P50Ms = percentile(lats, 0.50) * 1e3
		arm.P99Ms = percentile(lats, 0.99) * 1e3
		if wall > 0 {
			arm.ThroughputRPS = float64(arm.OK) / wall
		}
		if snap := s.Metrics(); snap.Cache != nil {
			arm.CacheHits = snap.Cache.Hits
			arm.CacheHitRate = snap.Cache.HitRate
		}
		ts.Close()
		shutdownServer(s, fmt.Sprintf("cache bench (entries %d)", armCfg.entries))
		if baseRPS == 0 {
			baseRPS = arm.ThroughputRPS
		}
		if baseRPS > 0 {
			arm.ThroughputX = arm.ThroughputRPS / baseRPS
		}
		rep.Arms = append(rep.Arms, arm)
	}

	writeSection(out, "cache_shaping", &rep)
	for _, arm := range rep.Arms {
		fmt.Printf("cache: entries %3d ttl %3dms -> hit rate %.2f, %.1f req/s (%.2fx), p50 %.1f ms\n",
			arm.CacheEntries, arm.CacheTTLMs, arm.CacheHitRate, arm.ThroughputRPS, arm.ThroughputX, arm.P50Ms)
	}
}

// ---------------------------------------------------------------------------
// -bench-overload: breaker and brownout policy sweep.

const (
	overloadDim      = 64
	overloadRequests = 64
	overloadConc     = 8

	brownoutDim      = 128
	brownoutRequests = 48
	brownoutConc     = 12
)

// BreakerArmReport is one breaker configuration against the same faulty
// backend: the 500-rate vs availability tradeoff as the threshold
// tightens.
type BreakerArmReport struct {
	Threshold float64 `json:"threshold"` // 0: breaker off
	Window    int     `json:"window,omitempty"`

	OK           int     `json:"ok"`
	Err500       int     `json:"err_500"`
	Shed503      int     `json:"shed_503"`
	Availability float64 `json:"availability"` // ok / requests
	Rate500      float64 `json:"rate_500"`     // 500s / requests
	P50OkMs      float64 `json:"p50_ok_ms"`
	MeanFailMs   float64 `json:"mean_fail_ms"` // how long a failure holds the client
	WallSeconds  float64 `json:"wall_s"`
}

// BrownoutArmReport is one brownout setting under the deep-queue profile.
type BrownoutArmReport struct {
	BrownoutAt float64 `json:"brownout_at"` // negative: off

	OK               int     `json:"ok"`
	P50Ms            float64 `json:"p50_ms"`
	P99Ms            float64 `json:"p99_ms"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	BrownoutRequests uint64  `json:"brownout_requests"` // requests served degraded
}

// OverloadBenchReport is the "overload" section of BENCH_server.json.
type OverloadBenchReport struct {
	BreakerShape    string  `json:"breaker_shape"`
	BreakerRequests int     `json:"breaker_requests"`
	BadBlockRate    float64 `json:"bad_block_rate"`

	BrownoutShape    string `json:"brownout_shape"`
	BrownoutRequests int    `json:"brownout_requests"`

	Breaker  []BreakerArmReport  `json:"breaker"`
	Brownout []BrownoutArmReport `json:"brownout"`
}

// runBreakerArm drives the faulty server with one breaker setting.
// BadBlockRate corrupts C blocks mid-compute; ABFT detects and recomputes,
// but a block corrupted on every recompute attempt exhausts abftMaxRedo
// and — with retries disabled — surfaces as an honest 500. The breaker
// converts runs of those slow failures into fast 503 sheds.
func runBreakerArm(threshold float64, window int, seed uint64, bodies [][]byte) BreakerArmReport {
	plan, err := faults.NewPlan(faults.Config{Seed: seed, BadBlockRate: 0.35}, 4)
	if err != nil {
		log.Fatal(err)
	}
	s, err := server.New(server.Config{
		NProcs:           4,
		Teams:            1,
		QueueCap:         2 * overloadConc,
		SmallMNK:         1,
		MaxTaskK:         8,
		ABFT:             true,
		FaultPlan:        plan,
		RetryBudget:      -1, // isolate the breaker from the retry machinery
		BreakerThreshold: threshold,
		BreakerWindow:    window,
		BreakerCooldown:  150 * time.Millisecond,
		DefaultTimeout:   60 * time.Second,
	})
	if err != nil {
		log.Fatalf("overload bench (threshold %g): %v", threshold, err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pick := func(i int) []byte { return bodies[i%len(bodies)] }
	results, wall := driveArm(ts.URL, pick, overloadRequests, overloadConc)
	arm := BreakerArmReport{Threshold: threshold, Window: window, WallSeconds: wall}
	var failSum float64
	var fails int
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			arm.OK++
		case http.StatusInternalServerError:
			arm.Err500++
			failSum += r.latency
			fails++
		case http.StatusServiceUnavailable:
			arm.Shed503++
			failSum += r.latency
			fails++
		default:
			log.Fatalf("overload bench (threshold %g) request %d: %v", threshold, i, r.err)
		}
	}
	arm.Availability = float64(arm.OK) / float64(overloadRequests)
	arm.Rate500 = float64(arm.Err500) / float64(overloadRequests)
	arm.P50OkMs, _, _ = latencyStats(results)
	if fails > 0 {
		arm.MeanFailMs = failSum / float64(fails) * 1e3
	}
	shutdownServer(s, fmt.Sprintf("overload bench (threshold %g)", threshold))
	return arm
}

// runBrownoutArm drives a deep-queue overload (concurrency past the
// single team, tiny admission queue) with one brownout setting. The
// client retries 429s, so availability holds; the brownout payoff is
// latency and throughput from shedding ABFT and batching when the queue
// is deep.
func runBrownoutArm(at float64, bodies [][]byte) BrownoutArmReport {
	s, err := server.New(server.Config{
		NProcs:         4,
		Teams:          1,
		SmallMNK:       1,
		QueueCap:       6,
		ABFT:           true,
		BrownoutAt:     at,
		DefaultTimeout: 60 * time.Second,
	})
	if err != nil {
		log.Fatalf("brownout bench (at %g): %v", at, err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// driveArm has no 429 retry, so reuse the main driver's issue() loop
	// via a minimal pick over pre-encoded bodies.
	items := make([]workItem, len(bodies))
	for i, b := range bodies {
		items[i] = workItem{body: b, wire: "json"}
	}
	pick := func(i int) workItem { return items[i%len(items)] }
	results, wall := drive(ts.URL, pick, brownoutRequests, brownoutConc, false, 0, 1000)

	arm := BrownoutArmReport{BrownoutAt: at}
	var lats []float64
	for i, r := range results {
		if r.err != nil {
			log.Fatalf("brownout bench (at %g) request %d: %v", at, i, r.err)
		}
		arm.OK++
		lats = append(lats, r.latency)
	}
	sort.Float64s(lats)
	arm.P50Ms = percentile(lats, 0.50) * 1e3
	arm.P99Ms = percentile(lats, 0.99) * 1e3
	if wall > 0 {
		arm.ThroughputRPS = float64(arm.OK) / wall
	}
	arm.BrownoutRequests = s.Metrics().Recovery.BrownoutRequests
	shutdownServer(s, fmt.Sprintf("brownout bench (at %g)", at))
	return arm
}

// runBenchOverload sweeps the breaker and brownout defaults and records
// the measured tradeoffs; EXPERIMENTS.md carries the narrative and the
// chosen defaults.
func runBenchOverload(out string, seed uint64) {
	mkBodies := func(dim int, base uint64, n int) [][]byte {
		bodies := make([][]byte, n)
		for v := range bodies {
			a := mat.Random(dim, dim, base+uint64(2*v))
			b := mat.Random(dim, dim, base+uint64(2*v)+1)
			req := server.MultiplyRequest{
				ID:    fmt.Sprintf("bench-overload-%d", v),
				ARows: dim, ACols: dim, A: a.Data,
				BRows: dim, BCols: dim, B: b.Data,
			}
			body, err := json.Marshal(req)
			if err != nil {
				log.Fatal(err)
			}
			bodies[v] = body
		}
		return bodies
	}

	rep := OverloadBenchReport{
		BreakerShape:     shape{overloadDim, overloadDim, overloadDim}.String(),
		BreakerRequests:  overloadRequests,
		BadBlockRate:     0.35,
		BrownoutShape:    shape{brownoutDim, brownoutDim, brownoutDim}.String(),
		BrownoutRequests: brownoutRequests,
	}

	breakerBodies := mkBodies(overloadDim, seed+700, 4)
	for _, cfg := range []struct {
		threshold float64
		window    int
	}{{0, 0}, {0.5, 20}, {0.3, 20}, {0.15, 8}} {
		arm := runBreakerArm(cfg.threshold, cfg.window, seed, breakerBodies)
		rep.Breaker = append(rep.Breaker, arm)
		fmt.Printf("breaker: threshold %.2f window %2d -> availability %.2f, 500-rate %.2f, 503 sheds %2d, mean fail %.1f ms\n",
			arm.Threshold, arm.Window, arm.Availability, arm.Rate500, arm.Shed503, arm.MeanFailMs)
	}

	brownoutBodies := mkBodies(brownoutDim, seed+800, 4)
	for _, at := range []float64{-1, 0.9, 0.5} {
		arm := runBrownoutArm(at, brownoutBodies)
		rep.Brownout = append(rep.Brownout, arm)
		fmt.Printf("brownout: at %5.2f -> %.1f req/s, p50 %.1f ms, p99 %.1f ms, %d degraded\n",
			arm.BrownoutAt, arm.ThroughputRPS, arm.P50Ms, arm.P99Ms, arm.BrownoutRequests)
	}

	writeSection(out, "overload", &rep)
}
