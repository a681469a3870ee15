// Package server is the GEMM-as-a-service layer: an HTTP front end that
// turns the SRUMMA engine from a one-shot library call into a long-running
// service. It combines
//
//   - a pool of persistent engine teams (armci.Team) whose rank goroutines,
//     kernel-thread configuration and scratch pools stay warm across
//     requests;
//   - an admission-controlled request queue with backpressure: a bounded
//     number of requests is admitted (queued + executing); overflow is
//     refused immediately with 429 and a Retry-After hint rather than
//     buffered without bound;
//   - size-based routing across execution tiers (cf. the hierarchical
//     platform argument of Quintin et al.): small products run directly on
//     the local packed parallel kernel, large ones on the distributed
//     SRUMMA engine;
//   - per-request deadlines enforced as cooperative cancellation between
//     SRUMMA tasks (core.Options.Cancel), so an expired request releases
//     its engine promptly and the team survives for the next one;
//   - observability (/metrics with streaming latency quantiles, /healthz)
//     and graceful shutdown that drains in-flight work.
package server

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"srumma/internal/armci"
	"srumma/internal/cluster"
	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/hier"
	"srumma/internal/ipcrt"
	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/rt"
	"srumma/internal/sched"
)

// Execution tiers. routeCache is the zero-compute tier: a content-addressed
// result-cache hit that skips admission queueing, the scheduler, and the
// engine entirely. routeCluster replaces routeSRUMMA when the server runs
// in cluster mode: the same large products, sharded across OS-process
// worker nodes instead of the in-process teams.
const (
	routeSmall   = "small"
	routeSRUMMA  = "srumma"
	routeCache   = "cache"
	routeCluster = "cluster"
)

// Config sizes the service. The zero value gets production-lean defaults
// from fill().
type Config struct {
	// NProcs is the SPMD rank count of each pooled team (default 4).
	NProcs int
	// ProcsPerNode groups ranks into shared-memory domains (default:
	// NProcs, one machine-wide domain).
	ProcsPerNode int
	// Teams is the number of persistent engine teams, i.e. the maximum
	// concurrently executing SRUMMA requests (default 1).
	Teams int
	// QueueCap bounds ADMITTED requests — executing plus waiting. Requests
	// beyond it are refused with 429 (default 4 * Teams).
	QueueCap int
	// SmallMNK routes products with M*N*K at or below it to the direct
	// local kernel instead of the distributed engine (default 2^21,
	// i.e. 128^3).
	SmallMNK int
	// MaxDim rejects any matrix dimension beyond it (default 4096).
	MaxDim int
	// DefaultTimeout bounds requests that do not set timeout_ms (default
	// 30s); MaxTimeout caps what a request may ask for (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// KernelThreads is the per-rank local-dgemm worker count used when a
	// request does not choose one; 0 keeps the engine default.
	KernelThreads int

	// TraceEvents, when positive, turns on always-on span tracing: every
	// engine rank, the request handlers and the scheduler record into a
	// per-lane ring buffer holding the most recent TraceEvents spans each,
	// exported as Chrome trace JSON from GET /debug/trace. Zero (the
	// default) disables tracing; the disabled path records nothing and
	// allocates nothing.
	TraceEvents int

	// SchedMode selects the dispatch path: "sched" (default) runs admitted
	// requests through the workload scheduler — batched small GEMMs,
	// priority/deadline dispatch, elastic team pool; "fifo" keeps the
	// plain first-come-first-served channel of the original serving layer.
	SchedMode string
	// MaxTeams is the elastic pool ceiling in sched mode: the pool grows
	// from Teams toward it under backlog and shrinks back when teams idle
	// (default: Teams, i.e. a fixed pool).
	MaxTeams int
	// BatchMax caps how many queued small GEMMs coalesce into one team job
	// (default 32).
	BatchMax int
	// StarveAfter bounds cross-class starvation: a request waiting this
	// long dispatches regardless of class weights (default 2s).
	StarveAfter time.Duration
	// TeamIdleAfter is how long a team above Teams may idle before the
	// elastic pool retires it (default 30s).
	TeamIdleAfter time.Duration
	// InteractiveWeight and BatchWeight are the fair-share weights of the
	// workload classes (defaults 4 and 1).
	InteractiveWeight float64
	BatchWeight       float64

	// MaxTaskK caps the contraction length of one SRUMMA task on the
	// distributed route (core.Options.MaxTaskK). Finer tasks mean smaller
	// fetch buffers AND finer recovery units: the ledger resumes at task
	// granularity, so a retried job re-executes at most one MaxTaskK panel
	// per rank beyond what completed. 0 keeps the engine default (one task
	// per K block).
	MaxTaskK int

	// ABFT verifies every SRUMMA task's produced C block against
	// Huang-Abraham operand sums (core.Options.ABFT), restoring and
	// recomputing corrupted blocks. ABFTTol is the relative tolerance
	// (0 = core default 1e-6).
	ABFT    bool
	ABFTTol float64
	// NoResume disables ledger-based resume: retried jobs restart from the
	// request inputs instead of salvaging completed blocks.
	NoResume bool
	// RetryBudget is how many times a recoverably-failed SRUMMA job (rank
	// panic, leaked-rank watchdog, exhausted ABFT recompute) is retried
	// with exponential backoff before its error surfaces (default 2;
	// negative disables retries).
	RetryBudget int
	// RetryBackoff is the base pre-retry backoff, doubling per attempt
	// (default 10ms).
	RetryBackoff time.Duration
	// BreakerThreshold enables the per-route circuit breaker when > 0: a
	// route whose failure fraction over its last BreakerWindow outcomes
	// (default 20) reaches the threshold opens, shedding requests with
	// 503 + Retry-After for BreakerCooldown (default 2s), then admitting
	// a single probe.
	BreakerThreshold float64
	BreakerWindow    int
	BreakerCooldown  time.Duration
	// BrownoutAt sheds optional work before refusing traffic: when queue
	// depth reaches this fraction of QueueCap, newly admitted requests run
	// without ABFT verification or batching (default 0.9; negative
	// disables brownout).
	BrownoutAt float64
	// TraceSample head-samples request tracing when > 1: one in every
	// TraceSample requests records handler and engine spans (requires
	// TraceEvents > 0). 0 or 1 keeps always-on tracing.
	TraceSample int

	// Hier routes distributed SRUMMA requests through the hierarchical
	// two-level path (internal/hier): ranks are carved into groups —
	// shared-memory domains by default, HierGroup consecutive ranks when
	// set — and each remote operand region is staged ONCE per group before
	// the flat executor runs, cutting inter-node volume while staying
	// bit-identical to the flat path. Applies to the in-process teams and
	// to the cluster route (where groups map onto worker nodes). The
	// ledger/salvage recovery machinery is unchanged: the hierarchical
	// path runs the same grid and task lists, so resumed retries work
	// identically.
	Hier      bool
	HierGroup int

	// Cluster shards the SRUMMA route across OS-process worker nodes: an
	// internal/cluster pool of ClusterNodes nodes (each NProcs ranks, PPN
	// ProcsPerNode) replaces the in-process distributed tier. Requires
	// SchedMode "sched". The small route, batching, cache, breaker and
	// retry machinery are unchanged; worker death folds into the retry
	// budget via the pool's typed errors and the cross-process salvage.
	Cluster bool
	// ClusterNodes is the pool size (default 2).
	ClusterNodes int
	// ClusterTransport selects each node's inter-domain RMA transport:
	// "unix" (default) or "tcp".
	ClusterTransport string
	// ClusterListen, when set, binds each node coordinator's TCP control
	// listener at a fixed "host:port" (node i gets port+i) instead of an
	// ephemeral one — the addresses external workers -join, reported per
	// node in /metrics. Implies ClusterTransport "tcp".
	ClusterListen string
	// ClusterHeartbeat is the idle-node health-check period (default 2s;
	// negative disables the background checker).
	ClusterHeartbeat time.Duration

	// CacheEntries enables the content-addressed result cache when > 0:
	// operands are SHA-256 digested at decode, identical requests are
	// served bit-identical results from a bounded LRU without touching
	// the scheduler or engine, and repeated operands are interned so
	// concurrent requests share one canonical buffer. 0 (the default)
	// disables content addressing entirely.
	CacheEntries int
	// CacheBytes bounds the cache's resident result bytes (default 256
	// MiB when the cache is enabled).
	CacheBytes int64
	// CacheTTL expires entries this long after insertion; 0 keeps entries
	// until LRU eviction.
	CacheTTL time.Duration
	// JSONOnly disables the binary wire: binary-typed requests get 415
	// and responses are always JSON (goldens, debugging).
	JSONOnly bool
	// FaultPlan, when set, layers the deterministic fault injector over
	// every engine job, drawing op indices from process-wide counters
	// (faults.Shared) so schedules advance across jobs and an injected
	// crash fires exactly once. Chaos testing only; nil in production.
	FaultPlan *faults.Plan
}

func (c Config) fill() Config {
	if c.NProcs <= 0 {
		c.NProcs = 4
	}
	if c.ProcsPerNode <= 0 {
		c.ProcsPerNode = c.NProcs
	}
	if c.Teams <= 0 {
		c.Teams = 1
	}
	if c.SchedMode == "" {
		c.SchedMode = "sched"
	}
	if c.MaxTeams < c.Teams {
		c.MaxTeams = c.Teams
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxTeams
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.StarveAfter == 0 {
		c.StarveAfter = 2 * time.Second
	}
	if c.TeamIdleAfter <= 0 {
		c.TeamIdleAfter = 30 * time.Second
	}
	if c.InteractiveWeight <= 0 {
		c.InteractiveWeight = 4
	}
	if c.BatchWeight <= 0 {
		c.BatchWeight = 1
	}
	if c.SmallMNK <= 0 {
		c.SmallMNK = 128 * 128 * 128
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 20
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.BrownoutAt == 0 {
		c.BrownoutAt = 0.9
	}
	if c.BrownoutAt < 0 {
		c.BrownoutAt = 0
	}
	if c.CacheEntries > 0 && c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.Cluster {
		if c.ClusterNodes <= 0 {
			c.ClusterNodes = 2
		}
		if c.ClusterListen != "" && c.ClusterTransport == "" {
			c.ClusterTransport = "tcp"
		}
		if c.ClusterHeartbeat == 0 {
			c.ClusterHeartbeat = 2 * time.Second
		}
		if c.ClusterHeartbeat < 0 {
			c.ClusterHeartbeat = 0
		}
	}
	return c
}

// Server is the GEMM service. Create with New, expose via Handler or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg  Config
	topo rt.Topology
	g    *grid.Grid

	// FIFO mode ("fifo"): channel-based admission and a fixed team pool.
	slots chan struct{}    // admission tokens, cap = QueueCap
	teams chan *armci.Team // engine pool, cap = Teams

	// Scheduler mode ("sched", default): the workload scheduler owns
	// admission, ordering, batching and the elastic team pool.
	sched *sched.Scheduler

	// cpool is the cluster node pool (nil unless Config.Cluster): the
	// SRUMMA route's jobs shard onto it instead of the in-process teams.
	cpool *cluster.Pool

	met      *metrics
	draining atomic.Bool
	jobs     sync.WaitGroup // in-flight multiply handlers

	// pool recycles the 64-byte-aligned operand buffers the binary wire
	// decodes into; blocks interns operands by content digest and cache is
	// the bounded LRU result store (both nil unless CacheEntries > 0).
	pool   *bufPool
	cache  *resultCache
	blocks *blockTable

	// chaos is the process-wide fault injector state (nil unless
	// Config.FaultPlan is set); breakers is the per-route circuit breaker
	// map (nil unless Config.BreakerThreshold > 0).
	chaos    *faults.Shared
	breakers map[string]*breaker
	traceSeq atomic.Uint64 // head-sampling counter (TraceSample > 1)

	// rec is the span recorder behind /debug/trace (nil when
	// Config.TraceEvents is 0): lanes 0..NProcs-1 are engine ranks,
	// lane NProcs the request handlers, lane NProcs+1 the scheduler.
	rec       *obs.Recorder
	laneNames []string

	// testBatchHook holds a func(*sched.Task) tests install to block or
	// crash dispatches deterministically; nil in production.
	testBatchHook atomic.Value

	mux *http.ServeMux

	hsMu sync.Mutex
	hs   *http.Server
}

// New builds a server and spins up its persistent engine teams.
func New(cfg Config) (*Server, error) {
	cfg = cfg.fill()
	g, err := grid.Square(cfg.NProcs)
	if err != nil {
		return nil, err
	}
	topo := rt.Topology{NProcs: cfg.NProcs, ProcsPerNode: cfg.ProcsPerNode,
		DomainSpansMachine: cfg.ProcsPerNode >= cfg.NProcs, GroupSize: cfg.HierGroup}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Hier {
		// Fail fast on a group carving the staged-band handoff cannot
		// serve, instead of erroring every request.
		if err := hier.From(topo, g).Validate(); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:  cfg,
		topo: topo,
		g:    g,
		met:  newMetrics(cfg.QueueCap),
		pool: &bufPool{},
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries, cfg.CacheBytes, cfg.CacheTTL, s.met.reg)
		s.blocks = newBlockTable(s.pool, s.met.reg)
	}
	if cfg.FaultPlan != nil {
		s.chaos = faults.NewShared(cfg.FaultPlan)
	}
	if cfg.BreakerThreshold > 0 {
		s.breakers = map[string]*breaker{
			routeSmall:  newBreaker(routeSmall, cfg.BreakerThreshold, cfg.BreakerWindow, cfg.BreakerCooldown, s.met.reg, time.Now),
			routeSRUMMA: newBreaker(routeSRUMMA, cfg.BreakerThreshold, cfg.BreakerWindow, cfg.BreakerCooldown, s.met.reg, time.Now),
		}
		if cfg.Cluster {
			s.breakers[routeCluster] = newBreaker(routeCluster, cfg.BreakerThreshold, cfg.BreakerWindow, cfg.BreakerCooldown, s.met.reg, time.Now)
		}
	}
	if cfg.TraceEvents > 0 {
		// One ring-buffered lane per engine rank plus one for the request
		// handlers and one for the scheduler; every team in the pool shares
		// the recorder, so /debug/trace is one timeline for the whole service.
		s.rec = obs.NewRecorder(cfg.NProcs+2, cfg.TraceEvents)
		s.laneNames = make([]string, cfg.NProcs+2)
		for i := 0; i < cfg.NProcs; i++ {
			s.laneNames[i] = "rank " + strconv.Itoa(i)
		}
		s.laneNames[cfg.NProcs] = "server"
		s.laneNames[cfg.NProcs+1] = "sched"
	}
	if cfg.Cluster {
		if cfg.SchedMode != "sched" {
			return nil, fmt.Errorf("server: cluster mode requires SchedMode \"sched\", got %q", cfg.SchedMode)
		}
		if !ipcrt.Available() {
			return nil, fmt.Errorf("server: cluster mode needs the multi-process engine, unavailable on this platform")
		}
		if cfg.ClusterListen != "" && cfg.ClusterTransport != "tcp" {
			return nil, fmt.Errorf("server: ClusterListen needs the tcp cluster transport, got %q", cfg.ClusterTransport)
		}
		pool, err := cluster.New(cluster.Config{
			Nodes:          cfg.ClusterNodes,
			NP:             cfg.NProcs,
			PPN:            cfg.ProcsPerNode,
			Transport:      cfg.ClusterTransport,
			ListenAddr:     cfg.ClusterListen,
			JobTimeout:     cfg.MaxTimeout,
			HeartbeatEvery: cfg.ClusterHeartbeat,
			Metrics:        s.met.reg,
			Hier:           cfg.Hier,
			HierGroup:      cfg.HierGroup,
		})
		if err != nil {
			return nil, err
		}
		s.cpool = pool
	}
	switch cfg.SchedMode {
	case "sched":
		sc, err := s.newScheduler()
		if err != nil {
			if s.cpool != nil {
				s.cpool.Close()
			}
			return nil, err
		}
		s.sched = sc
		s.met.schedSnap = sc.Snapshot
	case "fifo":
		s.slots = make(chan struct{}, cfg.QueueCap)
		s.teams = make(chan *armci.Team, cfg.Teams)
		for i := 0; i < cfg.Teams; i++ {
			tm, err := armci.NewTeam(topo)
			if err != nil {
				s.closeTeams()
				return nil, err
			}
			tm.SetRecorder(s.rec)
			s.teams <- tm
		}
	default:
		return nil, fmt.Errorf("server: unknown SchedMode %q (want sched or fifo)", cfg.SchedMode)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/multiply", s.handleMultiply)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/trace", s.handleTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/info", s.handleInfo)
	return s, nil
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns a point-in-time metrics snapshot.
func (s *Server) Metrics() MetricsSnapshot {
	snap := s.met.snapshot()
	if s.breakers != nil {
		snap.Breakers = make(map[string]BreakerStats, len(s.breakers))
		for route, b := range s.breakers {
			snap.Breakers[route] = b.snapshot()
		}
	}
	snap.Wire = s.met.wireSnapshot()
	if s.cpool != nil {
		snap.Cluster = s.cpool.Snapshot()
	}
	if s.cache != nil {
		cs := s.cache.stats()
		cs.BlockDedup = s.blocks.dedupCount()
		snap.Cache = &cs
	}
	if s.cfg.Hier {
		ht := hier.From(s.topo, s.g)
		snap.HierGroups = ht.NumGroups()
		gr, gc := ht.GroupShape(0)
		snap.HierGroupShape = fmt.Sprintf("%dx%d", gr, gc)
	}
	return snap
}

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s.mux}
	s.hsMu.Lock()
	s.hs = hs
	s.hsMu.Unlock()
	err := hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the service: new work is refused (healthz goes 503,
// multiplies get 503), in-flight requests run to completion (or their
// deadlines), the listener closes, and the engine teams are closed with
// leaked-rank detection — a team that fails to drain surfaces as a
// *WatchdogError.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var herr error
	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	if hs != nil {
		herr = hs.Shutdown(ctx) // waits for in-flight HTTP handlers
	}
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
	if s.sched != nil {
		// Scheduler mode: drain the run queue and close every pooled team
		// (leaked-rank reports surface through the scheduler's Close), then
		// shut the cluster node pool down — after the scheduler, so no
		// dispatch can race a closing pool.
		cerr := s.sched.Close(ctx)
		if s.cpool != nil {
			s.cpool.Close()
		}
		if cerr != nil {
			return cerr
		}
		return herr
	}
	if cerr := s.closeTeams(); cerr != nil {
		return cerr
	}
	return herr
}

func (s *Server) closeTeams() error {
	if s.teams == nil {
		return nil
	}
	var first error
	for {
		select {
		case tm := <-s.teams:
			if err := tm.Close(); err != nil && first == nil {
				first = err
			}
		default:
			return first
		}
	}
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		// Prometheus text exposition over the same registry snapshot the
		// JSON view is derived from: server.*, sched.*, recover.*, breaker.*.
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		obs.WritePrometheus(w, s.met.reg.Snapshot())
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleTrace dumps the span recorder as Chrome trace-event JSON (load the
// body into chrome://tracing or Perfetto). The rings hold the most recent
// Config.TraceEvents spans per lane, so the dump is a trailing window of
// service activity, not an unbounded history.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "tracing disabled: start the server with TraceEvents > 0"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeTraceNamed(w, s.rec.Events(), s.laneNames, "srumma serve")
}

// InfoResponse is the body of GET /v1/info: the deployment parameters an
// operator or load balancer needs.
type InfoResponse struct {
	NProcs        int    `json:"nprocs"`
	ProcsPerNode  int    `json:"procs_per_node"`
	Teams         int    `json:"teams"`
	QueueCap      int    `json:"queue_cap"`
	SmallMNK      int    `json:"small_mnk"`
	MaxDim        int    `json:"max_dim"`
	Kernel        string `json:"kernel"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	KernelThreads int    `json:"default_kernel_threads"`
	// Scheduler deployment parameters (sched mode).
	SchedMode string `json:"sched_mode"`
	MaxTeams  int    `json:"max_teams"`
	BatchMax  int    `json:"batch_max"`
	// Wire and cache deployment parameters: whether the dense binary wire
	// is negotiable, and the content-addressed result cache bounds (zero
	// entries = content addressing off).
	BinaryWire      bool    `json:"binary_wire"`
	CacheEntries    int     `json:"cache_entries"`
	CacheBytes      int64   `json:"cache_bytes,omitempty"`
	CacheTTLSeconds float64 `json:"cache_ttl_s,omitempty"`
	// Cluster deployment parameters: node count and inter-domain RMA
	// transport of the sharded distributed tier (zero nodes = in-process).
	ClusterNodes     int    `json:"cluster_nodes,omitempty"`
	ClusterTransport string `json:"cluster_transport,omitempty"`
	// Hierarchical routing mode: the two-level topology the planner
	// decided (group count and intra-group shape on the composite grid).
	Hier           bool   `json:"hier,omitempty"`
	HierGroups     int    `json:"hier_groups,omitempty"`
	HierGroupShape string `json:"hier_group_shape,omitempty"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	kt := s.cfg.KernelThreads
	if kt <= 0 {
		kt = armci.DefaultKernelThreads(s.cfg.NProcs)
	}
	clusterNodes, clusterTransport := 0, ""
	if s.cpool != nil {
		clusterNodes = s.cpool.Nodes()
		clusterTransport = s.cfg.ClusterTransport
		if clusterTransport == "" {
			clusterTransport = "unix"
		}
	}
	var hierGroups int
	var hierShape string
	if s.cfg.Hier {
		ht := hier.From(s.topo, s.g)
		hierGroups = ht.NumGroups()
		gr, gc := ht.GroupShape(0)
		hierShape = fmt.Sprintf("%dx%d", gr, gc)
	}
	writeJSON(w, http.StatusOK, InfoResponse{
		NProcs:        s.cfg.NProcs,
		ProcsPerNode:  s.cfg.ProcsPerNode,
		Teams:         s.cfg.Teams,
		QueueCap:      s.cfg.QueueCap,
		SmallMNK:      s.cfg.SmallMNK,
		MaxDim:        s.cfg.MaxDim,
		Kernel:        mat.KernelName(),
		GOMAXPROCS:    goruntime.GOMAXPROCS(0),
		KernelThreads: kt,
		SchedMode:     s.cfg.SchedMode,
		MaxTeams:      s.cfg.MaxTeams,
		BatchMax:      s.cfg.BatchMax,

		BinaryWire:      !s.cfg.JSONOnly,
		CacheEntries:    s.cfg.CacheEntries,
		CacheBytes:      s.cfg.CacheBytes,
		CacheTTLSeconds: s.cfg.CacheTTL.Seconds(),

		ClusterNodes:     clusterNodes,
		ClusterTransport: clusterTransport,

		Hier:           s.cfg.Hier,
		HierGroups:     hierGroups,
		HierGroupShape: hierShape,
	})
}

// retryAfter estimates how long an overflowing client should back off,
// priced from the observed service rate: the backlog ahead of the client
// divided by recent completions per second. When the rate window is empty
// (cold start, long stall) it falls back to one mean service time. The
// hint is clamped to [1s, 60s].
func (s *Server) retryAfter() int {
	depth := 0
	if s.sched != nil {
		depth = s.sched.Queued()
	} else {
		snap := s.met.snapshot()
		depth = snap.QueueDepth
	}
	secs := 0
	if rps := s.met.recentRPS(); rps > 0 {
		secs = int(math.Ceil(float64(depth+1) / rps))
	} else {
		snap := s.met.snapshot()
		secs = int(snap.LatencyMeanMs/1e3) + 1
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// reqEnv bundles one decoded request's routing state through the handler
// layers: the wire it arrived (and will answer) on, the validated shape,
// class and deadline, and — when the cache is on — its content-addressed
// identity.
type reqEnv struct {
	wr      *wireRequest
	cs      core.Case
	d       core.Dims
	cls     sched.Class
	timeout time.Duration
	route   string
	traced  bool

	respWire string // wireJSON or wireBinary, from Accept (default: mirror the request)
	gzipOut  bool   // gzip the (binary) response body

	key     cacheKey
	haveKey bool
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	t0 := time.Now()
	traced := s.sampleTrace()
	if traced {
		defer func() { s.rec.RecordWall(s.cfg.NProcs, obs.KindRequest, t0, time.Now()) }()
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server draining"})
		return
	}
	wr, werr := s.decodeRequest(w, r)
	if werr != nil {
		writeJSON(w, werr.status, ErrorResponse{Error: werr.msg})
		return
	}
	// Pooled and interned operand storage is recycled when the handler
	// leaves — after the response (which may encode straight out of it)
	// is written. release honors wr.noPool for runs that may have leaked
	// engine readers.
	defer wr.release(s)
	req := &wr.req

	cs, err := parseCase(req.Case)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{ID: req.ID, Error: err.Error()})
		return
	}
	d, err := req.dims(cs, s.cfg.MaxDim)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{ID: req.ID, Error: err.Error()})
		return
	}
	cls, err := sched.ParseClass(req.Class)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{ID: req.ID, Error: err.Error()})
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	env := &reqEnv{wr: wr, cs: cs, d: d, cls: cls, timeout: timeout, traced: traced}
	env.respWire, env.gzipOut = s.negotiateRespWire(r, wr)

	// Content addressing: digest the operands, intern them (repeated
	// operands collapse onto one canonical buffer), and probe the result
	// cache. A hit is served straight from memory — bit-identical to a
	// fresh compute — without touching admission, scheduler, or engine.
	if s.cache != nil {
		env.key = s.computeDigests(wr, cs, d)
		env.haveKey = true
		if out, dig, ok := s.cache.get(env.key); ok {
			s.serveCacheHit(w, env, t0, out, dig)
			return
		}
	}

	route := routeSRUMMA
	if d.M*d.N*d.K <= s.cfg.SmallMNK || s.cfg.NProcs == 1 {
		route = routeSmall
	}
	if route == routeSRUMMA && s.cpool != nil {
		// Cluster mode: the distributed tier runs on the node pool.
		route = routeCluster
	}
	env.route = route
	// Circuit breaker: an open route fails fast with a cooldown hint
	// instead of burning a team (and a retry budget) on a known-bad tier.
	if br := s.breakers[route]; br != nil {
		if ok, wait := br.allow(); !ok {
			ra := int(math.Ceil(wait.Seconds()))
			if ra < 1 {
				ra = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(ra))
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{ID: req.ID, Error: "circuit open: route " + route + " is shedding load", RetryAfterSeconds: ra})
			return
		}
	}

	if s.sched != nil {
		s.handleSchedMultiply(w, r, env)
		return
	}

	// FIFO admission: a bounded number of requests may be in the building.
	// Overflow is backpressure, not buffering.
	select {
	case s.slots <- struct{}{}:
	default:
		ra := s.retryAfter()
		s.met.reject()
		w.Header().Set("Retry-After", strconv.Itoa(ra))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{ID: req.ID, Error: "queue full", RetryAfterSeconds: ra})
		return
	}
	s.jobs.Add(1)
	s.met.admit()
	admitted := time.Now()
	defer func() {
		<-s.slots
		s.jobs.Done()
	}()

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	resp, out, status, eresp := s.execute(ctx, env, admitted)
	s.recordBreaker(route, status)
	if eresp != nil {
		s.writeErr(w, env, status, *eresp)
		return
	}
	s.storeResult(env, out, resp)
	s.writeOK(w, env, resp)
}

// negotiateRespWire picks the response encoding: Accept wins when it names
// a supported type, otherwise the response mirrors the request's wire.
// gzipOut additionally compresses a binary response when the client both
// sent gzip and accepts it — compression stays a client choice, never a
// surprise CPU cost.
func (s *Server) negotiateRespWire(r *http.Request, wr *wireRequest) (string, bool) {
	wire := wr.wire
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, ContentTypeBinaryResult) {
		wire = wireBinary
	} else if strings.Contains(accept, ContentTypeJSON) {
		wire = wireJSON
	}
	if s.cfg.JSONOnly {
		wire = wireJSON
	}
	gzipOut := wire == wireBinary && wr.gzipped &&
		strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
	return wire, gzipOut
}

// countingWriter counts response bytes for the per-wire traffic metrics.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeOK writes a success response on the negotiated wire and settles the
// request's traffic metrics. On the binary wire the scalar response fields
// travel as X-Srumma-* headers and the body is the bare result matrix. A
// JSON response is encoded before the header goes out, so a product with a
// non-finite element gets a 422 error instead of a 200 with no body.
func (s *Server) writeOK(w http.ResponseWriter, env *reqEnv, resp *MultiplyResponse) {
	cw := &countingWriter{w: w}
	if env.respWire == wireBinary {
		h := w.Header()
		h.Set("Content-Type", ContentTypeBinaryResult)
		setIf := func(k, v string) {
			if v != "" {
				h.Set(k, v)
			}
		}
		setIf("X-Srumma-Id", resp.ID)
		h.Set("X-Srumma-Route", resp.Route)
		h.Set("X-Srumma-Queue-Ms", strconv.FormatFloat(resp.QueueMillis, 'g', -1, 64))
		h.Set("X-Srumma-Elapsed-Ms", strconv.FormatFloat(resp.ElapsedMillis, 'g', -1, 64))
		h.Set("X-Srumma-Gflops", strconv.FormatFloat(resp.GFlops, 'g', -1, 64))
		setIf("X-Srumma-Class", resp.Class)
		if resp.Batch > 0 {
			h.Set("X-Srumma-Batch", strconv.Itoa(resp.Batch))
		}
		if resp.Cached {
			h.Set("X-Srumma-Cached", "1")
		}
		setIf("X-Srumma-Digest-A", resp.DigestA)
		setIf("X-Srumma-Digest-B", resp.DigestB)
		setIf("X-Srumma-Digest-C-In", resp.DigestCIn)
		setIf("X-Srumma-Digest", resp.Digest)
		if env.gzipOut {
			h.Set("Content-Encoding", "gzip")
		}
		w.WriteHeader(http.StatusOK)
		if env.gzipOut {
			gz := gzip.NewWriter(cw)
			encodeBinaryResponse(gz, resp.Rows, resp.Cols, resp.C)
			gz.Close()
		} else {
			encodeBinaryResponse(cw, resp.Rows, resp.Cols, resp.C)
		}
	} else {
		bp := getJSONBuf()
		body, err := appendJSONResponse(*bp, resp)
		if err != nil {
			// JSON has no text for ±Inf or NaN, so a product that
			// overflowed cannot travel on this wire; the binary wire
			// carries its IEEE bits.
			putJSONBuf(bp, body)
			s.writeErr(w, env, http.StatusUnprocessableEntity, ErrorResponse{ID: resp.ID,
				Error: "non-finite product cannot be encoded as JSON (" + err.Error() + "); request the binary wire"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		cw.Write(body)
		putJSONBuf(bp, body)
	}
	s.met.noteWire(env.wr.wire, env.wr.bytesIn, cw.n)
}

// okOutcome is the metrics outcome of a computed or cached product c: on
// the JSON wire a product holding ±Inf or NaN gets writeOK's 422, so the
// request counts as an error, not a completion.
func okOutcome(env *reqEnv, c []float64) string {
	if env.respWire == wireJSON {
		for _, v := range c {
			if v-v != 0 { // ±Inf - ±Inf and NaN - NaN are NaN
				return "error"
			}
		}
	}
	return "ok"
}

// writeErr writes an error response (always JSON, regardless of the
// request wire) and settles the request's traffic metrics.
func (s *Server) writeErr(w http.ResponseWriter, env *reqEnv, status int, eresp ErrorResponse) {
	cw := &countingWriter{w: w}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(cw).Encode(eresp)
	s.met.noteWire(env.wr.wire, env.wr.bytesIn, cw.n)
}

// serveCacheHit answers a request from the result cache: zero compute,
// zero queueing, the full digest chain attached. Admission metrics still
// see the request (route "cache") so hit traffic is visible in the same
// latency/throughput views as computed traffic.
func (s *Server) serveCacheHit(w http.ResponseWriter, env *reqEnv, t0 time.Time, out mat.Matrix, dig digest) {
	s.met.admit()
	resp := &MultiplyResponse{
		ID:      env.wr.req.ID,
		Rows:    env.d.M,
		Cols:    env.d.N,
		C:       out.Data,
		Route:   routeCache,
		Class:   env.cls.String(),
		Cached:  true,
		DigestA: hexDigest(env.wr.digA),
		DigestB: hexDigest(env.wr.digB),
		Digest:  hexDigest(dig),
	}
	if env.key.cIn != (digest{}) {
		resp.DigestCIn = hexDigest(env.wr.digC)
	}
	s.met.finish(routeCache, env.cls.String(), okOutcome(env, out.Data), time.Since(t0), 0, false)
	s.writeOK(w, env, resp)
}

// storeResult content-addresses a fresh result, stamps the response's
// digest chain, and retains the result in the cache. out is always a
// freshly allocated matrix (mat.New or engine Gather output) — never
// pooled request storage — so the cache can own its backing array.
func (s *Server) storeResult(env *reqEnv, out *mat.Matrix, resp *MultiplyResponse) {
	if !env.haveKey || out == nil {
		return
	}
	dig := digestMatrix(resp.Rows, resp.Cols, out.Data)
	resp.DigestA = hexDigest(env.wr.digA)
	resp.DigestB = hexDigest(env.wr.digB)
	if env.key.cIn != (digest{}) {
		resp.DigestCIn = hexDigest(env.wr.digC)
	}
	resp.Digest = hexDigest(dig)
	s.cache.put(env.key, *out, dig)
}

// sampleTrace decides whether this request records spans: always when
// tracing is on without sampling, one in every TraceSample otherwise.
func (s *Server) sampleTrace() bool {
	if s.rec == nil {
		return false
	}
	if s.cfg.TraceSample <= 1 {
		return true
	}
	return s.traceSeq.Add(1)%uint64(s.cfg.TraceSample) == 1
}

// recordBreaker settles one allowed request with the route's breaker:
// 200 is a success, 500 a failure; cancellations and shedding are neither.
func (s *Server) recordBreaker(route string, status int) {
	br := s.breakers[route]
	if br == nil {
		return
	}
	switch status {
	case http.StatusOK:
		br.record(true)
	case http.StatusInternalServerError:
		br.record(false)
	}
}

// handleSchedMultiply runs one validated request through the workload
// scheduler: build a task, submit (backpressure on a full run queue), wait
// for the executor — or the deadline — and translate the outcome. A SRUMMA
// job that fails recoverably (rank panic, exhausted ABFT recompute) is
// resubmitted with exponential backoff up to RetryBudget times, resuming
// from its recovery ledger.
func (s *Server) handleSchedMultiply(w http.ResponseWriter, r *http.Request, env *reqEnv) {
	req, cs, d := &env.wr.req, env.cs, env.d
	cls, timeout, route, traced := env.cls, env.timeout, env.route, env.traced
	admitted := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// The scheduling deadline (EDF key) defaults to the enforcement
	// deadline; deadline_ms lets a client ask for earlier placement
	// without shrinking its timeout.
	deadline := admitted.Add(timeout)
	if req.DeadlineMillis > 0 {
		deadline = admitted.Add(time.Duration(req.DeadlineMillis) * time.Millisecond)
	}
	flops := 2 * float64(d.M) * float64(d.N) * float64(d.K)

	// Brownout: at BrownoutAt of queue capacity, shed the optional work —
	// verification and batching — before the admission control starts
	// refusing traffic outright.
	brownout := false
	if s.cfg.BrownoutAt > 0 {
		brownout = float64(s.sched.Queued()) >= s.cfg.BrownoutAt*float64(s.cfg.QueueCap)
		if brownout {
			s.met.brownoutReqs.Inc()
		}
		s.met.brownoutG.Set(boolToInt64(brownout))
	}

	job := &schedJob{req: req, cs: cs, d: d, ctx: ctx, traced: traced}
	switch route {
	case routeSRUMMA:
		job.rec = s.newRecoverJob(s.cfg.ABFT && !brownout)
	case routeCluster:
		job.crec = s.newClusterRecover(s.cfg.ABFT && !brownout)
	}

	// Register the job BEFORE Submit: once submitted, the task can dispatch
	// (and observers can react) before this goroutine runs another line, so
	// the drain ledger must already include it.
	s.jobs.Add(1)
	defer s.jobs.Done()

	var err error
	var lastTask *sched.Task
	sawWatchdog := false
	inFlight := false
	for attempt := 0; ; attempt++ {
		task := &sched.Task{
			Class:     cls,
			Deadline:  deadline,
			Cost:      flops,
			Batchable: route == routeSmall && !brownout,
			LocKey:    locKey(cs, d),
			Cancel:    ctx.Done(),
			Payload:   job,
		}
		if serr := s.sched.Submit(task); serr != nil {
			if inFlight {
				// A retry that cannot even queue: surface the run error the
				// retry was trying to fix, not the admission refusal.
				break
			}
			if errors.Is(serr, sched.ErrClosed) {
				s.writeErr(w, env, http.StatusServiceUnavailable, ErrorResponse{ID: req.ID, Error: "server draining"})
				return
			}
			ra := s.retryAfter()
			s.met.reject()
			w.Header().Set("Retry-After", strconv.Itoa(ra))
			s.writeErr(w, env, http.StatusTooManyRequests, ErrorResponse{ID: req.ID, Error: "queue full", RetryAfterSeconds: ra})
			return
		}
		// From here the scheduler (and soon an engine) can read the operand
		// buffers; they may be recycled only after a provably-joined run.
		env.wr.noPool = true
		lastTask = task
		if !inFlight {
			s.met.admit()
			inFlight = true
		}

		select {
		case <-task.Done():
		case <-ctx.Done():
			// Deadline while queued or executing: the scheduler drops a queued
			// task when it surfaces; an executing one finishes into the void —
			// possibly still reading the operands, so wr.noPool stays set.
			s.met.finish(route, cls.String(), "cancelled", 0, 0, false)
			s.writeErr(w, env, http.StatusGatewayTimeout, ErrorResponse{ID: req.ID, Error: "deadline exceeded: " + ctx.Err().Error()})
			return
		}

		err = task.Err()
		var werr *armci.WatchdogError
		if errors.As(err, &werr) {
			sawWatchdog = true
		}
		if err == nil || (job.rec == nil && job.crec == nil) || attempt >= s.cfg.RetryBudget || !retryableRunError(err) {
			break
		}
		t0 := time.Now()
		if job.crec != nil {
			s.met.noteRetry(job.crec.resumedTasks())
		} else {
			s.met.noteRetry(job.rec.prepareRetry())
		}
		if s.rec != nil {
			s.rec.RecordWall(s.cfg.NProcs, obs.KindRecover, t0, time.Now())
		}
		if !sleepCtx(ctx, retryBackoff(s.cfg.RetryBackoff, attempt)) {
			s.met.finish(route, cls.String(), "cancelled", 0, 0, false)
			s.writeErr(w, env, http.StatusGatewayTimeout, ErrorResponse{ID: req.ID, Error: "deadline exceeded: " + ctx.Err().Error()})
			return
		}
	}
	// Every dispatch joined its ranks (no watchdog leak at the handler or
	// scheduler level): pooled operand buffers are safe to recycle.
	if !sawWatchdog && lastTask != nil && lastTask.Attempts() <= 1 {
		env.wr.noPool = false
	}

	switch {
	case err == nil:
		s.recordBreaker(route, http.StatusOK)
		total := time.Since(admitted)
		s.met.finish(route, cls.String(), okOutcome(env, job.out.Data), total, flops, false)
		elapsed := job.finished.Sub(job.started)
		resp := MultiplyResponse{
			ID:            req.ID,
			Rows:          d.M,
			Cols:          d.N,
			C:             job.out.Data,
			Route:         route,
			QueueMillis:   job.started.Sub(admitted).Seconds() * 1e3,
			ElapsedMillis: elapsed.Seconds() * 1e3,
			Class:         cls.String(),
			Batch:         job.batch,
		}
		if secs := elapsed.Seconds(); secs > 0 {
			resp.GFlops = flops / secs / 1e9
		}
		s.storeResult(env, job.out, &resp)
		s.writeOK(w, env, &resp)
	case errors.Is(err, sched.ErrCancelled), errors.Is(err, core.ErrCancelled),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.met.finish(route, cls.String(), "cancelled", 0, 0, false)
		s.writeErr(w, env, http.StatusGatewayTimeout, ErrorResponse{ID: req.ID, Error: "cancelled: " + err.Error()})
	case errors.Is(err, sched.ErrClosed):
		s.met.finish(route, cls.String(), "cancelled", 0, 0, false)
		s.writeErr(w, env, http.StatusServiceUnavailable, ErrorResponse{ID: req.ID, Error: "server draining"})
	default:
		s.recordBreaker(route, http.StatusInternalServerError)
		s.met.finish(route, cls.String(), "error", 0, 0, false)
		s.writeErr(w, env, http.StatusInternalServerError, ErrorResponse{ID: req.ID, Error: err.Error()})
	}
}

// execute routes and runs one admitted request, settling metrics exactly
// once. It returns either a success response (with the freshly allocated
// result matrix, for the cache) or an error response with its HTTP status.
func (s *Server) execute(ctx context.Context, env *reqEnv, admitted time.Time) (*MultiplyResponse, *mat.Matrix, int, *ErrorResponse) {
	req, cs, d, route, traced := &env.wr.req, env.cs, env.d, env.route, env.traced
	class := env.cls.String()
	flops := 2 * float64(d.M) * float64(d.N) * float64(d.K)

	var (
		out      *mat.Matrix
		queueed  time.Duration
		execTime time.Duration
		err      error
	)
	switch route {
	case routeSmall:
		s.met.execStart()
		queueed = time.Since(admitted)
		t0 := time.Now()
		out, err = s.runSmall(ctx, req, cs, d)
		execTime = time.Since(t0)
	default:
		var tm *armci.Team
		select {
		case tm = <-s.teams:
		case <-ctx.Done():
			s.met.finish(route, class, "cancelled", 0, 0, false)
			return nil, nil, http.StatusGatewayTimeout, &ErrorResponse{ID: req.ID, Error: "deadline exceeded while queued"}
		}
		s.met.execStart()
		queueed = time.Since(admitted)
		t0 := time.Now()
		// The engine reads the operand buffers from here; recycle only
		// after a run whose ranks provably joined (no watchdog leak).
		env.wr.noPool = true
		rj := s.newRecoverJob(s.cfg.ABFT)
		for attempt := 0; ; attempt++ {
			out, err = s.runSRUMMA(ctx, tm, req, cs, d, rj, traced)
			if err == nil || attempt >= s.cfg.RetryBudget || !retryableRunError(err) {
				break
			}
			var werr *armci.WatchdogError
			if errors.As(err, &werr) {
				// FIFO mode retries on the SAME team; a leaked-rank team is
				// suspect, so surface the error and let recycleTeam replace it.
				break
			}
			t0r := time.Now()
			s.met.noteRetry(rj.prepareRetry())
			if s.rec != nil {
				s.rec.RecordWall(s.cfg.NProcs, obs.KindRecover, t0r, time.Now())
			}
			if !sleepCtx(ctx, retryBackoff(s.cfg.RetryBackoff, attempt)) {
				break
			}
		}
		execTime = time.Since(t0)
		var werr *armci.WatchdogError
		if !errors.As(err, &werr) {
			env.wr.noPool = false
		}
		s.recycleTeam(tm, err)
	}

	switch {
	case err == nil:
		total := time.Since(admitted)
		s.met.finish(route, class, okOutcome(env, out.Data), total, flops, true)
		resp := &MultiplyResponse{
			ID:            req.ID,
			Rows:          d.M,
			Cols:          d.N,
			C:             out.Data,
			Route:         route,
			QueueMillis:   queueed.Seconds() * 1e3,
			ElapsedMillis: execTime.Seconds() * 1e3,
			Class:         class,
			Batch:         1,
		}
		if secs := execTime.Seconds(); secs > 0 {
			resp.GFlops = flops / secs / 1e9
		}
		return resp, out, http.StatusOK, nil
	case errors.Is(err, core.ErrCancelled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.met.finish(route, class, "cancelled", 0, 0, true)
		return nil, nil, http.StatusGatewayTimeout, &ErrorResponse{ID: req.ID, Error: "cancelled: " + err.Error()}
	default:
		s.met.finish(route, class, "error", 0, 0, true)
		return nil, nil, http.StatusInternalServerError, &ErrorResponse{ID: req.ID, Error: err.Error()}
	}
}

// recycleTeam returns a team to the pool, replacing it first when the run
// leaked ranks (a wedged team never accepts another job).
func (s *Server) recycleTeam(tm *armci.Team, runErr error) {
	var werr *armci.WatchdogError
	if errors.As(runErr, &werr) && len(werr.Leaked) > 0 {
		tm.Close() // returns the leak report again; already surfaced to the caller
		if fresh, err := armci.NewTeam(s.topo); err == nil {
			fresh.SetRecorder(s.rec)
			s.met.teamReplaced()
			s.teams <- fresh
			return
		}
		// Could not replace: shrink the pool rather than pool a corpse.
		s.met.teamReplaced()
		return
	}
	s.teams <- tm
}

// runSmall executes the request on the local packed parallel kernel — the
// fast tier for products too small to amortize distribution.
func (s *Server) runSmall(ctx context.Context, req *MultiplyRequest, cs core.Case, d core.Dims) (*mat.Matrix, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a := &mat.Matrix{Rows: req.ARows, Cols: req.ACols, Stride: req.ACols, Data: req.A}
	b := &mat.Matrix{Rows: req.BRows, Cols: req.BCols, Stride: req.BCols, Data: req.B}
	c := mat.New(d.M, d.N)
	if req.beta() != 0 {
		copy(c.Data, req.C)
	}
	threads := req.KernelThreads
	if threads <= 0 {
		threads = s.cfg.KernelThreads
	}
	if threads <= 0 {
		threads = goruntime.GOMAXPROCS(0)
	}
	if err := mat.GemmParallel(threads, cs.TransA(), cs.TransB(), req.alpha(), a, b, req.beta(), c); err != nil {
		return nil, err
	}
	return c, nil
}

// runSRUMMA executes the request on a persistent engine team: distribute,
// multiply under the request deadline, gather. rj (nil on the non-recovering
// paths) carries the request's recovery state across retry attempts: a rank
// that panics mid-job salvages its C segment on the unwind, and a retried
// attempt reloads the salvage and hands the completion ledger to the
// executor so only unfinished tasks re-execute. traced gates span recording
// under head-sampling.
func (s *Server) runSRUMMA(ctx context.Context, tm *armci.Team, req *MultiplyRequest, cs core.Case, d core.Dims, rj *recoverJob, traced bool) (*mat.Matrix, error) {
	a := &mat.Matrix{Rows: req.ARows, Cols: req.ACols, Stride: req.ACols, Data: req.A}
	b := &mat.Matrix{Rows: req.BRows, Cols: req.BCols, Stride: req.BCols, Data: req.B}
	var cIn *mat.Matrix
	if req.beta() != 0 {
		cIn = &mat.Matrix{Rows: d.M, Cols: d.N, Stride: d.N, Data: req.C}
	}
	cOpts := core.Options{
		Case:          cs,
		Flavor:        core.FlavorDirect,
		MaxTaskK:      s.cfg.MaxTaskK,
		KernelThreads: req.KernelThreads,
		Cancel:        ctx.Done(),
	}
	if cOpts.KernelThreads <= 0 {
		cOpts.KernelThreads = s.cfg.KernelThreads
	}
	if rj != nil {
		cOpts.Ledger = rj.ledger
		cOpts.ABFT = rj.abft
		cOpts.ABFTTol = s.cfg.ABFTTol
	}
	da, db, dc := core.Dists(s.g, d, cs)
	n := s.topo.NProcs
	errs := make([]error, n)
	co := driver.NewCollect(n)
	if s.cfg.TraceSample > 1 {
		// Head-sampling: attach the recorder only for sampled requests. Safe
		// because a team runs one job at a time.
		if traced {
			tm.SetRecorder(s.rec)
		} else {
			tm.SetRecorder(nil)
		}
	}
	stats, err := tm.Run(func(rawC rt.Ctx) {
		c := rawC
		if s.chaos != nil {
			// Chaos layering: the injector draws from process-wide op counters
			// (so fault schedules advance across jobs) and the resilience layer
			// sits on top because transport drops/corruption are invisible to
			// ABFT — a corrupted OPERAND yields a consistent-but-wrong
			// prediction, so it must be caught by transfer checksums, not sums.
			c = faults.Resilient(s.chaos.Wrap(rawC), faults.RecoveryConfig{})
		}
		rank := c.Rank()
		lr, lc := dc.LocalShape(rank)
		var gc rt.Global
		haveC := false
		if rj != nil && rj.ledger != nil {
			// Salvage hook: on panic (injected crash, real bug) copy this
			// rank's C segment out before the unwind destroys the run, then
			// re-panic so the team-level error handling still fires. Only the
			// panic path salvages — a rank returning an error (e.g. exhausted
			// ABFT recompute) holds a corrupted accumulation for an unmarked
			// task, and resuming over it would double-add.
			defer func() {
				if p := recover(); p != nil {
					if haveC {
						if data := c.ReadBuf(c.Local(gc), 0, lr*lc); data != nil {
							rj.save(rank, append([]float64(nil), data...))
						}
					}
					panic(p)
				}
			}()
		}
		// Restore the per-request kernel-thread configuration explicitly:
		// team ranks keep the previous request's setting warm, which is
		// only correct if every request states its own.
		if kt := rt.FindKernelTuner(c); kt != nil {
			kt.SetKernelThreads(cOpts.KernelThreads)
		}
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gc = driver.AllocBlock(c, dc)
		haveC = true
		driver.LoadBlock(c, da, ga, a)
		driver.LoadBlock(c, db, gb, b)
		if salv := rj.take(rank); salv != nil {
			// Resume: start from the salvaged segment of the failed attempt;
			// the ledger says which tasks it already contains.
			c.WriteBuf(c.Local(gc), 0, salv)
		} else if cIn != nil {
			driver.LoadBlock(c, dc, gc, cIn)
		}
		if s.cfg.Hier {
			// Hierarchical routing mode: same grid, same task lists, same
			// ledger/salvage semantics — only the data movement changes, so
			// the retry/resume policy above needs no adjustment.
			errs[rank] = hier.MultiplyEx(c, hier.From(s.topo, s.g), d,
				hier.Options{Options: cOpts}, req.alpha(), req.beta(), ga, gb, gc)
		} else {
			errs[rank] = core.MultiplyEx(c, s.g, d, cOpts, req.alpha(), req.beta(), ga, gb, gc)
		}
		co.Deposit(c, driver.StoreBlock(c, dc, gc))
	})
	if s.met != nil {
		var det, rec int64
		for _, st := range stats {
			if st != nil {
				det += st.ABFTDetected
				rec += st.ABFTRecomputed
			}
		}
		s.met.noteABFT(det, rec)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return grid.NewBlockDist(s.g, d.M, d.N).Gather(co.Blocks)
}
