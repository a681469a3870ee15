// Command perfbench is the repository's benchmark: it drives POST
// /v1/multiply on srumma-serve, running in its own OS process, from one
// client process holding at most two connections, and checks every
// product it gets back.
//
//	perfbench -serve-bin srumma-serve -workload serve-json-cache -seed 1 -seconds 45 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run; with
// -trace 1 it runs the workload untraced and then traced (half of -seconds
// each) and reports the per-layer metrics. -workload all runs every
// workload both ways. The metric names and units are read from
// BENCHMARK.json; perfbench/run.sh builds both binaries and runs this.
// The last line of standard output is the JSON result; the command exits
// non-zero on any wrong product.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"srumma/internal/mat"
)

// setupRepeats is how many times a -trace 0 run launches and warms the
// server; setup_s is the median.
const setupRepeats = 5

// measuredServers is how many of those servers a -trace 0 run measures.
const measuredServers = 3

// specFile is the benchmark definition, at the root of the checkout: the
// metric names and units each trace mode reports.
const specFile = "BENCHMARK.json"

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	serveBin string
	tmpdir   string
	commit   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.serveBin, "serve-bin", "", "srumma-serve binary")
	flag.StringVar(&o.tmpdir, "tmpdir", "", "directory for the cluster workers' run directories")
	flag.StringVar(&o.commit, "commit", "unknown", "commit of the code under test")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		code = 1
	}
	stop()
	os.Exit(code)
}

// run returns the exit code: 0, or 1 when a product was wrong.
func run(ctx context.Context, o options) (int, error) {
	sp, err := loadSpec(specFile)
	if err != nil {
		return 0, err
	}
	if o.serveBin == "" || o.seconds < 2 || (o.trace != 0 && o.trace != 1) {
		return 0, errors.New("need -serve-bin, -seconds >= 2 and -trace 0 or 1")
	}
	if o.workload != "all" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return 0, fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := runOne(ctx, o, sp, w, o.trace)
		if err != nil {
			return 0, err
		}
		return res.print()
	}
	// Every workload, untraced then traced; the last line sums them up.
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		for _, tr := range []int{0, 1} {
			res, err := runOne(ctx, o, sp, w, tr)
			if err != nil {
				return 0, err
			}
			if _, err := res.print(); err != nil {
				return 0, err
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, v := range res.Metrics {
				total.Metrics[w.name+"/"+k] = v
			}
		}
	}
	return total.print()
}

// runOne builds one workload's inputs, runs it in one trace mode and
// assembles the result.
func runOne(ctx context.Context, o options, sp *spec, w workload, trace int) (*result, error) {
	t0 := time.Now()
	p, err := w.build(o.seed)
	if err != nil {
		return nil, err
	}
	r := &runner{ctx: ctx, o: o, w: w, p: p, hc: newHTTPClient()}
	defer r.hc.CloseIdleConnections()
	res := &result{spec: sp, detail: detail{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: trace,
		Host:       hostInfo(o.commit),
		ServeArgs:  w.serveArgs,
		Pools:      p.pools,
		Requests:   len(p.items),
		InputsS:    time.Since(t0).Seconds(),
		ClockTolMs: clockTolMs,
	}}
	var values map[string]float64
	if trace == 0 {
		values, err = r.untraced(res)
	} else {
		values, err = r.traced(res)
	}
	if err != nil {
		return nil, err
	}
	if err := res.fill(values, trace); err != nil {
		return nil, err
	}
	return res, nil
}

// runner runs one workload against fresh servers.
type runner struct {
	ctx context.Context
	o   options
	w   workload
	p   *plan
	hc  *http.Client
}

// setup launches a server, waits for /healthz and sends the warm-up
// requests, returning the server and the seconds that took.
func (r *runner) setup(traced bool) (*serverProc, float64, error) {
	args := r.w.serveArgs
	if traced {
		args = append(append([]string(nil), args...), "-trace-events", fmt.Sprint(traceEvents))
	}
	t0 := time.Now()
	srv, err := startServer(r.o.serveBin, r.o.tmpdir, args)
	if err != nil {
		return nil, 0, err
	}
	if err := srv.waitHealthy(r.hc, 60*time.Second); err != nil {
		return nil, 0, errors.Join(err, srv.stop())
	}
	if err := warm(r.ctx, r.hc, srv.base, r.p); err != nil {
		return nil, 0, errors.Join(err, srv.stop())
	}
	return srv, time.Since(t0).Seconds(), nil
}

// measure runs the closed loop for d against srv, reading /metrics (and,
// when traced, /debug/trace) on both sides of the window.
func (r *runner) measure(srv *serverProc, d time.Duration, traced bool) (*phase, error) {
	ph := &phase{}
	marker := 0.0
	if traced {
		var before []traceEvent
		if err := getJSON(r.ctx, r.hc, srv.base+"/debug/trace", &before); err != nil {
			return nil, err
		}
		marker = traceEnd(before)
	}
	if err := getJSON(r.ctx, r.hc, srv.base+"/metrics", &ph.before); err != nil {
		return nil, err
	}
	ph.samples, ph.wall = drive(r.ctx, r.hc, srv.base, r.p, d)
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	if err := getJSON(r.ctx, r.hc, srv.base+"/metrics", &ph.after); err != nil {
		return nil, err
	}
	if traced {
		var events []traceEvent
		if err := getJSON(r.ctx, r.hc, srv.base+"/debug/trace", &events); err != nil {
			return nil, err
		}
		var err error
		if ph.spans, err = newSpanSet(events, marker); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// untraced sets the server up setupRepeats times. Each of the last
// measuredServers servers is measured for an equal share of the run, so
// the result pools servers that each settled differently at start-up;
// the pooled samples keep each server's completion order. It returns the
// end-to-end metrics.
func (r *runner) untraced(res *result) (map[string]float64, error) {
	var setups, rss []float64
	var pooled []sample
	share := time.Duration(r.o.seconds) * time.Second / measuredServers
	for i := range setupRepeats {
		srv, secs, err := r.setup(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if i >= setupRepeats-measuredServers {
			var ph *phase
			ph, err = r.measure(srv, share, false)
			var mb float64
			if err == nil {
				mb, err = srv.peakRSSMB()
			}
			if err == nil {
				err = getJSON(r.ctx, r.hc, srv.base+"/v1/info", &res.detail.ServerInfo)
			}
			if err == nil {
				pooled = append(pooled, ph.samples...)
				rss = append(rss, mb)
			}
		}
		if err = errors.Join(err, srv.stop()); err != nil {
			return nil, err
		}
	}
	res.addSamples(pooled)
	res.detail.SetupsS = setups
	values, counts := endToEnd(pooled, setups, median(rss))
	res.detail.SampleCount = counts
	return values, nil
}

// traced runs the workload untraced and then traced, half of the run
// each, and returns the per-layer metrics.
func (r *runner) traced(res *result) (map[string]float64, error) {
	half := time.Duration(r.o.seconds) * time.Second / 2
	var phases [2]*phase
	for i, tr := range []bool{false, true} {
		srv, _, err := r.setup(tr)
		if err != nil {
			return nil, err
		}
		ph, err := r.measure(srv, half, tr)
		if err == nil && tr {
			err = getJSON(r.ctx, r.hc, srv.base+"/v1/info", &res.detail.ServerInfo)
		}
		if err = errors.Join(err, srv.stop()); err != nil {
			return nil, err
		}
		res.addSamples(ph.samples)
		phases[i] = ph
	}
	comm, err := libraryBytes(phases[1].samples)
	if err != nil {
		return nil, err
	}
	res.detail.EngineDispatches = phases[1].spans.engine().dispatches
	return perLayer(phases[1], phases[0], comm), nil
}

// hostInfo describes the machine and build the numbers were taken on.
func hostInfo(commit string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     mat.KernelName(),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	}
}

// spec is the part of BENCHMARK.json the program needs: which metrics
// each trace mode reports, and their units.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range sp.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			return nil, fmt.Errorf("%s names workload %q, which perfbench does not define", path, w.Name)
		}
	}
	return &sp, nil
}

// result is one run's outcome: the contract line plus a detail record.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	spec   *spec
	detail detail
	errs   []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is everything a reader needs to interpret or reproduce a result.
type detail struct {
	Workload         string         `json:"workload"`
	Seed             uint64         `json:"seed"`
	Seconds          int            `json:"seconds"`
	Trace            int            `json:"trace"`
	Host             map[string]any `json:"host"`
	ServeArgs        []string       `json:"serve_args"`
	ServerInfo       map[string]any `json:"server_info"`
	Pools            map[string]int `json:"pools"`
	Requests         int            `json:"distinct_requests"`
	InputsS          float64        `json:"inputs_s"`
	SetupsS          []float64      `json:"setups_s,omitempty"`
	ClockTolMs       float64        `json:"clock_tolerance_ms"`
	SampleCount      map[string]int `json:"sample_count,omitempty"`
	EngineDispatches int            `json:"engine_dispatches_traced,omitempty"`
	Routes           map[string]int `json:"routes"`
}

// addSamples counts requests into the result.
func (res *result) addSamples(ss []sample) {
	if res.detail.Routes == nil {
		res.detail.Routes = map[string]int{}
	}
	for _, s := range ss {
		res.Attempted++
		if s.ok() {
			res.detail.Routes[s.route]++
			continue
		}
		res.Failed++
		if s.wrong {
			res.errs = append(res.errs, s.err.Error())
		}
	}
}

// fill attaches units to the computed values; every metric the spec
// names for this trace mode must be present, and no other.
func (res *result) fill(values map[string]float64, trace int) error {
	want := res.spec.EndToEnd
	if trace == 1 {
		want = res.spec.PerLayer
	}
	res.Metrics = map[string]metricValue{}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared but not computed", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(values, m.Name)
	}
	if len(values) > 0 {
		return fmt.Errorf("computed metrics not declared in the spec: %v", keys(values))
	}
	res.Correct = len(res.errs) == 0
	return nil
}

// print writes the human-readable report and then, as the last line, the
// JSON result. It returns the exit code.
func (res *result) print() (int, error) {
	if res.detail.Workload != "" {
		d, err := json.Marshal(res.detail)
		if err != nil {
			return 0, err
		}
		fmt.Printf("# %s trace=%d seed=%d: %d attempted, %d failed\n# detail %s\n",
			res.detail.Workload, res.detail.Trace, res.detail.Seed, res.Attempted, res.Failed, d)
		for _, name := range keys(res.Metrics) {
			mv := res.Metrics[name]
			line := fmt.Sprintf("#   %-34s %14.6g %s", name, mv.Value, mv.Unit)
			if n, ok := res.detail.SampleCount[name]; ok {
				segs := max(n/segmentSize, 1)
				line += fmt.Sprintf("  (n=%d in %d segments; each supports up to p%g)", n, segs, highestPercentile(n/segs))
			}
			fmt.Println(line)
		}
		for _, e := range res.errs {
			fmt.Println("# WRONG:", e)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
