package core

// The executor under a rank-health layer. With every owner healthy it must
// issue exactly the planned fetch sequence and produce bit-identical
// products; with slow owners or a degraded rank it reorders or stops
// looking ahead, and the product must still be right, with beta applied
// once per C region.

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"srumma/internal/armci"
	"srumma/internal/driver"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// fakeHealth satisfies rankHealth with a fixed report.
type fakeHealth struct {
	rt.Ctx
	slow     map[int]bool
	degraded bool
}

func (f *fakeHealth) Unwrap() rt.Ctx       { return f.Ctx }
func (f *fakeHealth) IsSlow(rank int) bool { return f.slow[rank] }
func (f *fakeHealth) Degraded() bool       { return f.degraded }

// gemmCall is one recorded Gemm: the C view it wrote and the beta it used.
type gemmCall struct {
	off, rows, cols int
	beta            float64
	gets            int // gets the rank had issued when the gemm ran
}

// execCtx records every NbGetSub region and Gemm a rank issues, and closes
// cancel once stopAfter gemms have run — a crash after that many tasks.
type execCtx struct {
	rt.Ctx
	ga        rt.Global
	fetches   []FetchRegion
	gemms     []gemmCall
	stopAfter int
	cancel    chan struct{}
}

func (x *execCtx) Unwrap() rt.Ctx { return x.Ctx }

func (x *execCtx) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	m := MatB
	if g == x.ga {
		m = MatA
	}
	x.fetches = append(x.fetches, FetchRegion{Matrix: m, Owner: rank, Off: off, LD: ld, Rows: rows, Cols: cols})
	return x.Ctx.NbGetSub(g, rank, off, ld, rows, cols, dst, dstOff)
}

func (x *execCtx) Gemm(alpha float64, a, b rt.Mat, beta float64, c rt.Mat) {
	x.Ctx.Gemm(alpha, a, b, beta, c)
	x.gemms = append(x.gemms, gemmCall{c.Off, c.Rows, c.Cols, beta, len(x.fetches)})
	if len(x.gemms) == x.stopAfter {
		close(x.cancel)
	}
}

// execJob is one executor run on the real engine: C = alpha op(A) op(B) +
// beta C0, every rank optionally wrapped in a fakeHealth. With stopAfter
// set, rank r's first attempt stops after stopAfter[r] tasks and a second
// attempt resumes from the shared ledger.
type execJob struct {
	p, q, ppn   int
	d           Dims
	opts        Options
	alpha, beta float64
	health      bool
	slow        map[int]bool
	degraded    bool
	stopAfter   []int
	tol         float64 // max abs error vs the serial reference; 0 means 1e-10*K
}

type execResult struct {
	c, want *mat.Matrix
	fetches [][]FetchRegion // per rank, every attempt
	gemms   [][]gemmCall    // per rank, every attempt
	steals  int64
}

func (j execJob) run(t testing.TB) execResult {
	t.Helper()
	g, err := grid.New(j.p, j.q)
	if err != nil {
		t.Fatal(err)
	}
	da, db, dc := Dists(g, j.d, j.opts.Case)
	aGlob := mat.Random(da.Rows, da.Cols, 11)
	bGlob := mat.Random(db.Rows, db.Cols, 22)
	c0 := mat.Random(dc.Rows, dc.Cols, 33)
	n := g.Size()
	res := execResult{fetches: make([][]FetchRegion, n), gemms: make([][]gemmCall, n)}
	opts := j.opts
	if j.stopAfter != nil {
		opts.Ledger = NewJobLedger(n)
	}
	co := driver.NewCollect(n)
	stats, err := armci.Run(rt.Topology{NProcs: n, ProcsPerNode: j.ppn}, func(raw rt.Ctx) {
		x := &execCtx{Ctx: raw, stopAfter: -1, cancel: make(chan struct{})}
		var c rt.Ctx = x
		if j.health {
			c = &fakeHealth{Ctx: x, slow: j.slow, degraded: j.degraded}
		}
		ga := driver.AllocBlock(c, da)
		gb := driver.AllocBlock(c, db)
		gc := driver.AllocBlock(c, dc)
		x.ga = ga
		driver.LoadBlock(c, da, ga, aGlob)
		driver.LoadBlock(c, db, gb, bGlob)
		driver.LoadBlock(c, dc, gc, c0)
		x.fetches, x.gemms = nil, nil
		if j.stopAfter != nil {
			x.stopAfter = j.stopAfter[c.Rank()]
			if x.stopAfter == 0 {
				close(x.cancel)
			}
			first := opts
			first.Cancel = x.cancel
			if err := MultiplyEx(c, g, j.d, first, j.alpha, j.beta, ga, gb, gc); err != nil && !errors.Is(err, ErrCancelled) {
				panic(err)
			}
		}
		if err := MultiplyEx(c, g, j.d, opts, j.alpha, j.beta, ga, gb, gc); err != nil {
			panic(err)
		}
		res.fetches[c.Rank()], res.gemms[c.Rank()] = x.fetches, x.gemms
		co.Deposit(c, driver.StoreBlock(c, dc, gc))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		res.steals += st.StragglerSteals
	}
	if res.c, err = dc.Gather(co.Blocks); err != nil {
		t.Fatal(err)
	}
	res.want = c0.Clone()
	if err := mat.GemmNaive(j.opts.Case.TransA(), j.opts.Case.TransB(), j.alpha, aGlob, bGlob, j.beta, res.want); err != nil {
		t.Fatal(err)
	}
	return res
}

// check fails t unless the product matches the serial reference
// mat.GemmNaive within tolerance and every C region's first gemm, and only
// that one, applied the caller's beta.
func (r execResult) check(t testing.TB, j execJob) {
	t.Helper()
	tol := j.tol
	if tol == 0 {
		tol = 1e-10 * float64(j.d.K)
	}
	if diff := mat.MaxAbsDiff(r.c, r.want); !(diff <= tol) {
		t.Errorf("%+v: max diff %g vs serial dgemm (tol %g)", j, diff, tol)
	}
	if j.beta == 1 {
		return
	}
	for rank, calls := range r.gemms {
		seen := map[[3]int]bool{}
		for i, gc := range calls {
			view := [3]int{gc.off, gc.rows, gc.cols}
			if first := !seen[view]; first != (gc.beta == j.beta) {
				t.Fatalf("%+v: rank %d gemm %d into view %v used beta %v (first=%v)", j, rank, i, view, gc.beta, first)
			}
			seen[view] = true
		}
	}
}

// sameBits fails t unless a and b are Float64bits-identical.
func sameBits(t testing.TB, what string, a, b *mat.Matrix) {
	t.Helper()
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: C[%d] = %v vs %v, want bit-identical", what, i, a.Data[i], b.Data[i])
		}
	}
}

// checkDynamic runs j under the health wrapper and checks the product;
// with no slow owner it must also be bit-identical to a plain run.
func checkDynamic(t *testing.T, j execJob) execResult {
	t.Helper()
	j.health = true
	got := j.run(t)
	got.check(t, j)
	if len(j.slow) == 0 {
		j.health = false
		sameBits(t, "healthy vs no health layer", got.c, j.run(t).c)
	}
	return got
}

// TestExecutorFetchSequence pins the healthy schedule: every rank's gets,
// per matrix in issue order, are exactly RankFetches, with or without an
// always-healthy health layer, and the products are bit-identical.
func TestExecutorFetchSequence(t *testing.T) {
	d := Dims{M: 30, N: 30, K: 30}
	for _, shape := range [][2]int{{2, 3}, {3, 2}} {
		p, q := shape[0], shape[1]
		g, err := grid.New(p, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, ppn := range []int{1, 2} {
			topo := rt.Topology{NProcs: p * q, ProcsPerNode: ppn}
			for _, cs := range Cases {
				for _, maxK := range []int{0, 5} {
					j := execJob{p: p, q: q, ppn: ppn, d: d, opts: Options{Case: cs, MaxTaskK: maxK}, alpha: 1}
					plain := j.run(t)
					j.health = true
					healthy := j.run(t)
					for me := 0; me < p*q; me++ {
						want := RankFetches(topo, me, g, d, j.opts)
						for _, r := range []execResult{plain, healthy} {
							var got []FetchRegion
							for _, m := range []int{MatA, MatB} {
								for _, f := range r.fetches[me] {
									if f.Matrix == m {
										got = append(got, f)
									}
								}
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%dx%d ppn=%d %v MaxTaskK=%d rank %d: %d gets, RankFetches plans %d:\n got %v\nwant %v",
									p, q, ppn, cs, maxK, me, len(got), len(want), got, want)
							}
						}
					}
					sameBits(t, "healthy vs no health layer", healthy.c, plain.c)
				}
			}
		}
	}
}

func TestResilientExecAllCases(t *testing.T) {
	for _, cs := range Cases {
		t.Run(cs.String(), func(t *testing.T) {
			checkDynamic(t, execJob{p: 2, q: 2, ppn: 2, d: Dims{M: 24, N: 24, K: 24}, opts: Options{Case: cs}, alpha: 1})
			// Uneven rectangular grid and dims: the k-piece intersection
			// machinery.
			checkDynamic(t, execJob{p: 2, q: 3, ppn: 2, d: Dims{M: 20, N: 25, K: 30}, opts: Options{Case: cs}, alpha: 1})
		})
	}
}

func TestResilientExecSlowOwners(t *testing.T) {
	// Flagging owners as slow forces the steal path: tasks run out of
	// plan order, so this exercises the touched-set beta tracking.
	var steals int64
	for _, cs := range Cases {
		r := checkDynamic(t, execJob{p: 3, q: 2, ppn: 2, d: Dims{M: 21, N: 20, K: 19},
			opts: Options{Case: cs, MaxTaskK: 5}, alpha: 1, slow: map[int]bool{1: true, 4: true}})
		steals += r.steals
	}
	if steals == 0 {
		t.Error("no task was moved ahead of a slow owner's")
	}
	// Every owner slow: nothing to steal, so the planned order runs
	// without spinning.
	all := map[int]bool{0: true, 1: true, 2: true, 3: true}
	if r := checkDynamic(t, execJob{p: 2, q: 2, ppn: 2, d: Dims{M: 16, N: 16, K: 16}, alpha: 1, slow: all}); r.steals != 0 {
		t.Errorf("all owners slow: %d steals, want 0", r.steals)
	}
}

func TestResilientExecDegraded(t *testing.T) {
	// Degraded: no look-ahead. The order is unchanged, so the product is
	// bit-identical to the pipelined run, and each task's gemm runs with
	// exactly the gets it and the tasks before it need in flight.
	jobs := []execJob{{p: 2, q: 3, ppn: 2, d: Dims{M: 20, N: 25, K: 30}, opts: Options{Case: TT, MaxTaskK: 7}}}
	for _, cs := range Cases {
		jobs = append(jobs, execJob{p: 2, q: 2, ppn: 2, d: Dims{M: 18, N: 17, K: 16}, opts: Options{Case: cs}})
	}
	for _, j := range jobs {
		j.alpha, j.degraded = 1, true
		r := checkDynamic(t, j)
		g, _ := grid.New(j.p, j.q)
		topo := rt.Topology{NProcs: j.p * j.q, ProcsPerNode: j.ppn}
		for me, calls := range r.gemms {
			tasks := Plan(topo, me, g, j.d, j.opts)
			sa := buildSchedule(tasks, 2, aRegion, func(t *Task) bool { return t.ADirect })
			sb := buildSchedule(tasks, 2, bRegion, func(t *Task) bool { return t.BDirect })
			for i, gc := range calls {
				if want := sa.need[i] + sb.need[i] + 2; gc.gets != want {
					t.Fatalf("%v rank %d task %d: %d gets in flight, want %d (no look-ahead)", j.opts.Case, me, i, gc.gets, want)
				}
			}
		}
	}
}

func TestResilientExecSingleBuffer(t *testing.T) {
	// The caller's blocking mode and the health-driven one must agree.
	d := Dims{M: 16, N: 16, K: 16}
	checkDynamic(t, execJob{p: 2, q: 2, ppn: 2, d: d, opts: Options{SingleBuffer: true}, alpha: 1})
	checkDynamic(t, execJob{p: 2, q: 2, ppn: 2, d: d, opts: Options{SingleBuffer: true}, alpha: 1,
		slow: map[int]bool{2: true}, degraded: true})
}

func TestResilientExecBeta(t *testing.T) {
	// alpha=2, beta=-1 with reordering: every C region must apply the
	// caller's beta exactly once, whatever order its tasks ran in.
	checkDynamic(t, execJob{p: 2, q: 2, ppn: 2, d: Dims{M: 16, N: 16, K: 16}, opts: Options{MaxTaskK: 4},
		alpha: 2, beta: -1, slow: map[int]bool{1: true}})
}

// TestStealHealthy: tasks fetching from healthy owners move ahead of the
// slow ones, each group in order, with the original indexes alongside; the
// count, with or without the move, is the tasks that moved past a slow one.
func TestStealHealthy(t *testing.T) {
	// The last task reads owner 1's block in place, so it does not wait
	// on the straggler.
	tasks := makeTasks([]int{1, 2, 1, 3, 2, 1}, []bool{false, false, false, false, false, true})
	for i := range tasks {
		tasks[i].BDirect, tasks[i].KIdx = true, i
	}
	orig := []int{10, 11, 12, 13, 14, 15}
	h := &fakeHealth{slow: map[int]bool{1: true}}
	if n := stealHealthy(h, tasks, nil); n != 4 {
		t.Fatalf("count = %d, want 4", n)
	}
	if n := stealHealthy(h, tasks, orig); n != 4 {
		t.Fatalf("moved = %d, want 4", n)
	}
	if want := []int{11, 13, 14, 15, 10, 12}; !reflect.DeepEqual(orig, want) {
		t.Fatalf("orig after steal %v, want %v", orig, want)
	}
	for i, o := range orig {
		if tasks[i].KIdx != o-10 {
			t.Fatalf("task %d (was %d) moved apart from its original index %d", i, tasks[i].KIdx, o)
		}
	}
	if n := stealHealthy(h, tasks, nil); n != 0 {
		t.Fatalf("count after reorder = %d, want 0", n)
	}
}

// TestExecBetaOncePerRegion: in plan order, reordered around a straggler,
// degraded, and resumed after a mid-run stop, the first gemm into each C
// region, and only that one, applies the caller's beta.
func TestExecBetaOncePerRegion(t *testing.T) {
	base := execJob{p: 3, q: 2, ppn: 2, d: Dims{M: 18, N: 14, K: 22}, alpha: 1, beta: 0.5}
	for _, cs := range Cases {
		for _, maxK := range []int{0, 4} {
			j := base
			j.opts = Options{Case: cs, MaxTaskK: maxK}
			j.run(t).check(t, j)
			j.health, j.slow = true, map[int]bool{1: true, 4: true}
			j.run(t).check(t, j)
			j.slow, j.degraded = nil, true
			j.run(t).check(t, j)
			j.health, j.degraded = false, false
			j.stopAfter = []int{0, 1, 2, 3, 5, 100}
			j.run(t).check(t, j)
		}
	}
}

// TestResumeFilterSeedsTouched: with no ledger, or a ledger with nothing
// done, every task stays pending in plan order and no region's beta is
// spent; with marks, exactly the marked tasks drop out and their regions
// are touched.
func TestResumeFilterSeedsTouched(t *testing.T) {
	g, _ := grid.New(2, 2)
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	d := Dims{M: 16, N: 16, K: 16}
	opts := Options{Case: TN, MaxTaskK: 3}
	plan := Plan(topo, 1, g, d, opts)
	empty := NewJobLedger(4).Rank(1, len(plan))
	for _, lg := range []*Ledger{nil, empty} {
		pending, orig, touched := resume(Plan(topo, 1, g, d, opts), lg)
		if !reflect.DeepEqual(pending, plan) || len(orig) != len(plan) || len(touched) != 0 {
			t.Fatalf("fresh resume: %d pending of %d, %d touched", len(pending), len(plan), len(touched))
		}
		for i, o := range orig {
			if o != i {
				t.Fatalf("fresh resume: orig[%d] = %d", i, o)
			}
		}
	}
	lg := NewJobLedger(4).Rank(1, len(plan))
	lg.Mark(0)
	lg.Mark(3)
	pending, orig, touched := resume(Plan(topo, 1, g, d, opts), lg)
	if len(pending) != len(plan)-2 || orig[0] != 1 || orig[2] != 4 {
		t.Fatalf("resume after marks 0,3: %d pending, orig %v", len(pending), orig)
	}
	want := Touched{}
	for _, i := range []int{0, 3} {
		tk := plan[i]
		want[cRegion{tk.CI, tk.CJ, tk.CR, tk.CC}] = true
	}
	if !reflect.DeepEqual(touched, want) {
		t.Fatalf("touched %v, want %v", touched, want)
	}
}

// FuzzExecutor drives the executor over random grids, shapes, cases, task
// splits, alpha and beta, a resumed second attempt after per-rank early
// stops, slow owners and the degraded flag. Every product must match
// serial mat.GemmNaive with beta applied once per region; with no slow
// owner it must also be bit-identical to a run without the health layer.
// The tolerance scales with alpha and beta, which the fuzzer draws up to
// 1e6 in magnitude.
func FuzzExecutor(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(1), uint8(29), uint8(29), uint8(29), uint8(3), uint8(0), 1.0, 0.0, uint64(0), uint16(0), false)
	f.Add(uint8(2), uint8(1), uint8(1), uint8(20), uint8(19), uint8(18), uint8(1), uint8(5), 2.0, -1.0, uint64(7), uint16(0x12), false)
	f.Add(uint8(1), uint8(1), uint8(0), uint8(15), uint8(15), uint8(15), uint8(0), uint8(3), 1.0, 0.5, uint64(99), uint16(0), true)
	f.Add(uint8(0), uint8(2), uint8(2), uint8(9), uint8(23), uint8(5), uint8(2), uint8(2), -0.5, 1.0, uint64(1), uint16(0xff), true)
	f.Fuzz(func(t *testing.T, p, q, ppn, m, n, k, cs, maxK uint8, alpha, beta float64, cut uint64, slowBits uint16, degraded bool) {
		j := execJob{
			p: 1 + int(p%3), q: 1 + int(q%3),
			d:     Dims{M: 1 + int(m%30), N: 1 + int(n%30), K: 1 + int(k%30)},
			opts:  Options{Case: Case(cs % 4), MaxTaskK: int(maxK % 7)},
			alpha: clampScalar(alpha), beta: clampScalar(beta),
			health: true, degraded: degraded,
		}
		j.tol = 1e-10 * (math.Abs(j.alpha)*float64(j.d.K) + math.Abs(j.beta) + 1)
		procs := j.p * j.q
		j.ppn = 1 + int(ppn)%procs
		for r := 0; r < procs; r++ {
			if slowBits&(1<<r) != 0 {
				if j.slow == nil {
					j.slow = map[int]bool{}
				}
				j.slow[r] = true
			}
		}
		if cut != 0 {
			j.stopAfter = make([]int, procs)
			for r := range j.stopAfter {
				cut = cut*6364136223846793005 + 1442695040888963407
				j.stopAfter[r] = int(cut >> 59)
			}
		}
		got := j.run(t)
		got.check(t, j)
		if len(j.slow) == 0 {
			j.health = false
			sameBits(t, "healthy vs no health layer", got.c, j.run(t).c)
		}
	})
}

// clampScalar maps a fuzzed alpha or beta to a finite value of moderate
// size, so the tolerance stays meaningful.
func clampScalar(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
		return 1
	}
	return x
}
