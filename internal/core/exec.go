package core

import (
	"errors"
	"fmt"
	"time"

	"srumma/internal/grid"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// ErrCancelled is returned by Multiply when Options.Cancel fired before the
// task list completed. Detect it with errors.Is; the run's C block is only
// partially updated but the runtime, scratch pools and (on a persistent
// team) the rank goroutines are all left healthy for the next multiply.
var ErrCancelled = errors.New("core: multiply cancelled")

// cancelled polls a Cancel channel without blocking.
func cancelled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// fetchItem is one communication unit: the exact sub-block a task (or a
// run of consecutive tasks) multiplies, fetched with a strided get from the
// owner's segment.
type fetchItem struct {
	owner      int
	off, ld    int // region within the owner's block
	rows, cols int
	h          rt.Handle
}

func (f *fetchItem) elems() int { return f.rows * f.cols }

// aRegion returns the fetch region of a task's A operand within the
// owner's block.
func aRegion(t *Task) fetchItem {
	return fetchItem{
		owner: t.AOwner,
		off:   t.ASubI*t.ABlockCols + t.ASubJ,
		ld:    t.ABlockCols,
		rows:  t.ASubR,
		cols:  t.ASubC,
	}
}

func bRegion(t *Task) fetchItem {
	return fetchItem{
		owner: t.BOwner,
		off:   t.BSubI*t.BBlockCols + t.BSubJ,
		ld:    t.BBlockCols,
		rows:  t.BSubR,
		cols:  t.BSubC,
	}
}

func sameRegion(a, b fetchItem) bool {
	return a.owner == b.owner && a.off == b.off && a.ld == b.ld && a.rows == b.rows && a.cols == b.cols
}

// schedule is the per-matrix fetch plan derived from the ordered task list:
// the sequence of distinct blocks to fetch (consecutive tasks reusing a
// block share one fetch, which is the paper's buffer-reuse optimization)
// plus, per task, the fetch index it depends on (-1 when the operand is
// accessed directly).
type schedule struct {
	items  []fetchItem
	ofTask []int // fetch index per task, -1 = direct
	need   []int // running max fetch index needed through each task
}

func buildSchedule(tasks []Task, slots int, region func(*Task) fetchItem, direct func(*Task) bool) schedule {
	s := schedule{
		ofTask: make([]int, len(tasks)),
		need:   make([]int, len(tasks)),
	}
	run := -1
	for ti := range tasks {
		t := &tasks[ti]
		reg := region(t)
		if direct(t) {
			s.ofTask[ti] = -1
		} else if n := len(s.items); n > 0 && sameRegion(s.items[n-1], reg) {
			// The most recently fetched region is the one we need: reuse
			// its buffer instead of re-fetching (the paper's "consecutive
			// matrix products before its copy is discarded").
			s.ofTask[ti] = n - 1
		} else if n := len(s.items); slots > 1 && n > 1 && sameRegion(s.items[n-2], reg) {
			// Both double-buffer slots hold live regions; the older one
			// also counts as a hit. This matters for transpose cases on
			// p != q grids, where tasks alternate between two blocks.
			s.ofTask[ti] = n - 2
		} else {
			s.items = append(s.items, reg)
			s.ofTask[ti] = len(s.items) - 1
		}
		if s.ofTask[ti] > run {
			run = s.ofTask[ti]
		}
		s.need[ti] = run
	}
	return s
}

func (s *schedule) maxElems() int {
	m := 0
	for _, it := range s.items {
		if n := it.elems(); n > m {
			m = n
		}
	}
	return m
}

// Multiply runs SRUMMA collectively: every rank computes its block of
// C = op(A) op(B). ga, gb and gc hold the block-distributed operands laid
// out per Dists (each rank's segment is its block, tight row-major). C is
// overwritten. The call barriers on entry (so freshly written A and B are
// globally visible) and on exit.
func Multiply(c rt.Ctx, g *grid.Grid, d Dims, opts Options, ga, gb, gc rt.Global) error {
	return MultiplyEx(c, g, d, opts, 1, 0, ga, gb, gc)
}

// MultiplyEx is the full dgemm form: C = alpha * op(A) op(B) + beta * C.
// The Global Arrays front end (package ga) uses it for ga_dgemm semantics.
func MultiplyEx(c rt.Ctx, g *grid.Grid, d Dims, opts Options, alpha, beta float64, ga, gb, gc rt.Global) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if g.Size() != c.Size() {
		return fmt.Errorf("core: grid %dx%d needs %d ranks, runtime has %d", g.P, g.Q, g.Size(), c.Size())
	}
	da, db, dc := Dists(g, d, opts.Case)
	for r := 0; r < g.Size(); r++ {
		ar, ac := da.LocalShape(r)
		br, bc := db.LocalShape(r)
		cr, cc := dc.LocalShape(r)
		if ga.LenAt(r) != ar*ac || gb.LenAt(r) != br*bc || gc.LenAt(r) != cr*cc {
			return fmt.Errorf("core: rank %d segments A=%d B=%d C=%d do not match distribution (%d,%d,%d)",
				r, ga.LenAt(r), gb.LenAt(r), gc.LenAt(r), ar*ac, br*bc, cr*cc)
		}
	}

	me := c.Rank()
	if opts.KernelThreads > 0 {
		if t := rt.FindKernelTuner(c); t != nil {
			t.SetKernelThreads(opts.KernelThreads)
		}
	}
	tasks := Plan(c.Topo(), me, g, d, opts)
	myRow, myCol := g.Coords(me)
	mLoc := dc.RowChunks[myRow].N
	nLoc := dc.ColChunks[myCol].N

	// Recovery ledger: each rank binds its per-rank bitset before the entry
	// barrier; a resumed attempt (marks already present) executes only the
	// remainder of the list.
	var lg *Ledger
	if opts.Ledger != nil {
		lg = opts.Ledger.Rank(me, len(tasks))
	}

	c.Barrier()
	var execErr error
	if len(tasks) > 0 {
		execErr = execTasks(c, tasks, opts, alpha, beta, ga, gb, gc, nLoc, lg)
	} else if mLoc*nLoc > 0 {
		// No contributions (cannot happen for valid dims, but keep C
		// well-defined): C = beta*C via a k=0 multiply.
		cb := c.Local(gc)
		zero := rt.Mat{Buf: cb, LD: nLoc, Rows: mLoc, Cols: 0}
		zeroB := rt.Mat{Buf: cb, LD: nLoc, Rows: 0, Cols: nLoc}
		c.Gemm(1, zero, zeroB, beta, rt.Mat{Buf: cb, LD: nLoc, Rows: mLoc, Cols: nLoc})
	}
	// The exit barrier runs even on cancellation: every rank shares the
	// Cancel signal and checks it at task granularity, so all of them reach
	// this point and the collective sequence stays aligned.
	c.Barrier()
	return execErr
}

// rankHealth is the capability a fault-tolerant runtime layer (the
// internal/faults resilient wrapper) exposes to the executor: which owners
// are currently stalling, and whether this rank has degraded to blocking
// transfers. Without it, or while it reports every owner healthy and the
// rank not degraded, the executor runs the planned order unchanged.
type rankHealth interface {
	IsSlow(rank int) bool
	Degraded() bool
}

// pipe is one operand's fetch pipeline over the pending task list: the
// schedule, the scratch slots its items rotate through, and how far
// issuing and waiting have got.
type pipe struct {
	g      rt.Global
	region func(*Task) fetchItem
	direct func(*Task) bool
	s      schedule
	bufs   []rt.Buffer
	issued int // highest item issued
	waited int // highest item waited on; tasks first wait on items in order
}

// plan (re)builds the schedule over tasks, with nothing issued yet.
func (p *pipe) plan(tasks []Task, slots int) {
	p.s = buildSchedule(tasks, slots, p.region, p.direct)
	p.issued, p.waited = -1, -1
}

// target is the highest item that must be in flight before task ti runs.
// With look-ahead, both slots are filled before the first compute, so the
// first remote transfers hide behind the shared-memory tasks at the head of
// the list (paper §3.1 step 2), and the next task's item is prefetched.
// Issuing item f evicts item f-2's buffer, so the prefetch is capped one
// past the item the current task uses: a task re-reading the older slot
// must finish before that slot is refilled.
func (p *pipe) target(ti int, ahead bool) int {
	up := p.s.need[ti]
	if !ahead {
		return up
	}
	up = max(up, min(1, len(p.s.items)-1))
	if ti+1 < len(p.s.need) {
		next := p.s.need[ti+1]
		if fi := p.s.ofTask[ti]; fi >= 0 {
			next = min(next, fi+1)
		}
		up = max(up, next)
	}
	return up
}

// ready reports whether every item task ti needs is already in flight.
func (p *pipe) ready(ti int) bool { return p.s.need[ti] <= p.issued }

// stalls reports whether issuing up to item upTo would send a get to an
// owner h reports as slow.
func (p *pipe) stalls(h rankHealth, upTo int) bool {
	for f := p.issued + 1; f <= upTo; f++ {
		if h.IsSlow(p.s.items[f].owner) {
			return true
		}
	}
	return false
}

// issue puts items up to upTo in flight. When the engine records spans,
// each burst is bracketed with a KindIssue span — the executor-level view
// of "how long does putting transfers in flight cost" that the overlap
// analysis separates from the Wait time those transfers hide.
func (p *pipe) issue(c rt.Ctx, rec *obs.Recorder, upTo int) {
	if p.issued >= upTo {
		return
	}
	t0 := issueStart(rec)
	for p.issued < upTo {
		p.issued++
		it := &p.s.items[p.issued]
		it.h = c.NbGetSub(p.g, it.owner, it.off, it.ld, it.rows, it.cols, p.bufs[p.issued%len(p.bufs)], 0)
	}
	issueSpan(rec, c.Rank(), t0)
}

// drain waits on every issued item no task has waited on yet, so that a
// rebuilt schedule may refill the slots.
func (p *pipe) drain(c rt.Ctx) {
	for f := p.waited + 1; f <= p.issued; f++ {
		c.Wait(p.s.items[f].h)
	}
}

// operand returns task ti's view of this matrix: the fetched copy, packed
// tight, once its get completes, or the sub-block in place inside the
// owner's block.
func (p *pipe) operand(c rt.Ctx, ti int, t *Task) rt.Mat {
	r := p.region(t)
	if fi := p.s.ofTask[ti]; fi >= 0 {
		c.Wait(p.s.items[fi].h)
		p.waited = max(p.waited, fi)
		return rt.Mat{Buf: p.bufs[fi%len(p.bufs)], LD: r.cols, Rows: r.rows, Cols: r.cols}
	}
	m := rt.Mat{Off: r.off, LD: r.ld, Rows: r.rows, Cols: r.cols}
	if r.owner == c.Rank() {
		m.Buf = c.Local(p.g)
	} else {
		m.Buf, m.Remote = c.Direct(p.g, r.owner), true
	}
	return m
}

// execTasks runs one rank's task list through the double-buffered
// nonblocking pipeline. While every owner is healthy it follows the planned
// order, so consecutive tasks share fetched blocks and each C region
// accumulates in plan order. When the ctx reports that the next fetch's
// owner is a straggler, the executor finishes the tasks already in flight,
// moves the pending tasks with healthy owners ahead of the slow ones (the
// local form of task stealing: every task is independent, cf. the
// task-based SUMMA of Calvin, Lewis & Valeev) and replans the fetches over
// what remains. Once the rank is degraded, look-ahead stops. execTasks owns
// tasks and filters and permutes it in place.
func execTasks(c rt.Ctx, tasks []Task, opts Options, alpha, beta float64, ga, gb, gc rt.Global, nLoc int, lg *Ledger) error {
	pending, orig, touched := resume(tasks, lg)
	if len(pending) == 0 {
		return nil
	}
	var ab *abftState
	if opts.ABFT {
		ab = newABFTState(c, opts.ABFTTol)
	}

	nbuf := 2
	if opts.SingleBuffer {
		nbuf = 1
	}
	pa := &pipe{g: ga, region: aRegion, direct: func(t *Task) bool { return t.ADirect }}
	pb := &pipe{g: gb, region: bRegion, direct: func(t *Task) bool { return t.BDirect }}
	for _, p := range []*pipe{pa, pb} {
		p.plan(pending, nbuf)
		if n := p.s.maxElems(); n > 0 {
			for i := 0; i < nbuf; i++ {
				p.bufs = append(p.bufs, c.LocalBuf(n))
			}
		}
	}
	// A replanned remainder fetches a subset of these regions, so the
	// slots stay large enough.
	defer releaseScratch(c, pa.bufs, pb.bufs)

	health, _ := c.(rankHealth)
	rec := rt.FindRecorder(c)
	transA, transB := opts.Case.TransA(), opts.Case.TransB()
	cBuf := c.Local(gc)
	for ti := 0; ti < len(pending); ti++ {
		if cancelled(opts.Cancel) {
			// Outstanding nonblocking gets are simply never waited on — the
			// real engine completes them eagerly, and their targets are the
			// scratch buffers the deferred release surrenders anyway.
			return ErrCancelled
		}
		ahead := nbuf > 1 && (health == nil || !health.Degraded())
		ta, tb := pa.target(ti, ahead), pb.target(ti, ahead)
		if health != nil && (pa.stalls(health, ta) || pb.stalls(health, tb)) {
			if pa.ready(ti) && pb.ready(ti) {
				// Finish the tasks already in flight first.
				if stealHealthy(health, pending[ti:], nil) > 0 {
					ta, tb = -1, -1
				}
			} else if n := stealHealthy(health, pending[ti:], orig[ti:]); n > 0 {
				c.Stats().StragglerSteals += int64(n)
				pa.drain(c)
				pb.drain(c)
				pending, orig = pending[ti:], orig[ti:]
				pa.plan(pending, nbuf)
				pb.plan(pending, nbuf)
				ti = -1
				continue
			}
		}
		pa.issue(c, rec, ta)
		pb.issue(c, rec, tb)

		t := &pending[ti]
		aMat := pa.operand(c, ti, t)
		aMat.Trans = transA
		bMat := pb.operand(c, ti, t)
		bMat.Trans = transB
		cMat := rt.Mat{Buf: cBuf, Off: t.CI*nLoc + t.CJ, LD: nLoc, Rows: t.CR, Cols: t.CC}
		taskBeta := 1.0
		if touched.First(t) {
			taskBeta = beta
		}
		if err := gemmVerified(c, ab, alpha, aMat, bMat, taskBeta, cMat); err != nil {
			return err
		}
		if lg != nil {
			lg.Mark(orig[ti])
		}
	}
	return nil
}

// resume splits tasks, in place, into the ones still to run, with their
// original indexes for the ledger marks, and the C regions whose beta is
// spent: those any task completed by an earlier attempt (marked in the
// ledger) wrote.
func resume(tasks []Task, lg *Ledger) (pending []Task, orig []int, touched Touched) {
	touched = make(Touched)
	pending, orig = tasks[:0], make([]int, 0, len(tasks))
	for i := range tasks {
		t := tasks[i]
		if lg != nil && lg.Done(i) {
			touched.First(&t)
			continue
		}
		pending = append(pending, t)
		orig = append(orig, i)
	}
	return pending, orig, touched
}

// slowTask reports whether t fetches an operand from an owner h reports as
// slow.
func slowTask(h rankHealth, t *Task) bool {
	return (!t.ADirect && h.IsSlow(t.AOwner)) || (!t.BDirect && h.IsSlow(t.BOwner))
}

// stealHealthy returns how many tasks with healthy owners are queued
// behind a slow one. Given orig, it also moves them ahead of the slow ones
// in the same pass, keeping the order within each group and permuting orig
// alongside; with orig nil it only counts.
func stealHealthy(h rankHealth, tasks []Task, orig []int) int {
	var slowT []Task
	var slowO []int
	moved, k := 0, 0
	for i := range tasks {
		if slowTask(h, &tasks[i]) {
			if orig != nil {
				slowT, slowO = append(slowT, tasks[i]), append(slowO, orig[i])
			}
			continue
		}
		if k < i {
			moved++
			if orig != nil {
				tasks[k], orig[k] = tasks[i], orig[i]
			}
		}
		k++
	}
	if orig != nil {
		copy(tasks[k:], slowT)
		copy(orig[k:], slowO)
	}
	return moved
}

// issueStart and issueSpan bracket one fetch-issue burst with a KindIssue
// span. A nil recorder (tracing off, or the sim engine whose tracer works
// at the Ctx layer) makes both a pointer compare.
func issueStart(rec *obs.Recorder) time.Time {
	if rec == nil {
		return time.Time{}
	}
	return time.Now()
}

func issueSpan(rec *obs.Recorder, lane int, t0 time.Time) {
	if rec == nil || t0.IsZero() {
		return
	}
	rec.RecordWall(lane, obs.KindIssue, t0, time.Now())
}

// releaseScratch hands the per-multiply communication buffers back to the
// engine's pools when it has any (the real engine does; the sim engine only
// counts bytes). With pooling, repeated Multiply calls stop allocating the
// double-buffer panels after the first run.
func releaseScratch(c rt.Ctx, bufsA, bufsB []rt.Buffer) {
	rel := rt.FindBufferReleaser(c)
	if rel == nil {
		return
	}
	for _, b := range bufsA {
		rel.ReleaseBuf(b)
	}
	for _, b := range bufsB {
		rel.ReleaseBuf(b)
	}
}
