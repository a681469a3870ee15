package ipcrt

import (
	"fmt"

	"srumma/internal/core"
	"srumma/internal/driver"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/hier"
	"srumma/internal/mat"
	"srumma/internal/mp"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// JobSpec is one SPMD job. Closures cannot cross a process boundary, so
// the multi-process engine dispatches jobs by value: the spec names the
// algorithm and its parameters, and RunBody — the one shared job body —
// either reconstructs identical operands on every rank from the seed or
// loads the rank's own blocks of inline operands. Running the same spec
// through RunBody on the in-process armci engine (same topology) must
// produce bit-identical C blocks, which is exactly what the ipc-smoke
// gate asserts.
type JobSpec struct {
	// Problem shape: C (MxN) = alpha * op(A) op(B) + beta * C, contraction
	// length K, transpose case core.Case.
	M, N, K     int
	Case        int
	Alpha, Beta float64
	// Seed generates A (Seed), B (Seed+1) and, when Beta != 0, the initial
	// C (Seed+2) via mat.Random on every rank identically.
	Seed uint64
	// A, B and — when Beta != 0 — CIn are inline operands (the serving
	// path): full row-major matrices in their stored (pre-transpose)
	// shapes. A != nil switches from seed generation to them. They never
	// cross the wire whole: RunJob cuts each rank's own blocks out of them
	// (inputFor) and ships only those, as raw tails of that rank's job
	// frame.
	A   []float64 `json:"-"`
	B   []float64 `json:"-"`
	CIn []float64 `json:"-"`
	// UseLedger attaches a core.JobLedger so a crashing rank's completion
	// bitset rides back in its salvage. Resume, read on the coordinator
	// like A/B/CIn, holds the per-rank salvage of a failed attempt: a rank
	// whose entry carries a partial C block, ledger bits and a task count
	// resumes mid-job; every other rank restarts. RunJob ships each rank
	// only its own entry.
	UseLedger bool
	Resume    map[int]*Salvage `json:"-"`
	// ABFT forwards Huang–Abraham block verification to core.Options.
	ABFT    bool
	ABFTTol float64
	// Executor knobs, forwarded to core.Options.
	SingleBuffer    bool
	NoDiagonalShift bool
	KernelThreads   int
	MaxTaskK        int
	// Hier routes the job through the hierarchical two-level path
	// (internal/hier): groups of ranks stage their outer panels once per
	// group, bit-identical to the flat path. HierGroup overrides the group
	// size (0 = one group per emulated shared-memory domain, i.e. per
	// worker node — how internal/cluster maps groups onto nodes).
	Hier      bool
	HierGroup int
	// ReturnC ships each rank's C block back in its RankResult.
	ReturnC bool
	// Trace attaches a per-worker obs.Recorder; events come back in the
	// RankResult together with the worker's wall epoch so the coordinator
	// can merge the lanes onto its own timeline.
	Trace bool
	// Chaos, when non-nil, wraps the worker's Ctx in the deterministic
	// fault injector (faults.NewPlan(Chaos, NProcs)); Recover additionally
	// wraps the resilient retry/checksum layer around it.
	Chaos   *faults.Config
	Recover bool

	// MPCheck replaces the GEMM body with a two-sided collective exercise
	// (Bcast + Allreduce over internal/mp); the "C block" is the reduced
	// vector, identical on every rank and computable in closed form.
	MPCheck bool

	// Test hooks (used by the engine's own failure-path tests): the named
	// rank exits the process / hangs forever at job start. -1 disables.
	ExitRank int
	ExitCode int
	HangRank int

	// own is this rank's share of the inputs as its job frame delivered
	// them (worker side only); nil means cut them from A/B/CIn/Resume.
	own *rankInput
}

// rankInput is one rank's share of a job's inputs: whether the operands
// are inline, its own A, B and C-in blocks (tight row-major) when they
// are, and its salvage when it resumes a failed attempt.
type rankInput struct {
	Inline    bool
	A, B, CIn []float64
	Prior     *Salvage
	// frameBytes is the body size of the job frame that delivered this
	// share (worker side; reported as RankResult.JobBytes).
	frameBytes int64
}

// inputFor cuts rank's share of the inputs out of the spec, on the same
// core.Dists layout RunBodyEx allocates. RunJob ships exactly these
// blocks to each rank, and an in-process RunBody loads them directly, so
// the two paths cannot diverge.
func (spec *JobSpec) inputFor(nprocs, rank int) (*rankInput, error) {
	in := &rankInput{Inline: spec.A != nil}
	if p := spec.Resume[rank]; p != nil && p.Valid {
		in.Prior = p
	}
	if !in.Inline {
		return in, nil
	}
	d := core.Dims{M: spec.M, N: spec.N, K: spec.K}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	g, err := grid.Square(nprocs)
	if err != nil {
		return nil, err
	}
	da, db, dc := core.Dists(g, d, core.Case(spec.Case))
	if in.A, err = cutBlock(da, rank, spec.A, "A"); err != nil {
		return nil, err
	}
	if in.B, err = cutBlock(db, rank, spec.B, "B"); err != nil {
		return nil, err
	}
	if spec.Beta != 0 {
		if in.CIn, err = cutBlock(dc, rank, spec.CIn, "C"); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// cutBlock packs rank's block of a row-major global operand.
func cutBlock(d *grid.BlockDist, rank int, data []float64, name string) ([]float64, error) {
	if len(data) != d.Rows*d.Cols {
		return nil, fmt.Errorf("ipcrt: inline operand %s holds %d elements, want %dx%d", name, len(data), d.Rows, d.Cols)
	}
	pr, pc := d.G.Coords(rank)
	r, c := d.BlockShape(pr, pc)
	i, j := d.BlockOrigin(pr, pc)
	out := make([]float64, r*c)
	mat.PackInto(out, mat.FromData(d.Rows, d.Cols, data), i, j, r, c)
	return out, nil
}

// loadOwn writes a delivered block into this rank's segment of g, refusing
// one whose size does not match the local shape.
func loadOwn(c rt.Ctx, d *grid.BlockDist, g rt.Global, vals []float64, name string) error {
	r, cc := d.LocalShape(c.Rank())
	if len(vals) != r*cc {
		return fmt.Errorf("ipcrt: rank %d: %s block holds %d elements, want %dx%d", c.Rank(), name, len(vals), r, cc)
	}
	c.WriteBuf(c.Local(g), 0, vals)
	return nil
}

// DefaultSpec returns a spec with the hooks disabled and sane scalars.
func DefaultSpec(m, n, k int) *JobSpec {
	return &JobSpec{M: m, N: n, K: k, Alpha: 1, Seed: 1, ExitRank: -1, HangRank: -1}
}

// RankResult is one worker's FIN payload.
type RankResult struct {
	Rank int
	// Err is the job body's failure ("" on success): a recovered panic or
	// a core.Multiply error, with the rank's context.
	Err   string
	Stats *rt.Stats
	// C block (row-major CRows x CCols), present when the spec asked for it
	// or the body salvaged one. It travels as the FIN frame's raw tail.
	C            []float64 `json:"-"`
	CRows, CCols int
	// JobBytes is the body size of the job frame this rank received: the
	// scalar header plus its own operand blocks.
	JobBytes int64
	// Trace events on lane == rank, with the worker's recorder epoch in
	// unix nanos so the coordinator can shift them onto its own epoch.
	Events        []obs.Event
	EpochUnixNano int64
	// DirectMaps counts distinct PEER segments this rank mapped for direct
	// load/store access — the observable proof that intra-node operands
	// took the mmap path rather than the socket. Reset per job, so a
	// steady-state job on a warm segment pool reports 0.
	DirectMaps int64
	// MmapMallocs counts lifetime segment-file create+mmap calls in the
	// worker process; flat across same-shape jobs when the coordinator's
	// segment pool is reusing parked segments.
	MmapMallocs int64
	// TCPPeers counts lifetime peer connections this rank dialed over TCP
	// (the cross-domain scheme of the tcp transport).
	TCPPeers int64
	// Salvage of a failed body: when Salvaged is true, C/CRows/CCols hold
	// the partial block and LedgerBits/LedgerTasks this rank's completion
	// bitset — enough for a retry attempt to resume instead of restart.
	Salvaged    bool
	LedgerBits  []uint64 `json:",omitempty"`
	LedgerTasks int
}

// Salvage receives a failed job body's recoverable state (see RunBodyEx).
type Salvage struct {
	Valid      bool
	C          []float64
	Rows, Cols int
	Bits       []uint64
	Tasks      int
}

// Salvage returns the recoverable state a failed rank shipped back, in the
// form JobSpec.Resume takes, or nil when it salvaged nothing.
func (r *RankResult) Salvage() *Salvage {
	if r == nil || !r.Salvaged {
		return nil
	}
	return &Salvage{Valid: true, C: r.C, Rows: r.CRows, Cols: r.CCols, Bits: r.LedgerBits, Tasks: r.LedgerTasks}
}

// RunBody executes one spec against any data-carrying engine Ctx. It is
// the body both sides of the bit-identity gate run: workers call it with
// their ipc ctx, and comparison harnesses call it on armci with the same
// topology. Results: this rank's C block and its shape.
func RunBody(c rt.Ctx, spec *JobSpec) ([]float64, int, int, error) {
	return RunBodyEx(c, spec, nil)
}

// RunBodyEx is RunBody with a salvage sink: when the body panics mid-run
// (an injected crash, a real bug) and the spec attached a ledger, the
// partial C block and the completion bitset are captured into salv before
// the panic continues — the raw material of a cross-process resume.
func RunBodyEx(c rt.Ctx, spec *JobSpec, salv *Salvage) ([]float64, int, int, error) {
	if spec.MPCheck {
		return runMPCheck(c, spec)
	}
	d := core.Dims{M: spec.M, N: spec.N, K: spec.K}
	if err := d.Validate(); err != nil {
		return nil, 0, 0, err
	}
	g, err := grid.Square(c.Size())
	if err != nil {
		return nil, 0, 0, err
	}
	cs := core.Case(spec.Case)
	da, db, dc := core.Dists(g, d, cs)

	ga := driver.AllocBlock(c, da)
	gb := driver.AllocBlock(c, db)
	gc := driver.AllocBlock(c, dc)

	me := c.Rank()
	rows, cols := dc.LocalShape(me)
	in := spec.own
	if in == nil {
		if in, err = spec.inputFor(c.Size(), me); err != nil {
			return nil, 0, 0, err
		}
	}

	// Resume state: this rank rejoins mid-job only with all three pieces
	// of salvage (partial C, ledger bits, task count); otherwise it
	// restarts from the loaded operands with an empty ledger.
	var jl *core.JobLedger
	if spec.UseLedger {
		jl = core.NewJobLedger(c.Size())
	}
	prior := in.Prior
	resumed := false
	if jl != nil && prior != nil && len(prior.C) == rows*cols && len(prior.Bits) > 0 && prior.Tasks > 0 {
		jl.RestoreRank(me, prior.Tasks, prior.Bits)
		resumed = true
	}

	if in.Inline {
		if err := loadOwn(c, da, ga, in.A, "A"); err != nil {
			return nil, 0, 0, err
		}
		if err := loadOwn(c, db, gb, in.B, "B"); err != nil {
			return nil, 0, 0, err
		}
	} else {
		driver.LoadBlock(c, da, ga, mat.Random(da.Rows, da.Cols, spec.Seed))
		driver.LoadBlock(c, db, gb, mat.Random(db.Rows, db.Cols, spec.Seed+1))
	}
	switch {
	case resumed:
		c.WriteBuf(c.Local(gc), 0, prior.C)
	case spec.Beta != 0 && in.Inline:
		if err := loadOwn(c, dc, gc, in.CIn, "C"); err != nil {
			return nil, 0, 0, err
		}
	case spec.Beta != 0:
		driver.LoadBlock(c, dc, gc, mat.Random(d.M, d.N, spec.Seed+2))
	}

	opts := core.Options{
		Case:            cs,
		SingleBuffer:    spec.SingleBuffer,
		NoDiagonalShift: spec.NoDiagonalShift,
		KernelThreads:   spec.KernelThreads,
		MaxTaskK:        spec.MaxTaskK,
		Ledger:          jl,
		ABFT:            spec.ABFT,
		ABFTTol:         spec.ABFTTol,
	}
	if salv != nil && jl != nil {
		defer func() {
			if p := recover(); p != nil {
				// Best-effort: the engine may be half-wedged, so a salvage
				// failure must not mask the original panic.
				func() {
					defer func() { _ = recover() }()
					cBlock := c.ReadBuf(c.Local(gc), 0, rows*cols)
					if bits, n := jl.RankBits(me); len(bits) > 0 && n > 0 {
						salv.C, salv.Rows, salv.Cols = cBlock, rows, cols
						salv.Bits, salv.Tasks = bits, n
						salv.Valid = true
					}
				}()
				panic(p)
			}
		}()
	}
	if spec.Hier {
		topo := c.Topo()
		topo.GroupSize = spec.HierGroup
		err = hier.MultiplyEx(c, hier.From(topo, g), d, hier.Options{Options: opts},
			spec.Alpha, spec.Beta, ga, gb, gc)
	} else {
		err = core.MultiplyEx(c, g, d, opts, spec.Alpha, spec.Beta, ga, gb, gc)
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("rank %d: %w", me, err)
	}
	out := c.ReadBuf(c.Local(gc), 0, rows*cols)
	c.Free(ga)
	c.Free(gb)
	c.Free(gc)
	return out, rows, cols, nil
}

// runMPCheck exercises the two-sided layer end to end: rank 0 broadcasts a
// seed vector, every rank adds its own rank to each element, and an
// Allreduce sums the results. The expected outcome on every rank is
// Size*base[i] + sum(0..Size-1) — see ExpectedMPCheck.
func runMPCheck(c rt.Ctx, spec *JobSpec) ([]float64, int, int, error) {
	n := spec.N
	if n <= 0 {
		n = 8
	}
	all := make([]int, c.Size())
	for i := range all {
		all[i] = i
	}
	b := c.LocalBuf(n)
	if c.Rank() == 0 {
		c.WriteBuf(b, 0, mpCheckBase(n, spec.Seed))
	}
	mp.Bcast(c, 0, all, b, 0, n, 7)
	vals := c.ReadBuf(b, 0, n)
	for i := range vals {
		vals[i] += float64(c.Rank())
	}
	c.WriteBuf(b, 0, vals)
	mp.Allreduce(c, all, b, 0, n, 9)
	return c.ReadBuf(b, 0, n), 1, n, nil
}

// mpCheckBase is deliberately small-integer-valued so Bcast+Allreduce
// results are exact regardless of reduction association order.
func mpCheckBase(n int, seed uint64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((seed + uint64(i)*7) % 1000)
	}
	return out
}

// ExpectedMPCheck computes what every rank's MPCheck result must be.
func ExpectedMPCheck(n, nprocs int, seed uint64) []float64 {
	base := mpCheckBase(n, seed)
	rankSum := float64(nprocs*(nprocs-1)) / 2
	out := make([]float64, n)
	for i, v := range base {
		out[i] = float64(nprocs)*v + rankSum
	}
	return out
}

// WrapChaos applies the spec's fault-injection layers around an engine
// Ctx, identically on workers and on in-process comparison runs.
func WrapChaos(c rt.Ctx, spec *JobSpec, nprocs int) (rt.Ctx, error) {
	if spec.Chaos == nil {
		return c, nil
	}
	plan, err := faults.NewPlan(*spec.Chaos, nprocs)
	if err != nil {
		return nil, err
	}
	wrapped := faults.Inject(c, plan, nil)
	if spec.Recover {
		wrapped = faults.Resilient(wrapped, faults.RecoveryConfig{})
	}
	return wrapped, nil
}
