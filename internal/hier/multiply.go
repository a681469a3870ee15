package hier

// The hierarchical multiply: stage the group's outer panels into a shared
// band with one-sided gets, then run the UNTOUCHED flat SRUMMA executor
// with its fetches served from the band. Bit-identity with flat SRUMMA
// falls out of the construction: the task lists, their order, the beta
// application and every Gemm operand value are exactly the flat plan's —
// only where the fetched bytes come from changes (PR 8 pinned that Gemm is
// layout-independent bitwise, so same bytes ⇒ same C).

import (
	"fmt"
	"time"

	"srumma/internal/core"
	"srumma/internal/obs"
	"srumma/internal/rt"
)

// bandLoc says where a staged region lives: which group member's band
// segment, at which element offset.
type bandLoc struct {
	member int
	off    int
}

// Multiply runs the hierarchical multiply collectively: C = op(A) op(B)
// with operands block-distributed per core.Dists on t.Grid. C is
// overwritten.
func Multiply(c rt.Ctx, t Topo, d core.Dims, opts Options, ga, gb, gc rt.Global) error {
	return MultiplyEx(c, t, d, opts, 1, 0, ga, gb, gc)
}

// MultiplyEx is the full dgemm form: C = alpha * op(A) op(B) + beta * C.
//
// Every rank stages its share of the group's outer panels (the schedule is
// deterministic, so members split the work without negotiation), barriers,
// and runs core.MultiplyEx through a ctx wrapper that satisfies the
// executor's fetches from the staged band by direct shared-memory access.
// On engines or platforms where group members cannot direct-map each
// other's band segments the group degrades to the flat path for this call
// (still correct, no staging win).
func MultiplyEx(c rt.Ctx, t Topo, d core.Dims, opts Options, alpha, beta float64, ga, gb, gc rt.Global) error {
	// The engine's topology is the ground truth the inner executor plans
	// against (core.MultiplyEx calls Plan with c.Topo()); only the group
	// carving and the grid are the caller's to choose. Overlaying here
	// keeps the staging plan and the executor's fetch keys derived from
	// the SAME topology no matter what the caller stuffed into t.
	et := c.Topo()
	et.GroupSize = t.GroupSize
	t.Topology = et
	if err := t.Validate(); err != nil {
		return err
	}
	if err := d.Validate(); err != nil {
		return err
	}
	if t.Grid.Size() != c.Size() {
		return fmt.Errorf("hier: grid %dx%d needs %d ranks, runtime has %d",
			t.Grid.P, t.Grid.Q, t.Grid.Size(), c.Size())
	}

	me := c.Rank()
	grp := t.GroupOf(me)
	lo, hi := t.GroupRanks(grp)
	nMembers := hi - lo

	// Can this group share a band at all? Direct access is symmetric inside
	// a domain, so every member reaches the same verdict.
	direct := true
	for m := lo; m < hi; m++ {
		if m != me && !c.CanDirect(m) {
			direct = false
			break
		}
	}

	// The outer schedule, flattened into staging order. Region i is staged
	// by member lo + i%nMembers; every member derives the full assignment so
	// the band layout is agreed without messages.
	var regions []core.FetchRegion
	if direct {
		for _, p := range Schedule(t, grp, d, opts) {
			regions = append(regions, p.Regions...)
		}
	}
	bandElems := make([]int, nMembers)
	loc := make(map[core.FetchRegion]bandLoc, len(regions))
	for i, r := range regions {
		mi := i % nMembers
		loc[r] = bandLoc{member: lo + mi, off: bandElems[mi]}
		bandElems[mi] += r.Elems()
	}

	// Malloc is collective across ALL groups — even a group with nothing to
	// stage (or no direct access) allocates a token element so the global
	// call sequence stays aligned.
	myBand := bandElems[me-lo]
	if myBand == 0 {
		myBand = 1
	}
	band := c.Malloc(myBand)

	// Stage my share: one NbGetSub per assigned region, issued as one burst
	// (bracketed with a KindIssue span like the executor's own fetch
	// bursts), then drained. The gets run on the REAL ctx, so chaos layers
	// and engine accounting see ordinary one-sided traffic.
	rec := rt.FindRecorder(c)
	local := c.Local(band)
	var handles []rt.Handle
	t0 := issueStart(rec)
	for i, r := range regions {
		if i%nMembers != me-lo {
			continue
		}
		src := ga
		if r.Matrix == core.MatB {
			src = gb
		}
		h := c.NbGetSub(src, r.Owner, r.Off, r.LD, r.Rows, r.Cols, local, loc[r].off)
		handles = append(handles, h)
	}
	issueSpan(rec, me, t0)
	for _, h := range handles {
		c.Wait(h)
	}
	// Publish the bands: after this barrier every member may direct-read
	// every segment (the same write-then-barrier-then-read discipline the
	// flat direct path relies on).
	c.Barrier()

	var inner rt.Ctx = c
	if len(loc) > 0 {
		inner = &stagedCtx{Ctx: c, ga: ga, gb: gb, band: band, loc: loc}
	}
	err := core.MultiplyEx(inner, t.Grid, d, opts.Options, alpha, beta, ga, gb, gc)
	// core.MultiplyEx exits through a barrier on every path (including
	// cancellation), so the band is quiescent and the collective Free stays
	// aligned.
	c.Free(band)
	return err
}

// stagedCtx is the inner team's runtime: a pass-through rt.Ctx whose
// NbGetSub, when asked for a region the outer level staged, copies it out
// of the group band instead of touching the interconnect. The handle it
// returns is already complete; everything else — direct operands, scratch,
// Gemm, barriers, chaos injection in a wrapped engine — flows to the
// underlying ctx unchanged. It deliberately does NOT forward the
// executor's rankHealth capability: under hier the executor always follows
// the planned order the band was staged for, and failures are handled at
// the job level (retry + ledger resume), not by per-fetch rescheduling.
type stagedCtx struct {
	rt.Ctx
	ga, gb rt.Global
	band   rt.Global
	loc    map[core.FetchRegion]bandLoc
}

// Unwrap keeps engine capabilities (kernel tuning, buffer pools, span
// recorders) discoverable through the wrapper.
func (s *stagedCtx) Unwrap() rt.Ctx { return s.Ctx }

// servedHandle is the no-op handle of a fetch satisfied from the band.
type servedHandle struct{}

func (servedHandle) Done() bool { return true }

func (s *stagedCtx) NbGetSub(g rt.Global, rank, off, ld, rows, cols int, dst rt.Buffer, dstOff int) rt.Handle {
	matrix := -1
	switch g {
	case s.ga:
		matrix = core.MatA
	case s.gb:
		matrix = core.MatB
	}
	if matrix >= 0 {
		key := core.FetchRegion{Matrix: matrix, Owner: rank, Off: off, LD: ld, Rows: rows, Cols: cols}
		if bl, ok := s.loc[key]; ok {
			var src rt.Buffer
			remote := bl.member != s.Ctx.Rank()
			if remote {
				src = s.Ctx.Direct(s.band, bl.member)
			} else {
				src = s.Ctx.Local(s.band)
			}
			// The band holds the region packed tight, so the copy into the
			// executor's fetch buffer is a contiguous rows x cols Pack —
			// charged as a shared-memory copy by the sim engine, a plain
			// memcpy on the real ones.
			s.Ctx.Pack(rt.Mat{Buf: src, Off: bl.off, LD: cols, Rows: rows, Cols: cols, Remote: remote}, dst, dstOff)
			return servedHandle{}
		}
	}
	return s.Ctx.NbGetSub(g, rank, off, ld, rows, cols, dst, dstOff)
}

func (s *stagedCtx) Wait(h rt.Handle) {
	if _, ok := h.(servedHandle); ok {
		return
	}
	s.Ctx.Wait(h)
}

// issueStart and issueSpan mirror the executor's KindIssue bracketing for
// the staging burst.
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
