package core

// Block-level job recovery. SRUMMA's owner-computes task list makes each
// task an independent unit of work — one C-view multiply-accumulate — so it
// is also the natural unit of RECOVERY: a crash mid-job should cost only
// the tasks not yet computed, not the whole job. The Ledger records
// per-task completion as a bitset; a serving layer that keeps the ledger
// (and the surviving C segments) across attempts can resume a failed job
// and re-execute only the tasks absent from it, bit-identical to an
// uninterrupted run (each C region's accumulation sequence is preserved:
// completed prefix on the first attempt, remainder in the same task order
// on the retry, with beta applied exactly once per region across attempts).

import (
	"fmt"
	"math/bits"
	"sync"
)

// Ledger is one rank's completion bitset over its task list. The owning
// rank is the only writer during a run (Mark/Done are plain bit ops, zero
// allocations on the hot path); other goroutines may read it only after the
// run's happens-before edge (the team join).
type Ledger struct {
	bits []uint64
	n    int
	done int
}

func newLedger(n int) *Ledger {
	return &Ledger{bits: make([]uint64, (n+63)/64), n: n}
}

// Total returns the task count the ledger tracks.
func (l *Ledger) Total() int { return l.n }

// Completed returns how many tasks are marked done.
func (l *Ledger) Completed() int { return l.done }

// Done reports whether task i is marked complete.
func (l *Ledger) Done(i int) bool {
	return l.bits[i>>6]&(1<<uint(i&63)) != 0
}

// Mark records task i complete. Marking an already-done task is a no-op.
func (l *Ledger) Mark(i int) {
	w, b := i>>6, uint64(1)<<uint(i&63)
	if l.bits[w]&b == 0 {
		l.bits[w] |= b
		l.done++
	}
}

// Unmark clears task i — the "dirty" transition ABFT verification uses
// before a block is recomputed.
func (l *Ledger) Unmark(i int) {
	w, b := i>>6, uint64(1)<<uint(i&63)
	if l.bits[w]&b != 0 {
		l.bits[w] &^= b
		l.done--
	}
}

// Bits exports the completion bitset (a copy) and the task count — the
// serialized form a cross-process serving layer ships between a worker's
// salvage and the retry attempt's restore.
func (l *Ledger) Bits() ([]uint64, int) {
	out := make([]uint64, len(l.bits))
	copy(out, l.bits)
	return out, l.n
}

// reset clears every mark, keeping the allocation.
func (l *Ledger) reset() {
	for i := range l.bits {
		l.bits[i] = 0
	}
	l.done = 0
}

// JobLedger is the job-scoped recovery ledger: one Ledger per rank, created
// lazily when each rank's executor learns its task count. It is the object
// a serving layer keeps across retry attempts of one job. Rank is safe for
// concurrent use from every rank; the per-rank Ledgers it returns are
// single-writer (the owning rank).
type JobLedger struct {
	mu    sync.Mutex
	ranks []*Ledger
}

// NewJobLedger sizes a ledger for an nprocs-rank job.
func NewJobLedger(nprocs int) *JobLedger {
	return &JobLedger{ranks: make([]*Ledger, nprocs)}
}

// Rank returns rank's ledger, creating it sized to ntasks on first use. The
// task count is a pure function of (topology, dims, options), so a resumed
// attempt must present the same count; a mismatch is a programming error.
func (j *JobLedger) Rank(rank, ntasks int) *Ledger {
	j.mu.Lock()
	defer j.mu.Unlock()
	l := j.ranks[rank]
	if l == nil {
		l = newLedger(ntasks)
		j.ranks[rank] = l
	} else if l.n != ntasks {
		panic(fmt.Sprintf("core: ledger for rank %d sized for %d tasks, replan has %d", rank, l.n, ntasks))
	}
	return l
}

// RankBits exports rank's bitset and task count, or (nil, 0) if the
// rank's executor never created its ledger.
func (j *JobLedger) RankBits(rank int) ([]uint64, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if rank < 0 || rank >= len(j.ranks) || j.ranks[rank] == nil {
		return nil, 0
	}
	return j.ranks[rank].Bits()
}

// RestoreRank installs a pre-marked ledger for rank from exported bits —
// the cross-process resume path: a retry attempt in a NEW process restores
// the salvaged completion state before its executor plans, and the
// executor's Rank(rank, ntasks) then validates the count. Bits beyond
// ntasks are discarded.
func (j *JobLedger) RestoreRank(rank, ntasks int, bitset []uint64) {
	if ntasks < 0 {
		panic(fmt.Sprintf("core: RestoreRank with %d tasks", ntasks))
	}
	l := newLedger(ntasks)
	copy(l.bits, bitset)
	if rem := uint(ntasks & 63); rem != 0 && len(l.bits) > 0 {
		l.bits[len(l.bits)-1] &= (1 << rem) - 1
	}
	for _, w := range l.bits {
		l.done += bits.OnesCount64(w)
	}
	j.mu.Lock()
	j.ranks[rank] = l
	j.mu.Unlock()
}

// Reset clears rank's marks — the restart path for a rank whose partial C
// could not be salvaged (its completed work is gone, so it must redo
// everything).
func (j *JobLedger) Reset(rank int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if l := j.ranks[rank]; l != nil {
		l.reset()
	}
}

// Completed returns the total completed tasks across ranks.
func (j *JobLedger) Completed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, l := range j.ranks {
		if l != nil {
			n += l.done
		}
	}
	return n
}

// Total returns the total planned tasks across ranks seen so far.
func (j *JobLedger) Total() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, l := range j.ranks {
		if l != nil {
			n += l.n
		}
	}
	return n
}

// cRegion identifies one C view a task accumulates into.
type cRegion struct{ i, j, r, c int }

// Touched is the beta rule: the first gemm into each C region applies the
// caller's beta and every later one accumulates. The executor seeds it
// with the tasks an earlier attempt completed, so fresh, resumed and
// reordered runs all spend each region's beta exactly once.
type Touched map[cRegion]bool

// First reports whether t is the first task into its C region, and marks
// the region touched.
func (s Touched) First(t *Task) bool {
	reg := cRegion{t.CI, t.CJ, t.CR, t.CC}
	if s[reg] {
		return false
	}
	s[reg] = true
	return true
}
