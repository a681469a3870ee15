package core

// Group-level fetch planning: the bridge between the flat per-rank task
// lists and the hierarchical two-level multiplication (internal/hier).
//
// A flat SRUMMA rank fetches every non-direct operand sub-block itself, so
// ranks that share a node repeatedly pull the same remote region over the
// interconnect. The hierarchical outer level instead stages the UNION of a
// group's fetch regions once per group. The exported plan here is that
// union: the exact (matrix, owner, off, ld, rows, cols) tuples group
// members' executors will request, deduplicated, in deterministic
// first-need order. Because the tuples are derived from the same Task
// geometry the executor uses, a staged copy can be substituted for the
// engine fetch byte-for-byte.

import (
	"srumma/internal/grid"
	"srumma/internal/rt"
)

// Matrix identifiers for FetchRegion.
const (
	MatA = 0
	MatB = 1
)

// FetchRegion is one distinct strided sub-block a rank's executor fetches
// with NbGetSub: the one-sided get against the owner's segment of matrix
// Matrix (MatA or MatB), starting at element Off with row stride LD,
// Rows x Cols elements.
type FetchRegion struct {
	Matrix     int
	Owner      int
	Off, LD    int
	Rows, Cols int
}

// Elems returns the number of elements the region moves.
func (r FetchRegion) Elems() int { return r.Rows * r.Cols }

func regionOf(matrix int, it fetchItem) FetchRegion {
	return FetchRegion{Matrix: matrix, Owner: it.owner, Off: it.off, LD: it.ld, Rows: it.rows, Cols: it.cols}
}

// RankFetches returns the exact sequence of fetch regions rank me's
// executor issues for its task list while every owner is healthy, A
// regions then B regions, each in issue order, after the consecutive-task
// and double-buffer-slot reuse the executor applies. The
// sum of Elems over the result is the rank's flat communication volume in
// elements (remote or intra-domain copy, depending on each owner).
func RankFetches(topo rt.Topology, me int, g *grid.Grid, d Dims, opts Options) []FetchRegion {
	tasks := Plan(topo, me, g, d, opts)
	nbuf := 2
	if opts.SingleBuffer {
		nbuf = 1
	}
	sa := buildSchedule(tasks, nbuf, aRegion, func(t *Task) bool { return t.ADirect })
	sb := buildSchedule(tasks, nbuf, bRegion, func(t *Task) bool { return t.BDirect })
	out := make([]FetchRegion, 0, len(sa.items)+len(sb.items))
	for _, it := range sa.items {
		out = append(out, regionOf(MatA, it))
	}
	for _, it := range sb.items {
		out = append(out, regionOf(MatB, it))
	}
	return out
}

// GroupFetchPlan plans against the sub-grid owned by group grp (per
// topo.GroupRanks): it returns the deduplicated union of the fetch regions
// every member's executor will request, in first-need order (members
// ascending, each member's task order within). The result is what the
// hierarchical outer level stages into the group's shared band; dedup
// across members is exactly the inter-group communication the two-level
// scheme saves over flat SRUMMA.
func GroupFetchPlan(topo rt.Topology, grp int, g *grid.Grid, d Dims, opts Options) []FetchRegion {
	lo, hi := topo.GroupRanks(grp)
	seen := make(map[FetchRegion]bool)
	var out []FetchRegion
	add := func(r FetchRegion) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for m := lo; m < hi; m++ {
		tasks := Plan(topo, m, g, d, opts)
		for ti := range tasks {
			t := &tasks[ti]
			if !t.ADirect {
				add(regionOf(MatA, aRegion(t)))
			}
			if !t.BDirect {
				add(regionOf(MatB, bRegion(t)))
			}
		}
	}
	return out
}
