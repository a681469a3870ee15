package core

import (
	"testing"
	"testing/quick"

	"srumma/internal/grid"
	"srumma/internal/machine"
	"srumma/internal/rt"
	"srumma/internal/simrt"
)

// coverage sums, per C element region, the k-lengths of the tasks covering
// it; a correct plan covers every C element with total k-length K exactly.
func planCovers(topo rt.Topology, me int, g *grid.Grid, d Dims, opts Options) bool {
	tasks := Plan(topo, me, g, d, opts)
	_, _, dc := Dists(g, d, opts.Case)
	myRow, myCol := g.Coords(me)
	mLoc := dc.RowChunks[myRow].N
	nLoc := dc.ColChunks[myCol].N
	got := make([]int, mLoc*nLoc)
	for _, t := range tasks {
		kLen := t.ASubC
		if opts.Case.TransA() {
			kLen = t.ASubR
		}
		// Sanity: A and B agree on the k length.
		bk := t.BSubR
		if opts.Case.TransB() {
			bk = t.BSubC
		}
		if bk != kLen {
			return false
		}
		for i := t.CI; i < t.CI+t.CR; i++ {
			for j := t.CJ; j < t.CJ+t.CC; j++ {
				got[i*nLoc+j] += kLen
			}
		}
	}
	for _, v := range got {
		if v != d.K {
			return false
		}
	}
	return true
}

func TestPlanCoversEveryElementQuick(t *testing.T) {
	f := func(mm, nn, kk, pp, cc, ppn uint8) bool {
		d := Dims{M: 1 + int(mm%30), N: 1 + int(nn%30), K: 1 + int(kk%30)}
		grids := [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 2}, {1, 4}, {4, 2}}
		pq := grids[int(pp)%len(grids)]
		g, _ := grid.New(pq[0], pq[1])
		opts := Options{Case: Cases[int(cc)%4]}
		topo := rt.Topology{NProcs: g.Size(), ProcsPerNode: 1 + int(ppn%4)}
		for me := 0; me < g.Size(); me++ {
			if !planCovers(topo, me, g, d, opts) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanSharedTasksFirst(t *testing.T) {
	// 4x4 grid, 4-way nodes (the paper's Figure 4 setup): each rank's plan
	// must list all no-fetch tasks before any fetch task.
	g, _ := grid.New(4, 4)
	topo := rt.Topology{NProcs: 16, ProcsPerNode: 4}
	d := Dims{M: 32, N: 32, K: 32}
	for me := 0; me < 16; me++ {
		tasks := Plan(topo, me, g, d, Options{})
		seenFetch := false
		nShared := 0
		for _, tk := range tasks {
			if tk.shared() {
				if seenFetch {
					t.Fatalf("rank %d: shared task after fetch task", me)
				}
				nShared++
			} else {
				seenFetch = true
			}
		}
		if nShared == 0 {
			t.Fatalf("rank %d: no shared tasks at all (own block should qualify)", me)
		}
	}
}

func TestPlanSharedFirstDisabled(t *testing.T) {
	g, _ := grid.New(4, 4)
	topo := rt.Topology{NProcs: 16, ProcsPerNode: 4}
	d := Dims{M: 32, N: 32, K: 32}
	// With NoSharedFirst and NoDiagonalShift, tasks stay in k order.
	tasks := Plan(topo, 0, g, d, Options{NoSharedFirst: true, NoDiagonalShift: true})
	for i := 1; i < len(tasks); i++ {
		if tasks[i].KIdx < tasks[i-1].KIdx {
			t.Fatalf("k order broken at %d: %d after %d", i, tasks[i].KIdx, tasks[i-1].KIdx)
		}
	}
}

func TestPlanDiagonalShiftSpreadsFirstFetch(t *testing.T) {
	// Paper Figure 4: with column-major ranks on a 4x4 grid over 4-way
	// nodes, the first *remote* A-fetch of the four processes in node 0
	// must target four different nodes.
	g, _ := grid.New(4, 4)
	topo := rt.Topology{NProcs: 16, ProcsPerNode: 4}
	d := Dims{M: 64, N: 64, K: 64}
	firstNodes := map[int]bool{}
	for me := 0; me < 4; me++ { // node 0 holds grid column 0
		tasks := Plan(topo, me, g, d, Options{})
		for _, tk := range tasks {
			if !tk.ADirect {
				firstNodes[topo.NodeOf(tk.AOwner)] = true
				break
			}
		}
	}
	if len(firstNodes) < 3 {
		t.Fatalf("diagonal shift did not spread first fetches: nodes %v", firstNodes)
	}
	// Ablation: without the shift every process starts at the same k.
	firstNodes = map[int]bool{}
	for me := 0; me < 4; me++ {
		tasks := Plan(topo, me, g, d, Options{NoDiagonalShift: true})
		for _, tk := range tasks {
			if !tk.ADirect {
				firstNodes[topo.NodeOf(tk.AOwner)] = true
				break
			}
		}
	}
	if len(firstNodes) != 1 {
		t.Fatalf("without shift, first fetches should collide on one node, got %v", firstNodes)
	}
}

func TestPlanFlavorControlsDirectness(t *testing.T) {
	g, _ := grid.New(2, 2)
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 4, DomainSpansMachine: true}
	d := Dims{M: 16, N: 16, K: 16}
	direct := Plan(topo, 0, g, d, Options{Flavor: FlavorDirect})
	for _, tk := range direct {
		if !tk.ADirect || !tk.BDirect {
			t.Fatal("FlavorDirect on a shared machine must make every operand direct")
		}
	}
	copyP := Plan(topo, 0, g, d, Options{Flavor: FlavorCopy})
	anyFetch := false
	for _, tk := range copyP {
		if tk.AOwner != 0 && tk.ADirect {
			t.Fatal("FlavorCopy must not direct-access non-local blocks")
		}
		if !tk.ADirect || !tk.BDirect {
			anyFetch = true
		}
	}
	if !anyFetch {
		t.Fatal("FlavorCopy produced no fetches")
	}
}

// SRUMMA must run to completion on the sim engine for all platforms and be
// deterministic; end-to-end shape checks live in the bench package.
func TestMultiplyOnSimEngine(t *testing.T) {
	for name, prof := range machine.All() {
		prof := prof
		t.Run(name, func(t *testing.T) {
			g, _ := grid.New(2, 4)
			d := Dims{M: 256, N: 256, K: 256}
			opts := Options{}
			if !prof.RemoteCacheable && prof.DomainSpansMachine {
				opts.Flavor = FlavorCopy
			}
			run := func() float64 {
				da, db, dc := Dists(g, d, opts.Case)
				res, err := simrt.Run(prof, 8, func(c rt.Ctx) {
					r, cc := da.LocalShape(c.Rank())
					ga := c.Malloc(r * cc)
					r, cc = db.LocalShape(c.Rank())
					gb := c.Malloc(r * cc)
					r, cc = dc.LocalShape(c.Rank())
					gc := c.Malloc(r * cc)
					if err := Multiply(c, g, d, opts, ga, gb, gc); err != nil {
						panic(err)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.Time
			}
			t1, t2 := run(), run()
			if t1 != t2 {
				t.Fatalf("nondeterministic: %v vs %v", t1, t2)
			}
			if t1 <= 0 {
				t.Fatal("zero simulated time")
			}
			// Sanity: the run must beat one processor doing all the work
			// and lose to perfect speedup.
			serial := prof.GemmTime(256, 256, 256, false)
			if t1 >= serial {
				t.Fatalf("parallel time %.4g not below serial %.4g", t1, serial)
			}
			if t1 <= serial/8 {
				t.Fatalf("parallel time %.4g beats perfect speedup %.4g", t1, serial/8)
			}
		})
	}
}
