package ipcrt

import (
	"math"
	"strings"
	"testing"
	"time"

	"srumma/internal/core"
	"srumma/internal/faults"
	"srumma/internal/grid"
	"srumma/internal/mat"
	"srumma/internal/rt"
)

// TestInlineOperands is the serving path's engine-level gate, without
// HTTP: a spec carrying A, B and C-in inline must be bit-identical to the
// seed-generated spec they were drawn from, on both transports and for all
// four transpose cases, and each rank's job frame must carry only its own
// blocks — header + 8·(own A + B + C-in elements), O(N²/P) per rank
// rather than the whole problem.
func TestInlineOperands(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	g, err := grid.Square(topo.NProcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []string{"unix", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			cl := launchClusterCfg(t, Config{NP: topo.NProcs, PPN: topo.ProcsPerNode, Transport: transport})
			for _, cs := range []core.Case{core.NN, core.TN, core.NT, core.TT} {
				t.Run(cs.String(), func(t *testing.T) {
					seeded := DefaultSpec(96, 80, 112)
					seeded.Case = int(cs)
					seeded.Beta = 0.5
					seeded.ReturnC = true
					seeded.KernelThreads = 1

					da, db, dc := core.Dists(g, core.Dims{M: 96, N: 80, K: 112}, cs)
					inline := *seeded
					inline.A = mat.Random(da.Rows, da.Cols, seeded.Seed).Data
					inline.B = mat.Random(db.Rows, db.Cols, seeded.Seed+1).Data
					inline.CIn = mat.Random(dc.Rows, dc.Cols, seeded.Seed+2).Data
					// A different seed proves the shipped operands, not
					// the seed, drive the result.
					inline.Seed = seeded.Seed + 100

					want, err := cl.RunJob(seeded, 2*time.Minute)
					if err != nil {
						t.Fatalf("seeded RunJob: %v", err)
					}
					got, err := cl.RunJob(&inline, 2*time.Minute)
					if err != nil {
						t.Fatalf("inline RunJob: %v", err)
					}
					local := armciBlocks(t, topo, &inline)
					total := len(inline.A) + len(inline.B) + len(inline.CIn)
					for rank, res := range got {
						if res.Err != "" {
							t.Fatalf("rank %d: %s", rank, res.Err)
						}
						assertBits(t, "inline vs seeded", rank, res.C, want[rank].C)
						assertBits(t, "in-process inline vs seeded", rank, local[rank], want[rank].C)

						var f frame
						if err := jobFrame(&f, &inline, topo.NProcs, rank); err != nil {
							t.Fatal(err)
						}
						hdr := f.P[0]
						if hdr > 1024 {
							t.Errorf("rank %d: %d-byte job header, want scalars only", rank, hdr)
						}
						own := 0
						for _, d := range []*grid.BlockDist{da, db, dc} {
							r, c := d.LocalShape(rank)
							own += r * c
						}
						if res.JobBytes != hdr+8*int64(own) {
							t.Errorf("rank %d: job frame body %d bytes, want header %d + 8·%d own elements",
								rank, res.JobBytes, hdr, own)
						}
						if 2*own > total {
							t.Errorf("rank %d: own blocks %d of %d elements, want about 1/%d",
								rank, own, total, topo.NProcs)
						}
					}
				})
			}
		})
	}
}

// TestInlineOperandShape: an inline operand that does not match the spec's
// shape fails RunJob before any rank is dispatched, so the cluster stays
// usable for the next job.
func TestInlineOperandShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	cl := launchCluster(t, 4, 2)
	bad := DefaultSpec(32, 32, 32)
	bad.A = make([]float64, 32*32-1)
	bad.B = make([]float64, 32*32)
	if _, err := cl.RunJob(bad, time.Minute); err == nil || !strings.Contains(err.Error(), "inline operand A") {
		t.Fatalf("mis-sized A: err = %v, want an inline operand A error", err)
	}
	res, err := cl.RunJob(DefaultSpec(32, 32, 32), time.Minute)
	if err != nil {
		t.Fatalf("job after the rejected spec: %v", err)
	}
	for rank, r := range res {
		if r.Err != "" {
			t.Fatalf("rank %d: %s", rank, r.Err)
		}
	}
}

// TestInlineResume carries a crashed rank's salvage through both raw
// tails: the FIN frame returns its partial C block, the retry's job frame
// ships it back, and the resumed rank must skip its completed tasks (fewer
// flops than a fault-free run) while every C block stays bit-identical.
func TestInlineResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	g, err := grid.Square(topo.NProcs)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSpec(96, 80, 112)
	spec.Beta = 0.5
	spec.ReturnC = true
	spec.KernelThreads = 1
	spec.MaxTaskK = 8
	spec.UseLedger = true
	da, db, dc := core.Dists(g, core.Dims{M: 96, N: 80, K: 112}, core.NN)
	spec.A = mat.Random(da.Rows, da.Cols, 7).Data
	spec.B = mat.Random(db.Rows, db.Cols, 8).Data
	spec.CIn = mat.Random(dc.Rows, dc.Cols, 9).Data

	want, err := launchCluster(t, topo.NProcs, topo.ProcsPerNode).RunJob(spec, 2*time.Minute)
	if err != nil {
		t.Fatalf("fault-free RunJob: %v", err)
	}

	// Seed 13 crashes rank 3 at its 6th local gemm, after completed tasks.
	crash := *spec
	crash.Chaos = &faults.Config{Seed: 13, ComputeCrash: true, ComputeCrashOpSpan: 6}
	failed, err := launchCluster(t, topo.NProcs, topo.ProcsPerNode).RunJob(&crash, 2*time.Minute)
	if err == nil {
		t.Fatal("planted crash did not fail the job")
	}
	spec.Resume = map[int]*Salvage{}
	for _, r := range failed {
		if p := r.Salvage(); p != nil {
			spec.Resume[r.Rank] = p
		}
	}
	if len(spec.Resume) == 0 {
		t.Fatal("no rank salvaged its partial C block")
	}

	got, err := launchCluster(t, topo.NProcs, topo.ProcsPerNode).RunJob(spec, 2*time.Minute)
	if err != nil {
		t.Fatalf("resumed RunJob: %v", err)
	}
	local := armciBlocks(t, topo, spec)
	for rank, res := range got {
		assertBits(t, "resumed vs fault-free", rank, res.C, want[rank].C)
		assertBits(t, "in-process resumed vs fault-free", rank, local[rank], want[rank].C)
		if _, ok := spec.Resume[rank]; ok && res.Stats.Flops >= want[rank].Stats.Flops {
			t.Errorf("rank %d: resumed attempt ran %.0f flops, fault-free %.0f: it restarted instead of resuming",
				rank, res.Stats.Flops, want[rank].Stats.Flops)
		}
	}
}

func assertBits(t *testing.T, label string, rank int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rank %d: %d elements, want %d", label, rank, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: rank %d element %d: %v != %v (bit difference)", label, rank, i, got[i], want[i])
		}
	}
}
