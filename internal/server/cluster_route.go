package server

// Cluster route: the serving layer's bridge to internal/cluster. When the
// server runs with Config.Cluster, requests that would take the in-process
// SRUMMA route are sharded onto a pool of worker NODES — each an ipcrt
// coordinator owning OS-process ranks — placed by a locality key so a
// node's persistent segment pool stays warm for repeated shapes.
//
// Failure folds into the EXISTING recovery policy rather than growing a
// new one: a worker death surfaces from the pool as rt.ErrRankExited (the
// node is replaced synchronously before the error returns), the handler's
// retry budget resubmits the job, and clusterRecover carries the salvaged
// per-rank C blocks + ledger bitsets across attempts so the retry resumes
// from completed tasks instead of restarting — bit-identical either way.
// Unlike the in-process path, a node failure never poisons the scheduler's
// team worker (ReplaceWorker): the unit of repair is the node, and the
// pool already replaced it.

import (
	"fmt"
	mathbits "math/bits"
	"sync"
	"time"

	"srumma/internal/cluster"
	"srumma/internal/grid"
	"srumma/internal/ipcrt"
	"srumma/internal/mat"
	"srumma/internal/sched"
)

// clusterRecover is one sharded request's recovery state, shared by every
// retry attempt: the per-rank salvage (partial C block, ledger bitset,
// task count) that a failed attempt's workers shipped back in their FIN
// payloads.
type clusterRecover struct {
	resume bool // ledger-based resume enabled (!NoResume)
	abft   bool // this request verifies blocks (may be shed by brownout)

	mu    sync.Mutex
	prior map[int]*ipcrt.Salvage
}

func (s *Server) newClusterRecover(abft bool) *clusterRecover {
	return &clusterRecover{resume: !s.cfg.NoResume, abft: abft}
}

// store replaces the salvage with what the failed attempt's results carry.
// Ranks without salvage (they exited cleanly before a peer's death aborted
// the run) simply have no entry and restart from the request inputs — the
// same reconciliation recoverJob.prepareRetry performs in-process.
func (cr *clusterRecover) store(results []*ipcrt.RankResult) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.prior = nil
	for _, r := range results {
		p := r.Salvage()
		if p == nil {
			continue
		}
		if cr.prior == nil {
			cr.prior = make(map[int]*ipcrt.Salvage)
		}
		cr.prior[r.Rank] = p
	}
}

// resumedTasks counts the completed tasks the next attempt will skip — the
// resumed-work figure the recovery metrics report.
func (cr *clusterRecover) resumedTasks() int {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	n := 0
	for _, p := range cr.prior {
		for _, w := range p.Bits {
			n += mathbits.OnesCount64(w)
		}
	}
	return n
}

// take consumes the salvage for one attempt. Consuming on read keeps
// salvage and marks in lockstep across multiple retries, exactly like
// recoverJob.take: stale salvage can never pair with newer ledger state.
func (cr *clusterRecover) take() map[int]*ipcrt.Salvage {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	prior := cr.prior
	cr.prior = nil
	return prior
}

// execClusterTask runs one sharded multiply from the scheduler. The team
// worker hosting this dispatch stays idle (the pool's worker processes do
// the arithmetic) but healthy: node failures are repaired inside the pool,
// so the outcome never requests ReplaceWorker.
func (s *Server) execClusterTask(t *sched.Task, job *schedJob) sched.Outcome {
	job.started = time.Now()
	job.batch = 1
	out, err := s.runCluster(job)
	job.out = out
	job.finished = time.Now()
	t.Finish(err)
	return sched.Outcome{}
}

// runCluster builds the wire-level job spec from the request (inline
// operands, resume salvage, verification flags), places it on a node by
// locality key, and assembles the per-rank C blocks into the result. On
// failure it banks whatever the ranks salvaged for the handler's retry.
func (s *Server) runCluster(job *schedJob) (*mat.Matrix, error) {
	req, cs, d, crec := job.req, job.cs, job.d, job.crec
	if err := job.ctx.Err(); err != nil {
		return nil, err
	}
	kt := req.KernelThreads
	if kt <= 0 {
		kt = s.cfg.KernelThreads
	}
	spec := &ipcrt.JobSpec{
		M: d.M, N: d.N, K: d.K,
		Case:  int(cs),
		Alpha: req.alpha(),
		Beta:  req.beta(),
		A:     req.A,
		B:     req.B,

		KernelThreads: kt,
		MaxTaskK:      s.cfg.MaxTaskK,
		ReturnC:       true,
		Trace:         job.traced && s.rec != nil,
		ExitRank:      -1,
		HangRank:      -1,
	}
	if req.beta() != 0 {
		spec.CIn = req.C
	}
	if crec.resume {
		spec.UseLedger = true
		spec.Resume = crec.take()
	}
	if crec.abft {
		spec.ABFT = true
		spec.ABFTTol = s.cfg.ABFTTol
	}
	if s.cfg.Hier {
		// Hierarchical routing mode: the worker ranks run the two-level
		// multiply with groups mapped onto the emulated domains — i.e. one
		// group per worker node (JobSpec.HierGroup 0 keeps that default).
		spec.Hier = true
		spec.HierGroup = s.cfg.HierGroup
	}

	class := req.Class
	if class == "" {
		class = sched.ClassInteractive.String()
	}
	key := cluster.PlaceKey{Class: class, M: d.M, N: d.N, K: d.K, Case: int(cs)}
	results, err := s.cpool.Run(spec, key)

	// Cross-process observability rides the FIN payloads: worker trace
	// events merge onto the server recorder's epoch (rank lanes are shared
	// with the in-process teams — one timeline for the whole service), and
	// worker-side ABFT counts land in the same recover.* counters.
	if spec.Trace {
		for _, e := range ipcrt.MergeEvents(results, s.rec.Epoch()) {
			s.rec.Record(e.Rank, e.Kind, e.Start, e.End)
		}
	}
	var det, rec int64
	for _, r := range results {
		if r != nil && r.Stats != nil {
			det += r.Stats.ABFTDetected
			rec += r.Stats.ABFTRecomputed
		}
	}
	s.met.noteABFT(det, rec)

	if err != nil {
		if crec.resume {
			crec.store(results)
		}
		return nil, err
	}

	blocks := make([]*mat.Matrix, len(results))
	for rank, r := range results {
		if r == nil {
			return nil, fmt.Errorf("cluster: rank %d returned no result", rank)
		}
		if r.Err != "" {
			return nil, fmt.Errorf("cluster: rank %d: %s", rank, r.Err)
		}
		blocks[rank] = &mat.Matrix{Rows: r.CRows, Cols: r.CCols, Stride: r.CCols, Data: r.C}
	}
	return grid.NewBlockDist(s.g, d.M, d.N).Gather(blocks)
}
