package faults

import (
	"testing"

	"srumma/internal/armci"
	"srumma/internal/rt"
)

// countSums counts the checksums the recovery layer takes beneath it: a
// ReadBuf of a landed get payload, or a ChecksumRegion of a get's source or
// a put's target.
type countSums struct {
	rt.Ctx
	sum SourceChecksummer
	n   int
}

func (c *countSums) Unwrap() rt.Ctx { return c.Ctx }

func (c *countSums) ReadBuf(src rt.Buffer, off, n int) []float64 {
	c.n++
	return c.Ctx.ReadBuf(src, off, n)
}

func (c *countSums) ChecksumRegion(g rt.Global, rank, off, ld, rows, cols int) uint64 {
	c.n++
	return c.sum.ChecksumRegion(g, rank, off, ld, rows, cols)
}

// TestRepeatWaitIsNoOp: a second Wait on a settled get or put handle takes
// no checksum and leaves the owner's latency EWMA alone.
func TestRepeatWaitIsNoOp(t *testing.T) {
	_, err := armci.Run(rt.Topology{NProcs: 2, ProcsPerNode: 1}, func(raw rt.Ctx) {
		cs := &countSums{Ctx: raw, sum: checksummerOf(raw)}
		c := Resilient(cs, RecoveryConfig{}).(*resCtx)
		g := c.Malloc(16)
		peer := 1 - c.Rank()
		buf := c.LocalBuf(16)
		// Gets read elements [0, 7) of the peer's segment; puts write
		// [8, 16), so the two ranks' transfers never overlap.
		get := c.NbGetSub(g, peer, 0, 4, 2, 3, buf, 0)
		c.Wait(get)
		c.Barrier()
		put := c.NbPut(buf, 0, 8, g, peer, 8)
		c.Wait(put)
		for _, h := range []rt.Handle{get, put} {
			c.ewma[peer] = 1 // a straggler's EWMA, which a zero-wait sample would decay
			n := cs.n
			c.Wait(h)
			if c.ewma[peer] != 1 || cs.n != n {
				t.Errorf("rank %d: repeat Wait on %T moved the EWMA to %g and took %d checksums", c.Rank(), h, c.ewma[peer], cs.n-n)
			}
		}
		c.Barrier()
		c.Free(g)
	})
	if err != nil {
		t.Fatal(err)
	}
}
