package ipcrt

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"srumma/internal/core"
	"srumma/internal/rt"
)

// launchClusterCfg is launchCluster with a full Config (transport tests).
func launchClusterCfg(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if !Available() {
		t.Skip("multi-process engine unavailable on this platform")
	}
	cl, err := Launch(cfg)
	if err != nil {
		t.Fatalf("Launch(%+v): %v", cfg, err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestTCPBitIdentical is the tcp-transport twin of TestIPCBitIdentical:
// same topology, control plane and cross-domain RMA over TCP instead of
// unix sockets, and the per-peer scheme selection must actually have
// dialed TCP (TCPPeers > 0) while producing bit-identical C blocks.
func TestTCPBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	cl := launchClusterCfg(t, Config{NP: topo.NProcs, PPN: topo.ProcsPerNode, Transport: "tcp"})

	for _, cs := range []core.Case{core.NN, core.TN, core.NT, core.TT} {
		t.Run(cs.String(), func(t *testing.T) {
			spec := DefaultSpec(96, 80, 112)
			spec.Case = int(cs)
			spec.Beta = 0.5
			spec.ReturnC = true
			spec.KernelThreads = 1

			results, err := cl.RunJob(spec, 2*time.Minute)
			if err != nil {
				t.Fatalf("RunJob: %v", err)
			}
			want := armciBlocks(t, topo, spec)
			tcpDials := int64(0)
			for rank, res := range results {
				if res.Err != "" {
					t.Fatalf("rank %d: %s", rank, res.Err)
				}
				tcpDials += res.TCPPeers
				if len(res.C) != len(want[rank]) {
					t.Fatalf("rank %d: C block has %d elements, armci has %d", rank, len(res.C), len(want[rank]))
				}
				for i := range res.C {
					if math.Float64bits(res.C[i]) != math.Float64bits(want[rank][i]) {
						t.Fatalf("rank %d element %d: tcp %v != armci %v (bit difference)",
							rank, i, res.C[i], want[rank][i])
					}
				}
			}
			if tcpDials == 0 {
				t.Error("no rank dialed a TCP peer: cross-domain traffic did not take the tcp transport")
			}
		})
	}
}

// rawTCPServer starts a coordinator-less ctx serving the RMA protocol on a
// TCP listener, with one 16-element segment registered as id 1.
func rawTCPServer(t *testing.T) string {
	t.Helper()
	c := newCtx(0, rt.Topology{NProcs: 1, ProcsPerNode: 1}, t.TempDir(), nil)
	c.segs[1] = &segment{id: 1, sizes: []int{16}, maps: map[int]*segMap{0: {data: make([]float64, 16)}}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("tcp listener: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go c.serveRMA(ln)
	return ln.Addr().String()
}

// expectServerAlive proves the RMA server survived a poisoned connection:
// a fresh dial must still answer a valid get.
func expectServerAlive(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("redial after malformed frame: %v", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &frame{Op: opGet, Seq: 1, P: [5]int64{1, 0, 4}}); err != nil {
		t.Fatalf("valid get after malformed frame: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := readFrame(conn)
	if err != nil {
		t.Fatalf("reading get response: %v", err)
	}
	if resp.Op != opAck || resp.Seq != 1 || len(resp.Body) != 4*8 {
		t.Fatalf("get response %+v, want 4-element ack seq 1", resp)
	}
}

// TestTCPMalformed drives the unix-socket suite's malformed frames at a
// live TCP RMA server: every one must close the offending connection
// without tearing the server down — and without allocating the declared
// body (the oversized cases would OOM otherwise).
func TestTCPMalformed(t *testing.T) {
	addr := rawTCPServer(t)
	get := frame{Op: opGet, Seq: 1, P: [5]int64{1, 0, 8}}
	tests := []struct {
		name string
		raw  []byte
	}{
		{"bad magic", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint32(h[0:4], 0xdeadbeef)
		})},
		{"bad version", corrupt(t, get, func(h []byte) { h[4] = 99 })},
		{"zero op", corrupt(t, get, func(h []byte) { h[5] = 0 })},
		{"op out of range", corrupt(t, get, func(h []byte) { h[5] = byte(opCount) })},
		{"reserved bytes set", corrupt(t, get, func(h []byte) { h[6] = 1 })},
		{"oversized body", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[56:64], uint64(maxBodyLen)+1)
		})},
		{"negative body (wrapped)", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[56:64], math.MaxUint64)
		})},
		{"negative segment id", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], math.MaxUint64)
		})},
		{"huge segment id", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], uint64(maxSegID)+1)
		})},
		{"huge get count", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[32:40], uint64(maxElems)+1)
		})},
		{"get-sub ld < cols", corrupt(t, frame{Op: opGetSub, P: [5]int64{1, 0, 4, 2, 8}},
			func(h []byte) {})},
		{"get-sub product overflow", corrupt(t, frame{Op: opGetSub,
			P: [5]int64{1, 0, maxElems, maxElems, maxElems}}, func(h []byte) {})},
		{"put body not float-aligned", corrupt(t, frame{Op: opPut, P: [5]int64{1, 0}, Body: make([]byte, 12)},
			func(h []byte) {})},
		{"control op on RMA conn", corrupt(t, frame{Op: opShutdown}, func(h []byte) {})},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.raw); err != nil {
				t.Fatalf("write: %v", err)
			}
			conn.(*net.TCPConn).CloseWrite()
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			// The server either answers opErr (validated op against the wrong
			// target) or drops the connection (frame-level garbage); in both
			// cases the stream must end without the server dying.
			for {
				f, err := readFrame(conn)
				if err != nil {
					break
				}
				if f.Op != opErr {
					t.Fatalf("malformed frame %q got non-error response %+v", tc.name, f)
				}
			}
			expectServerAlive(t, addr)
		})
	}
}

// TestTCPTruncated cuts the stream mid-header and mid-body: the server
// must treat both as a dead peer, not block or crash.
func TestTCPTruncated(t *testing.T) {
	addr := rawTCPServer(t)
	var buf bytes.Buffer
	if err := writeFrame(&buf, &frame{Op: opPut, Seq: 3, P: [5]int64{1, 0}, Body: floatBytes(make([]float64, 8))}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, tc := range []struct {
		name string
		cut  int
	}{
		{"mid-header", headerLen - 8},
		{"mid-body", headerLen + 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			if _, err := conn.Write(raw[:tc.cut]); err != nil {
				t.Fatalf("write: %v", err)
			}
			conn.(*net.TCPConn).CloseWrite()
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if f, err := readFrame(conn); err == nil {
				t.Fatalf("truncated stream got response %+v", f)
			}
			expectServerAlive(t, addr)
		})
	}
}

var (
	fuzzTCPOnce sync.Once
	fuzzTCPAddr string
)

// FuzzTCPWire throws arbitrary byte streams at a LIVE TCP RMA server (one
// shared across the fuzzing session): whatever arrives, the server must
// keep running — close the connection or answer opErr frames, never panic
// or wedge. Server-side panics crash the whole test process, so survival
// of the fuzz loop is the assertion.
func FuzzTCPWire(f *testing.F) {
	seed := []frame{
		{Op: opGet, Seq: 7, P: [5]int64{1, 0, 8}},
		{Op: opGetSub, Seq: 8, P: [5]int64{1, 0, 16, 4, 8}},
		{Op: opPut, Seq: 9, P: [5]int64{1, 8}, Body: floatBytes([]float64{1, 2, 3})},
		{Op: opFetchAdd, Seq: 10, P: [5]int64{1, 3, float64bits(1)}},
		{Op: opMsg, P: [5]int64{0, 17}, Body: floatBytes([]float64{9})},
		// Control-plane frames with raw tails must be refused by the RMA
		// server, never decoded into a job.
		layoutFrame(opJob, `{"M":2,"N":2,"K":2,"Inline":true}`, []float64{1, 2}, []float64{3, 4}, []float64{5}, nil),
		layoutFrame(opFin, `{"Rank":1,"CRows":1,"CCols":2}`, []float64{6, 7}),
	}
	for _, fr := range seed {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(make([]byte, headerLen-1))
	f.Add(bytes.Repeat([]byte{0xff}, headerLen+16))

	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzTCPOnce.Do(func() {
			c := newCtx(0, rt.Topology{NProcs: 1, ProcsPerNode: 1}, t.TempDir(), nil)
			c.segs[1] = &segment{id: 1, sizes: []int{16}, maps: map[int]*segMap{0: {data: make([]float64, 16)}}}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("tcp listener: %v", err)
			}
			go c.serveRMA(ln)
			fuzzTCPAddr = ln.Addr().String()
		})
		conn, err := net.Dial("tcp", fuzzTCPAddr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		conn.Write(raw)
		conn.(*net.TCPConn).CloseWrite()
		// Drain until the server ends the stream (EOF after its last
		// response, or an immediate close on garbage).
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		io.Copy(io.Discard, conn)
	})
}

// TestSegmentPoolReuse pins the steady-state allocation contract: the
// second same-shape job on a warm cluster must create NO new segment
// files (flat lifetime MmapMallocs) and map NO new peer segments
// (DirectMaps == 0 for the job), while staying bit-identical to a fresh
// in-process run — stale pooled contents must never leak into results.
func TestSegmentPoolReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	topo := rt.Topology{NProcs: 4, ProcsPerNode: 2}
	cl := launchCluster(t, topo.NProcs, topo.ProcsPerNode)

	spec := DefaultSpec(64, 64, 64)
	spec.Beta = 0.5
	spec.ReturnC = true
	spec.KernelThreads = 1

	first, err := cl.RunJob(spec, 2*time.Minute)
	if err != nil {
		t.Fatalf("job 1: %v", err)
	}
	baseline := make([]int64, len(first))
	for rank, res := range first {
		if res.Err != "" {
			t.Fatalf("job 1 rank %d: %s", rank, res.Err)
		}
		if res.MmapMallocs == 0 {
			t.Fatalf("job 1 rank %d reports no mmap mallocs — counter dead", rank)
		}
		baseline[rank] = res.MmapMallocs
	}

	second, err := cl.RunJob(spec, 2*time.Minute)
	if err != nil {
		t.Fatalf("job 2: %v", err)
	}
	want := armciBlocks(t, topo, spec)
	for rank, res := range second {
		if res.Err != "" {
			t.Fatalf("job 2 rank %d: %s", rank, res.Err)
		}
		if res.MmapMallocs != baseline[rank] {
			t.Errorf("rank %d mmap mallocs %d -> %d: warm pool still creating segments",
				rank, baseline[rank], res.MmapMallocs)
		}
		if res.DirectMaps != 0 {
			t.Errorf("rank %d mapped %d peer segments on a warm pool", rank, res.DirectMaps)
		}
		for i := range res.C {
			if math.Float64bits(res.C[i]) != math.Float64bits(want[rank][i]) {
				t.Fatalf("rank %d element %d: pooled %v != armci %v (stale segment leaked)",
					rank, i, res.C[i], want[rank][i])
			}
		}
	}

	// A different shape must not be force-fitted into parked segments.
	other := DefaultSpec(96, 48, 32)
	other.KernelThreads = 1
	third, err := cl.RunJob(other, 2*time.Minute)
	if err != nil {
		t.Fatalf("job 3: %v", err)
	}
	for rank, res := range third {
		if res.Err != "" {
			t.Fatalf("job 3 rank %d: %s", rank, res.Err)
		}
		if res.MmapMallocs <= baseline[rank] {
			t.Errorf("rank %d mmap mallocs stuck at %d for a new shape", rank, res.MmapMallocs)
		}
	}
}
