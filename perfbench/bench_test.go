package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"srumma/internal/mat"
	"srumma/internal/server"
)

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSegmentMedianIgnoresABurst(t *testing.T) {
	// 1000 completions 1 ms apart, of which 300 in a row take 5 ms.
	ss := make([]sample, 1000)
	for i := range ss {
		ss[i].latMs, ss[i].gap = 1, time.Millisecond
		if i >= 400 && i < 700 {
			ss[i].latMs, ss[i].gap = 5, 5*time.Millisecond
		}
	}
	var sizes []int
	p50 := segmentMedian(ss, segmentSize, func(seg []sample) float64 {
		sizes = append(sizes, len(seg))
		return percentile(latencies(seg), 50)
	})
	if p50 != 1 || len(sizes) != 10 {
		t.Errorf("median over %d segments is %g ms, want 1 ms over 10", len(sizes), p50)
	}
	sizes = nil
	segmentMedian(ss[:250], segmentSize, func(seg []sample) float64 { sizes = append(sizes, len(seg)); return 0 })
	if len(sizes) != 2 || sizes[0] < segmentSize || sizes[1] < segmentSize {
		t.Errorf("250 samples cut into segments of %v, want 2 of at least %d", sizes, segmentSize)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// fingerprint digests everything a plan sends: each client's request
// sequence with every body and class, and the warm-up.
func fingerprint(p *plan) [32]byte {
	h := sha256.New()
	emit := func(it *item) {
		h.Write(it.body)
		h.Write([]byte(it.class + it.wire + it.label))
	}
	for _, seq := range p.seqs {
		for _, i := range seq {
			emit(p.items[i])
		}
		h.Write([]byte{0})
	}
	for _, i := range p.warmup {
		emit(p.items[i])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSeedDeterminesRequestSequence(t *testing.T) {
	for _, w := range workloads {
		a, err := w.build(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.build(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.build(8)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(a) != fingerprint(b) {
			t.Errorf("%s: seed 7 built two different request sequences", w.name)
		}
		if fingerprint(a) == fingerprint(c) {
			t.Errorf("%s: seeds 7 and 8 built the same request sequence", w.name)
		}
	}
}

func TestJSONCacheColdStreamOutlivesCache(t *testing.T) {
	p, err := buildJSONCache(1)
	if err != nil {
		t.Fatal(err)
	}
	// Between two sends of one cold pair by a client, the cache must see
	// more distinct pairs than it holds, so the pair always misses.
	for c, seq := range p.seqs {
		cold, hot := 0, 0
		for _, i := range seq {
			if hotIndex(p, i) {
				hot++
			} else {
				cold++
			}
		}
		if cold != coldPerClient || hot != 3*coldPerClient {
			t.Fatalf("client %d: %d cold and %d hot sends per cycle, want %d and %d", c, cold, hot, coldPerClient, 3*coldPerClient)
		}
	}
	if distinct := numClients*coldPerClient + hotPairs - 1; distinct <= cacheEntries {
		t.Fatalf("only %d other pairs between revisits of a cold pair; the cache holds %d", distinct, cacheEntries)
	}
}

// hotIndex reports whether item i shares its operands with a hot-set item.
func hotIndex(p *plan, i int) bool {
	for _, w := range p.warmup {
		if sameOperands(p.items[w], p.items[i]) {
			return true
		}
	}
	return false
}

func sameOperands(a, b *item) bool { return &a.ref[0] == &b.ref[0] }

func TestCheckRejectsOneChangedElement(t *testing.T) {
	p, err := buildCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range p.items {
		c := append([]float64(nil), it.ref...)
		if err := it.checkProduct(it.m, it.n, c); err != nil {
			t.Fatalf("%s: reference rejected: %v", it.label, err)
		}
		c[len(c)/3] += 1e-6
		if err := it.checkProduct(it.m, it.n, c); err == nil {
			t.Errorf("%s: accepted a product with one element changed by 1e-6 (tolerance %g)", it.label, it.tol)
		}
	}
}

// A JSON response with the right shape but no product, as a cache that
// lost an entry's data would send, must fail the check.
func TestCheckRejectsMissingJSONProduct(t *testing.T) {
	p, err := buildJSONCache(1)
	if err != nil {
		t.Fatal(err)
	}
	it := p.items[0]
	for _, body := range []string{
		fmt.Sprintf(`{"rows":%d,"cols":%d,"c":null,"route":"srumma","cached":true}`, it.m, it.n),
		fmt.Sprintf(`{"rows":%d,"cols":%d,"route":"srumma","cached":true}`, it.m, it.n),
		fmt.Sprintf(`{"rows":%d,"cols":%d,"c":[1,2,3],"route":"srumma"}`, it.m, it.n),
	} {
		s := sample{it: it, latMs: 10}
		if err := s.check(http.Header{}, []byte(body)); err == nil {
			t.Errorf("accepted %.80s", body)
		}
	}
}

func TestCheckRejectsUnreconciledClocks(t *testing.T) {
	p, err := buildJSONCache(1)
	if err != nil {
		t.Fatal(err)
	}
	it := p.items[0]
	body, err := json.Marshal(server.MultiplyResponse{Rows: it.m, Cols: it.n, C: it.ref, Route: "srumma", QueueMillis: 3, ElapsedMillis: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		latMs float64
		ok    bool
	}{{8, true}, {7 - clockTolMs/2, true}, {7 - 2*clockTolMs, false}} {
		s := sample{it: it, latMs: tc.latMs}
		if err := s.check(http.Header{}, body); (err == nil) != tc.ok {
			t.Errorf("latency %g ms against 7 ms of server phases: err = %v", tc.latMs, err)
		}
	}
}

func TestBinaryRequestRoundTripsThroughCheck(t *testing.T) {
	p, err := buildCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	it := p.items[0]
	var resp bytes.Buffer
	// A binary response is a 16-byte header and the result floats.
	hdr := make([]byte, 16)
	copy(hdr, "SRWR")
	hdr[4] = 1
	binary.LittleEndian.PutUint32(hdr[8:], uint32(it.m))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(it.n))
	resp.Write(hdr)
	for _, v := range it.ref {
		binary.Write(&resp, binary.LittleEndian, math.Float64bits(v))
	}
	h := http.Header{}
	h.Set("X-Srumma-Route", "cluster")
	h.Set("X-Srumma-Queue-Ms", "1.5")
	h.Set("X-Srumma-Elapsed-Ms", "2.5")
	s := sample{it: it, latMs: 10}
	if err := s.check(h, resp.Bytes()); err != nil {
		t.Fatal(err)
	}
	if s.route != "cluster" || s.queueMs != 1.5 || s.elapsedMs != 2.5 {
		t.Fatalf("parsed route %q queue %g elapsed %g", s.route, s.queueMs, s.elapsedMs)
	}
}

func TestEngineSpansAttributeByDispatch(t *testing.T) {
	lane := func(tid int, name string) traceEvent {
		e := traceEvent{Name: "thread_name", Ph: "M", TID: tid}
		e.Args.Name = name
		return e
	}
	x := func(tid int, name string, ts, dur float64) traceEvent {
		return traceEvent{Name: name, Ph: "X", TID: tid, TS: ts, Dur: dur}
	}
	events := []traceEvent{
		lane(0, "rank 0"), lane(1, "rank 1"), lane(2, "server"), lane(3, "sched"),
		x(0, "gemm", 5, 100), // before the marker: warm-up
		// An engine dispatch: both ranks compute and fetch.
		x(3, "batch", 1000, 1000),
		x(0, "job", 1010, 900), x(0, "gemm", 1100, 400), x(0, "get", 1500, 100),
		x(1, "job", 1010, 950), x(1, "gemm", 1100, 300), x(1, "wait", 1400, 300),
		// A batch of small products: job spans only.
		x(3, "batch", 3000, 500), x(0, "job", 3010, 400), x(1, "job", 3010, 400),
	}
	ss, err := newSpanSet(events, 500)
	if err != nil {
		t.Fatal(err)
	}
	es := ss.engine()
	if es.dispatches != 1 || es.ranks != 2 {
		t.Fatalf("dispatches %d ranks %d, want 1 and 2", es.dispatches, es.ranks)
	}
	if es.kindMs["gemm"] != 0.7 || es.kindMs["get"] != 0.1 || es.kindMs["wait"] != 0.3 {
		t.Errorf("kind totals %v", es.kindMs)
	}
	// Non-job spans cover [1100, 1700); the busiest rank's spans cover
	// its 950 us job.
	if es.coveredMs != 0.6 || es.workerMs != 0.95 {
		t.Errorf("covered %g ms, worker %g ms; want 0.6 and 0.95", es.coveredMs, es.workerMs)
	}
}

// TestDriveChecksEveryResponse runs both closed-loop clients against a
// stand-in server that computes each product serially, so the shared
// items are checked concurrently.
func TestDriveChecksEveryResponse(t *testing.T) {
	p, err := buildJSONCache(5)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.MultiplyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a := mat.FromData(req.ARows, req.ACols, req.A)
		b := mat.FromData(req.BRows, req.BCols, req.B)
		c := mat.New(req.ARows, req.BCols)
		if err := mat.Gemm(false, false, 1, a, b, 0, c); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(server.MultiplyResponse{Rows: c.Rows, Cols: c.Cols, C: c.Data, Route: "srumma"})
	}))
	defer srv.Close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	ss, _ := drive(context.Background(), hc, srv.URL, p, 300*time.Millisecond)
	if len(ss) < numClients {
		t.Fatalf("only %d samples", len(ss))
	}
	for _, s := range ss {
		if !s.ok() {
			t.Fatalf("%s: %v", s.it.label, s.err)
		}
	}
}
