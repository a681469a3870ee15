package main

// Workloads: the seeded requests each one sends, the server flags it runs
// against, and the serial reference product every response is checked
// against. Everything here happens once, during set-up, before any timing.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"srumma/internal/mat"
	"srumma/internal/server"
)

const (
	wireJSON   = "json"
	wireBinary = "binary"

	classInteractive = "interactive"
	classBatch       = "batch"

	// numClients closed-loop clients drive every workload, each holding
	// one connection.
	numClients = 2
)

// topologyArgs is the engine shape every workload serves with: 4 ranks in
// two shared-memory domains of 2, so both direct and remote fetches run.
var topologyArgs = []string{"-nprocs", "4", "-procs-per-node", "2"}

// workload is one traffic mix: the server it runs against and the
// requests its clients send.
type workload struct {
	name      string
	serveArgs []string
	build     func(seed uint64) (*plan, error)
}

var workloads = []workload{
	{name: "serve-json-cache", serveArgs: append([]string{"-cache-entries", "64"}, topologyArgs...), build: buildJSONCache},
	{name: "serve-cluster", serveArgs: append([]string{"-cluster", "-nodes", "2"}, topologyArgs...), build: buildCluster},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// item is one distinct request: its body, encoded before any timing, the
// class it is sent under, and the product it must return.
type item struct {
	label   string // shape and transpose case, e.g. "512x512x512 TN"
	cs      string // transpose case
	class   string
	wire    string
	body    []byte
	m, n, k int
	ref     []float64 // serial mat.Gemm product
	tol     float64   // per-element tolerance against ref
}

func (it *item) flops() float64 { return 2 * float64(it.m) * float64(it.n) * float64(it.k) }

// plan is a workload's generated input: its items, each client's cyclic
// sequence over them, and the requests set-up sends to warm the server.
type plan struct {
	items  []*item
	seqs   [numClients][]int
	warmup []int
	// pools records how many distinct operand pairs each stream draws
	// from, next to the server capacities they are sized against.
	pools map[string]int
}

// pair is one seeded operand pair with its reference product; items that
// differ only in class or wire share it.
type pair struct {
	cs      string
	m, n, k int
	a, b    *mat.Matrix
	ref     []float64
	tol     float64
}

// storedShapes returns the stored shapes of A (ar x ac) and B (br x bc)
// for an m x n x k product in transpose case cs: a transposed operand is
// sent as the matrix that is used transposed.
func storedShapes(cs string, m, n, k int) (ar, ac, br, bc int) {
	ar, ac, br, bc = m, k, k, n
	if cs[0] == 'T' {
		ar, ac = k, m
	}
	if cs[1] == 'T' {
		br, bc = n, k
	}
	return ar, ac, br, bc
}

func newPair(rng *rand.Rand, cs string, m, n, k int) (*pair, error) {
	ar, ac, br, bc := storedShapes(cs, m, n, k)
	p := &pair{cs: cs, m: m, n: n, k: k, a: randomMatrix(rng, ar, ac), b: randomMatrix(rng, br, bc)}
	c := mat.New(m, n)
	if err := mat.Gemm(cs[0] == 'T', cs[1] == 'T', 1, p.a, p.b, 0, c); err != nil {
		return nil, fmt.Errorf("reference product %s: %w", p.label(), err)
	}
	p.ref = c.Data
	p.tol = gemmTolerance(k, p.a.Data, p.b.Data)
	return p, nil
}

func (p *pair) label() string { return fmt.Sprintf("%dx%dx%d %s", p.m, p.n, p.k, p.cs) }

// item encodes the pair as one request. On the binary wire the class
// travels as a header, so class variants of a pair may share the body.
func (p *pair) item(class, wire string) (*item, error) {
	req := server.MultiplyRequest{
		Case:  p.cs,
		ARows: p.a.Rows, ACols: p.a.Cols, A: p.a.Data,
		BRows: p.b.Rows, BCols: p.b.Cols, B: p.b.Data,
	}
	var body []byte
	var err error
	if wire == wireJSON {
		req.Class = class
		body, err = json.Marshal(&req)
	} else {
		body, err = server.EncodeBinaryRequest(&req)
	}
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", p.label(), err)
	}
	return &item{label: p.label(), cs: p.cs, class: class, wire: wire, body: body,
		m: p.m, n: p.n, k: p.k, ref: p.ref, tol: p.tol}, nil
}

// randomMatrix fills an r x c matrix with uniform values in [-1, 1).
func randomMatrix(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// gemmTolerance bounds how far a correct product may stray from the serial
// reference: any summation order of a length-k dot product is within
// k*u*sum|a||b| of the exact value (u = 2^-53), and sum|a||b| is at most
// k*max|a|*max|b|. Both results carry that error, hence the factor 2.
func gemmTolerance(k int, a, b []float64) float64 {
	const u = 0x1p-53
	return 2 * float64(k) * float64(k) * u * maxAbs(a) * maxAbs(b)
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// checkProduct reports whether c matches the item's reference product.
func (it *item) checkProduct(rows, cols int, c []float64) error {
	if rows != it.m || cols != it.n || len(c) != len(it.ref) {
		return fmt.Errorf("%s: got a %dx%d result with %d elements", it.label, rows, cols, len(c))
	}
	for i, want := range it.ref {
		if d := math.Abs(c[i] - want); !(d <= it.tol) {
			return fmt.Errorf("%s: element %d is %v, want %v within %.3g", it.label, i, c[i], want, it.tol)
		}
	}
	return nil
}

// Result-cache sizing of serve-json-cache: the hot set fits the cache many
// times over; each client's cold stream is long enough that, between two
// sends of one cold pair, more distinct pairs than the cache holds are
// inserted, so the pair has been evicted and misses again.
const (
	cacheEntries   = 64
	hotPairs       = 8
	coldPerClient  = 36
	jsonCacheShape = 192
)

// buildJSONCache: 192^3 NN products on the JSON wire. Client 0 sends
// class interactive, client 1 class batch. In each client's sequence three
// requests in four revisit the hot set of 8 operand pairs (cache hits);
// the fourth is the client's next pair from its own cold stream (a miss,
// computed on the SRUMMA route and inserted into the LRU).
func buildJSONCache(seed uint64) (*plan, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	hot := make([]*pair, hotPairs)
	for i := range hot {
		var err error
		if hot[i], err = newPair(rng, "NN", jsonCacheShape, jsonCacheShape, jsonCacheShape); err != nil {
			return nil, err
		}
	}
	p := &plan{}
	for c, class := range []string{classInteractive, classBatch} {
		hotIdx := make([]int, hotPairs)
		for i, hp := range hot {
			it, err := hp.item(class, wireJSON)
			if err != nil {
				return nil, err
			}
			hotIdx[i] = len(p.items)
			p.items = append(p.items, it)
		}
		if c == 0 {
			p.warmup = hotIdx // fills the cache with the hot set
		}
		for j := 0; j < coldPerClient; j++ {
			for h := 0; h < 3; h++ {
				p.seqs[c] = append(p.seqs[c], hotIdx[rng.Intn(hotPairs)])
			}
			p.seqs[c] = append(p.seqs[c], len(p.items))
			if err := p.addPair(rng, "NN", jsonCacheShape, class, wireJSON); err != nil {
				return nil, err
			}
		}
	}
	p.pools = map[string]int{"hot_pairs": hotPairs, "cold_pairs": numClients * coldPerClient, "cache_entries": cacheEntries}
	return p, nil
}

// buildCluster: 192^3 products on the binary wire, NN and TN cycled.
// Client 0 sends class interactive, client 1 class batch, so both of the
// cluster router's placement rules run.
func buildCluster(seed uint64) (*plan, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	const n = 192
	pairs := make([]*pair, 4)
	for i := range pairs {
		var err error
		if pairs[i], err = newPair(rng, []string{"NN", "TN"}[i%2], n, n, n); err != nil {
			return nil, err
		}
	}
	p := &plan{}
	for c, class := range []string{classInteractive, classBatch} {
		for _, pr := range pairs {
			it, err := pr.item(class, wireBinary)
			if err != nil {
				return nil, err
			}
			p.seqs[c] = append(p.seqs[c], len(p.items))
			p.warmup = append(p.warmup, len(p.items))
			p.items = append(p.items, it)
		}
	}
	p.pools = map[string]int{"pairs": len(pairs)}
	return p, nil
}

// addPair generates one n^3 operand pair and appends it as an item.
func (p *plan) addPair(rng *rand.Rand, cs string, n int, class, wire string) error {
	pr, err := newPair(rng, cs, n, n, n)
	if err != nil {
		return err
	}
	it, err := pr.item(class, wire)
	if err != nil {
		return err
	}
	p.items = append(p.items, it)
	return nil
}
