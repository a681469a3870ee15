package main

// Closed-loop clients: each sends its next request only after the previous
// one completed, timing the window from the first byte of the pre-encoded
// body until the last response byte is read. Decoding and the result check
// run after the window closes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"srumma/internal/server"
)

// clockTolMs is how far a response's queue_ms + elapsed_ms may exceed its
// client latency before the two clocks are said not to reconcile. Both are
// read from the same host clock; the slack covers rounding only.
const clockTolMs = 0.5

// sample is the outcome of one request.
type sample struct {
	it        *item
	status    int     // HTTP status, 0 on a transport error
	latMs     float64 // client-observed latency
	queueMs   float64 // server-reported queue time
	elapsedMs float64 // server-reported execution time
	route     string
	cached    bool
	checkMs   float64       // decode and result check, outside the latency window
	end       time.Duration // completion, from the opening of the measured window
	gap       time.Duration // time since the server's previous completion, or since the window opened
	err       error         // transport error, error status, wrong product or clock mismatch
	wrong     bool          // a product that failed the check, or an unreconciled clock
}

func (s *sample) ok() bool { return s.err == nil }

// refused reports a 429 or 503: the server shed the request.
func (s *sample) refused() bool {
	return s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable
}

// newHTTPClient returns a client that holds at most numClients
// connections to the server.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     numClients,
		MaxIdleConnsPerHost: numClients,
		DisableCompression:  true,
	}}
}

// send posts one item and checks the response. buf is the caller's
// reusable response buffer.
func send(ctx context.Context, hc *http.Client, base string, it *item, buf *bytes.Buffer) sample {
	s := sample{it: it}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/multiply", bytes.NewReader(it.body))
	if err != nil {
		s.err = err
		return s
	}
	if it.wire == wireBinary {
		req.Header.Set("Content-Type", server.ContentTypeBinary)
		req.Header.Set("Accept", server.ContentTypeBinaryResult)
		req.Header.Set("X-Srumma-Class", it.class)
	} else {
		req.Header.Set("Content-Type", server.ContentTypeJSON)
	}
	buf.Reset()
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	s.latMs = float64(time.Since(t0)) / 1e6
	if err != nil {
		s.err = err
		return s
	}
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("%s: %s: %s", it.label, resp.Status, bytes.TrimSpace(buf.Bytes()))
		return s
	}
	t1 := time.Now()
	s.err = s.check(resp.Header, buf.Bytes())
	s.wrong = s.err != nil
	s.checkMs = float64(time.Since(t1)) / 1e6
	return s
}

// check decodes a 200 response, compares its product with the reference
// and reconciles the server's phases with the client latency.
func (s *sample) check(h http.Header, body []byte) error {
	var rows, cols int
	var c []float64
	if s.it.wire == wireBinary {
		var err error
		if rows, cols, c, err = server.DecodeBinaryResponse(bytes.NewReader(body)); err != nil {
			return fmt.Errorf("%s: %w", s.it.label, err)
		}
		s.route = h.Get("X-Srumma-Route")
		s.cached = h.Get("X-Srumma-Cached") == "1"
		s.queueMs, _ = strconv.ParseFloat(h.Get("X-Srumma-Queue-Ms"), 64)
		s.elapsedMs, _ = strconv.ParseFloat(h.Get("X-Srumma-Elapsed-Ms"), 64)
	} else {
		var r server.MultiplyResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("%s: decode response: %w", s.it.label, err)
		}
		rows, cols, c = r.Rows, r.Cols, r.C
		s.route, s.cached, s.queueMs, s.elapsedMs = r.Route, r.Cached, r.QueueMillis, r.ElapsedMillis
	}
	if err := s.it.checkProduct(rows, cols, c); err != nil {
		return err
	}
	if s.queueMs+s.elapsedMs > s.latMs+clockTolMs {
		return fmt.Errorf("%s: server phases queue %.3f ms + elapsed %.3f ms exceed client latency %.3f ms",
			s.it.label, s.queueMs, s.elapsedMs, s.latMs)
	}
	return nil
}

// warm sends each warm-up item once, in order, and requires every product
// to be correct.
func warm(ctx context.Context, hc *http.Client, base string, p *plan) error {
	var buf bytes.Buffer
	for _, i := range p.warmup {
		if s := send(ctx, hc, base, p.items[i], &buf); !s.ok() {
			return fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return nil
}

// drive runs numClients closed-loop clients for d, client c cycling
// p.seqs[c]. It returns every sample in completion order and the wall
// time until the last client finished its final request.
func drive(ctx context.Context, hc *http.Client, base string, p *plan, d time.Duration) ([]sample, time.Duration) {
	var wg sync.WaitGroup
	out := make([][]sample, numClients)
	start := time.Now()
	stopAt := start.Add(d)
	for c := range numClients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			seq := p.seqs[c]
			for i := 0; time.Now().Before(stopAt) && ctx.Err() == nil; i++ {
				s := send(ctx, hc, base, p.items[seq[i%len(seq)]], &buf)
				s.end = time.Since(start)
				out[c] = append(out[c], s)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	var prev time.Duration
	for i := range all {
		all[i].gap, prev = all[i].end-prev, all[i].end
	}
	return all, wall
}
