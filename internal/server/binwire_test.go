package server

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"unsafe"
)

func uintptrOf(f []float64) uintptr {
	return uintptr(unsafe.Pointer(&f[0]))
}

// binPost runs one binary-wire request through the handler. Options tune
// the transport: gz compresses the body, accept overrides the Accept
// header ("" keeps none, so the response mirrors the request wire).
func binPost(t *testing.T, s *Server, req MultiplyRequest, gz bool, accept string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	if gz {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(body)
		zw.Close()
		body = buf.Bytes()
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body))
	r.Header.Set("Content-Type", ContentTypeBinary)
	if gz {
		r.Header.Set("Content-Encoding", "gzip")
		r.Header.Set("Accept-Encoding", "gzip")
	}
	if accept != "" {
		r.Header.Set("Accept", accept)
	}
	if req.ID != "" {
		r.Header.Set("X-Srumma-Id", req.ID)
	}
	if req.Class != "" {
		r.Header.Set("X-Srumma-Class", req.Class)
	}
	s.Handler().ServeHTTP(w, r)
	return w
}

// decodeBinRecorder parses a binary response out of a recorder, gunzipping
// when the response says so.
func decodeBinRecorder(t *testing.T, w *httptest.ResponseRecorder) (int, int, []float64) {
	t.Helper()
	if got := w.Header().Get("Content-Type"); got != ContentTypeBinaryResult {
		t.Fatalf("response Content-Type %q, want %q", got, ContentTypeBinaryResult)
	}
	body := w.Body
	if w.Header().Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(body)
		if err != nil {
			t.Fatal(err)
		}
		defer zr.Close()
		rows, cols, c, err := DecodeBinaryResponse(zr)
		if err != nil {
			t.Fatal(err)
		}
		return rows, cols, c
	}
	rows, cols, c, err := DecodeBinaryResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	return rows, cols, c
}

func TestBinaryWireMatchesSerial(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4})
	alpha, beta := 1.25, -0.5
	for _, cse := range []string{"NN", "TN", "NT", "TT"} {
		req := randReq(24, 32, 16, 300)
		req.Case = cse
		if cse == "TN" || cse == "TT" {
			req.ARows, req.ACols = req.ACols, req.ARows
		}
		if cse == "NT" || cse == "TT" {
			req.BRows, req.BCols = req.BCols, req.BRows
		}
		req.Alpha, req.Beta = &alpha, &beta
		cIn := make([]float64, 24*16)
		for i := range cIn {
			cIn[i] = float64(i%7) - 3
		}
		req.C = cIn
		req.ID = "bin-" + cse

		w := binPost(t, s, req, false, "")
		if w.Code != http.StatusOK {
			t.Fatalf("case %s: status %d: %s", cse, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Srumma-Id"); got != req.ID {
			t.Fatalf("case %s: X-Srumma-Id %q, want %q", cse, got, req.ID)
		}
		if got := w.Header().Get("X-Srumma-Route"); got != routeSmall {
			t.Fatalf("case %s: route %q, want %q", cse, got, routeSmall)
		}
		rows, cols, c := decodeBinRecorder(t, w)
		want := wantGemm(t, req)
		checkResult(t, MultiplyResponse{Rows: rows, Cols: cols, C: c}, want, 1e-10)
	}
}

func TestBinaryWireGzipRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4})
	req := randReq(16, 16, 16, 400)
	w := binPost(t, s, req, true, "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("response Content-Encoding %q, want gzip (client sent gzip and accepts it)", got)
	}
	rows, cols, c := decodeBinRecorder(t, w)
	checkResult(t, MultiplyResponse{Rows: rows, Cols: cols, C: c}, wantGemm(t, req), 1e-10)
}

func TestWireNegotiation(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4})
	req := randReq(8, 8, 8, 500)

	// JSON request asking for a binary result via Accept.
	body, _ := json.Marshal(req)
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body))
	r.Header.Set("Accept", ContentTypeBinaryResult)
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	rows, cols, c := decodeBinRecorder(t, w)
	checkResult(t, MultiplyResponse{Rows: rows, Cols: cols, C: c}, wantGemm(t, req), 1e-10)

	// Binary request asking for JSON back.
	w2 := binPost(t, s, req, false, ContentTypeJSON)
	if w2.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w2.Code, w2.Body.String())
	}
	var resp MultiplyResponse
	if err := json.Unmarshal(w2.Body.Bytes(), &resp); err != nil {
		t.Fatalf("binary request with Accept json got non-JSON body: %v", err)
	}
	checkResult(t, resp, wantGemm(t, req), 1e-10)
}

func TestJSONOnlyDisablesBinaryWire(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, JSONOnly: true})
	req := randReq(8, 8, 8, 600)
	w := binPost(t, s, req, false, "")
	if w.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d, want 415", w.Code)
	}
	// JSON still served, and Accept for binary is ignored.
	body, _ := json.Marshal(req)
	w2 := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body))
	r.Header.Set("Accept", ContentTypeBinaryResult)
	s.Handler().ServeHTTP(w2, r)
	if w2.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w2.Code, w2.Body.String())
	}
	if ct := w2.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json-only server answered Content-Type %q", ct)
	}
}

// validBinBody builds a well-formed binary request body for mutation.
func validBinBody(t *testing.T) []byte {
	t.Helper()
	req := randReq(4, 3, 5, 700)
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestBinaryWireMalformed(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, MaxDim: 64})
	valid := validBinBody(t)

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"empty body", nil, http.StatusBadRequest},
		{"truncated header", valid[:20], http.StatusBadRequest},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), http.StatusBadRequest},
		{"bad version", mutate(func(b []byte) []byte { b[4] = 9; return b }), http.StatusBadRequest},
		{"bad case", mutate(func(b []byte) []byte { b[5] = 7; return b }), http.StatusBadRequest},
		{"unknown flags", mutate(func(b []byte) []byte { b[6] = 0x80; return b }), http.StatusBadRequest},
		{"nonzero reserved", mutate(func(b []byte) []byte { b[7] = 1; return b }), http.StatusBadRequest},
		{"zero dimension", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 0)
			return b
		}), http.StatusBadRequest},
		// Shape beyond MaxDim with a huge implied body: must be refused from
		// the 48-byte header alone, before any buffer is sized from it.
		{"oversized dimension", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 1<<20)
			return b[:binReqHeaderLen]
		}), http.StatusBadRequest},
		{"nan alpha", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], math.Float64bits(math.NaN()))
			return b
		}), http.StatusBadRequest},
		{"inf beta", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:], math.Float64bits(math.Inf(1)))
			return b
		}), http.StatusBadRequest},
		{"kernel threads out of range", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[40:], 1<<20)
			return b
		}), http.StatusBadRequest},
		{"nan operand", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[binReqHeaderLen:], math.Float64bits(math.NaN()))
			return b
		}), http.StatusBadRequest},
		{"inf operand", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[binReqHeaderLen+8:], math.Float64bits(math.Inf(-1)))
			return b
		}), http.StatusBadRequest},
		{"truncated operands", valid[:len(valid)-8], http.StatusBadRequest},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xAB), http.StatusBadRequest},
		// Shape/length mismatch: header says 8x8 operands but the body holds
		// the original 4x3/3x5 floats.
		{"shape vs length mismatch", mutate(func(b []byte) []byte {
			for i := 0; i < 4; i++ {
				binary.LittleEndian.PutUint32(b[8+4*i:], 8)
			}
			return b
		}), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(tc.body))
			r.Header.Set("Content-Type", ContentTypeBinary)
			s.Handler().ServeHTTP(w, r)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d (body: %s)", w.Code, tc.want, w.Body.String())
			}
			var eresp ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &eresp); err != nil || eresp.Error == "" {
				t.Fatalf("malformed request did not produce a JSON error body: %s", w.Body.String())
			}
		})
	}
}

func TestJSONWireMalformed(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, MaxDim: 8})
	big := make([]float64, 40000) // ~360 KB of JSON, beyond jsonBodyLimit(8)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "hello", http.StatusBadRequest},
		{"truncated json", `{"a_rows": 2, "a_cols":`, http.StatusBadRequest},
		{"nan alpha", `{"a_rows":1,"a_cols":1,"a":[1],"b_rows":1,"b_cols":1,"b":[1],"alpha":"NaN"}`, http.StatusBadRequest},
		{"length mismatch", `{"a_rows":2,"a_cols":2,"a":[1,2,3],"b_rows":2,"b_cols":2,"b":[1,2,3,4]}`, http.StatusBadRequest},
		{"null element", `{"a_rows":1,"a_cols":2,"a":[1,null],"b_rows":2,"b_cols":1,"b":[1,2]}`, http.StatusBadRequest},
		{"oversized body", func() string {
			b, _ := json.Marshal(MultiplyRequest{ARows: 200, ACols: 200, A: big, BRows: 200, BCols: 200, B: big})
			return string(b)
		}(), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader([]byte(tc.body)))
			r.Header.Set("Content-Type", "application/json")
			s.Handler().ServeHTTP(w, r)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d (body: %s)", w.Code, tc.want, w.Body.String())
			}
		})
	}
}

// TestBinaryDecodeAllocs pins the zero-copy promise: steady-state binary
// decodes draw their operand buffers from the pool and perform no
// per-element conversion, so a decode is allocation-free.
func TestBinaryDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	req := randReq(32, 32, 32, 800)
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	pool := &bufPool{}
	rd := bytes.NewReader(body)
	var wr wireRequest
	// Warm the pool's size classes.
	for i := 0; i < 3; i++ {
		rd.Reset(body)
		wr = wireRequest{}
		if werr := decodeBinaryRequest(rd, int64(len(body)), 4096, pool, &wr); werr != nil {
			t.Fatal(werr)
		}
		for _, b := range wr.bufs {
			pool.put(b)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		wr = wireRequest{}
		if werr := decodeBinaryRequest(rd, int64(len(body)), 4096, pool, &wr); werr != nil {
			t.Fatal(werr)
		}
		for _, b := range wr.bufs {
			pool.put(b)
		}
	})
	if avg > 0 {
		t.Fatalf("steady-state binary decode allocates %.1f objects/op, want 0", avg)
	}
}

func TestAlignedPoolAlignment(t *testing.T) {
	pool := &bufPool{}
	for _, n := range []int{1, 7, 64, 1000, 65536} {
		b := pool.get(n)
		if len(b.data) != n {
			t.Fatalf("get(%d): len %d", n, len(b.data))
		}
		if addr := uintptrOf(b.data); addr%bufAlign != 0 {
			t.Fatalf("get(%d): data not %d-byte aligned (addr %#x)", n, bufAlign, addr)
		}
		pool.put(b)
	}
}

// FuzzBinWire drives the binary request decoder with arbitrary bytes (must
// never panic, never allocate from unvalidated lengths) and checks the
// round-trip property: anything that decodes re-encodes to a body that
// decodes to the same request.
func FuzzBinWire(f *testing.F) {
	req := randReqFuzz(3, 4, 2)
	seed, _ := EncodeBinaryRequest(&req)
	f.Add(seed)
	alpha, beta := 2.5, 1.0
	req2 := randReqFuzz(2, 2, 2)
	req2.Alpha, req2.Beta = &alpha, &beta
	req2.C = []float64{1, 2, 3, 4}
	req2.Case = "TT"
	seed2, _ := EncodeBinaryRequest(&req2)
	f.Add(seed2)
	f.Add([]byte(binReqMagic))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		pool := &bufPool{}
		var wr wireRequest
		werr := decodeBinaryRequest(bytes.NewReader(data), int64(len(data)), 128, pool, &wr)
		if werr != nil {
			return
		}
		// Decoded OK: the re-encoded body must decode to the same request.
		out, err := EncodeBinaryRequest(&wr.req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		var wr2 wireRequest
		if werr := decodeBinaryRequest(bytes.NewReader(out), int64(len(out)), 128, pool, &wr2); werr != nil {
			t.Fatalf("re-encoded body does not decode: %v", werr)
		}
		if wr2.req.ARows != wr.req.ARows || wr2.req.ACols != wr.req.ACols ||
			wr2.req.BRows != wr.req.BRows || wr2.req.BCols != wr.req.BCols ||
			wr2.req.Case != wr.req.Case ||
			wr2.req.alpha() != wr.req.alpha() || wr2.req.beta() != wr.req.beta() ||
			wr2.req.KernelThreads != wr.req.KernelThreads ||
			wr2.req.TimeoutMillis != wr.req.TimeoutMillis {
			t.Fatalf("round trip changed the header: %+v vs %+v", wr.req, wr2.req)
		}
		for _, pair := range [][2][]float64{{wr.req.A, wr2.req.A}, {wr.req.B, wr2.req.B}, {wr.req.C, wr2.req.C}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("round trip changed an operand length: %d vs %d", len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("round trip changed operand bits at %d", i)
				}
			}
		}
	})
}

func randReqFuzz(m, k, n int) MultiplyRequest {
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	for i := range a {
		a[i] = float64(i) * 0.5
	}
	for i := range b {
		b[i] = float64(i) * -0.25
	}
	return MultiplyRequest{ARows: m, ACols: k, A: a, BRows: k, BCols: n, B: b}
}
