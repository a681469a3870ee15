package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// jsonRefDecode is the reference the JSON codec must match: a reflection
// decode of the whole body, as the server did before the codec existed.
func jsonRefDecode(data []byte) (MultiplyRequest, error) {
	var req MultiplyRequest
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&req)
	return req, err
}

// jsonHasFinalNullElement reports whether the last occurrence of an operand
// array holds a null element — the one input the codec refuses although
// encoding/json accepts it (as 0).
func jsonHasFinalNullElement(data []byte) bool {
	var shadow struct {
		A []*float64 `json:"a"`
		B []*float64 `json:"b"`
		C []*float64 `json:"c"`
	}
	if json.NewDecoder(bytes.NewReader(data)).Decode(&shadow) != nil {
		return false
	}
	for _, op := range [][]*float64{shadow.A, shadow.B, shadow.C} {
		for _, v := range op {
			if v == nil {
				return true
			}
		}
	}
	return false
}

func sameOperand(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkJSONDecode decodes data with the codec and with the reference and
// fails unless both reject, or both accept with identical scalars and
// bit-identical operands. Either way every pooled buffer must come back.
func checkJSONDecode(t *testing.T, data []byte) {
	t.Helper()
	ref, refErr := jsonRefDecode(data)
	pool := &bufPool{}
	var wr wireRequest
	werr := decodeJSONRequest(data, 1<<12, pool, &wr)
	if werr != nil {
		if n := pool.out.Load(); n != 0 {
			t.Fatalf("decode error %q left %d pooled buffers out", werr.msg, n)
		}
		if refErr == nil && !(strings.Contains(werr.msg, "is null") && jsonHasFinalNullElement(data)) {
			t.Fatalf("codec rejects (%s) what encoding/json accepts: %q", werr.msg, data)
		}
		return
	}
	if refErr != nil {
		t.Fatalf("codec accepts what encoding/json rejects (%v): %q", refErr, data)
	}
	got := wr.req
	for i, op := range [][2][]float64{{got.A, ref.A}, {got.B, ref.B}, {got.C, ref.C}} {
		if !sameOperand(op[0], op[1]) {
			t.Fatalf("operand %c differs: codec %v, encoding/json %v (input %q)", operandNames[i], op[0], op[1], data)
		}
		if len(op[0]) > 0 && (wr.bufs[i] == nil || &wr.bufs[i].data[0] != &op[0][0]) {
			t.Fatalf("operand %c is not backed by its pooled buffer", operandNames[i])
		}
	}
	got.A, got.B, got.C = nil, nil, nil
	ref.A, ref.B, ref.C = nil, nil, nil
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("scalars differ: codec %+v, encoding/json %+v (input %q)", got, ref, data)
	}
	for i, b := range wr.bufs {
		pool.put(b)
		wr.bufs[i] = nil
	}
	if n := pool.out.Load(); n != 0 {
		t.Fatalf("%d pooled buffers unaccounted for", n)
	}
}

// FuzzJSONWire is a differential fuzz of the JSON request codec against
// json.Decoder.Decode into MultiplyRequest (see checkJSONDecode). The one
// sanctioned difference is a null operand element, which the codec refuses.
func FuzzJSONWire(f *testing.F) {
	req := randReqFuzz(4, 4, 4)
	alpha := -1.5
	req.ID, req.Case, req.Alpha, req.Class = "seed", "TN", &alpha, "batch"
	valid, _ := json.Marshal(&req)
	for _, s := range []string{
		string(valid),
		`{"A":[1,2],"A_ROWS":1,"a_COLS":2,"B":[3,4],"Id":"x","CASE":"nt"}`,
		`{"a":[1],"B":[2],"c_rows":3,"á":[4]}`,
		`{"a":null,"b":[],"c":null,"alpha":null,"id":null}`,
		`{"a":[1,2,3],"a":[4],"b":[1],"b":null,"a_rows":1,"a_rows":2,"alpha":1,"alpha":null}`,
		`{"a":[5,6],"a":[7,null]}`,
		`{"a":[1,null],"a":[2]}`,
		`{"x":{"a":[1,{"b":[]}],"y":[[],{},""]},"a":[1],"z":[true,false,null]}`,
		`{"a":[-0,0,1e-320,4.9e-324,1E+2,-1.5e-7]}`,
		`{"a":[1e400]}`,
		`{"a":[01]}`,
		`{"a":[.5]}`,
		`{"a":[+1]}`,
		`{"a":[1,]}`,
		`]`,
		`{"a":[1]} trailing`,
		`null x`,
		`[1,2]`,
		`{"a":"1"}`,
		`{"a":[1,"]",2]}`,
		`{"a_rows":1.5}`,
		`{"kernel_threads":99999999999999999999}`,
		" \t\r\n{\"a\" : [ 1 , 2 ] }\n",
		`{"id":"\ud800","case":"é"}`,
		`{"a":[1]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJSONDecode(t, data)
	})
}

// TestJSONOperandCap pins the MaxDim bound on JSON operands: an array longer
// than MaxDim² elements is refused with 413 without drawing its storage, and
// every decode error returns the operand buffers drawn before it.
func TestJSONOperandCap(t *testing.T) {
	const maxDim = 8
	s := newTestServer(t, Config{NProcs: 4, MaxDim: maxDim})
	long := `{"a_rows":8,"a_cols":8,"a":[0` + strings.Repeat(",0", 20000) + `]}`
	if int64(len(long)) > jsonBodyLimit(maxDim) {
		t.Fatalf("test body of %d bytes exceeds the body limit; the cap would not be reached", len(long))
	}
	drawn := s.pool.drawn.Load()
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/multiply", strings.NewReader(long))
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-long operand: status %d, want 413 (body: %s)", w.Code, w.Body.String())
	}
	if d := s.pool.drawn.Load() - drawn; d > maxDim*maxDim {
		t.Fatalf("over-long operand drew %d floats from the pool, cap is %d", d, maxDim*maxDim)
	}

	// Each body fails after at least one operand was decoded into the pool.
	for _, body := range []string{
		`{"a":[1,2],"b":[1,"x"]}`,
		`{"a":[1],"b":[2],"c":[3,null]}`,
		`{"a":[1],"a_rows":"x"}`,
		`{"a":[1],"b":[1e400]}`,
		`{"a":[1],"b":[2],"c":[0` + strings.Repeat(",0", maxDim*maxDim) + `]}`,
		`{"a":[1],"b":[2]`,
		`{"a":[1],"b":[2],}`,
	} {
		pool := &bufPool{}
		var wr wireRequest
		if werr := decodeJSONRequest([]byte(body), maxDim, pool, &wr); werr == nil {
			t.Fatalf("%s: decoded, want an error", body)
		}
		if pool.drawn.Load() == 0 {
			t.Fatalf("%s: failed before drawing a buffer; the case tests nothing", body)
		}
		if n := pool.out.Load(); n != 0 {
			t.Fatalf("%s: %d pooled buffers not returned after the error", body, n)
		}
		if wr.bufs != [3]*alignedBuf{} {
			t.Fatalf("%s: wr.bufs still set after the error", body)
		}
	}
}

// TestJSONOperandKeyFolding pins operandIndex's assumption: encoding/json
// folds keys with unicode.SimpleFold, and no rune outside ASCII shares a
// fold set with a, b or c.
func TestJSONOperandKeyFolding(t *testing.T) {
	for r := rune(0x80); r <= unicode.MaxRune; r++ {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			switch f {
			case 'a', 'A', 'b', 'B', 'c', 'C':
				t.Fatalf("rune %U folds onto %q: operandIndex would miss it", r, f)
			}
		}
	}
}

// TestJSONResponseByteIdentity pins writeOK's JSON body to exactly what
// json.NewEncoder(w).Encode(resp) writes, and a 422 error where the encoder
// refuses a non-finite value.
func TestJSONResponseByteIdentity(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 1})
	edge := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21,
		math.MaxFloat64, -math.MaxFloat64, 3, -42, 1 << 53, 0.1, 123456.789, 1.5e-300, 2.5e300}
	digest := strings.Repeat("ab", 32)
	cases := []struct {
		name string
		resp MultiplyResponse
	}{
		{"edge floats", MultiplyResponse{Rows: 1, Cols: len(edge), C: edge, Route: routeSmall, QueueMillis: 0.25, ElapsedMillis: 1e-7, GFlops: 12.5}},
		{"nil c", MultiplyResponse{Route: routeSRUMMA}},
		{"empty c", MultiplyResponse{C: []float64{}, Route: routeSRUMMA}},
		{"digests", MultiplyResponse{ID: `<id&"c":null>`, Rows: 1, Cols: 2, C: []float64{1, 2}, Route: routeCache,
			Class: "batch", Batch: 3, DigestA: digest, DigestB: digest, DigestCIn: digest, Digest: digest, Cached: true}},
		{"non-finite", MultiplyResponse{Rows: 1, Cols: 2, C: []float64{1, math.Inf(1)}, Route: routeSmall}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want bytes.Buffer
			encErr := json.NewEncoder(&want).Encode(&tc.resp)
			w := httptest.NewRecorder()
			env := &reqEnv{wr: &wireRequest{wire: wireJSON}, respWire: wireJSON}
			s.writeOK(w, env, &tc.resp)
			if encErr != nil {
				// encoding/json refuses the value: a 422 with a JSON error
				// body, not a 200 with an empty one.
				var eresp ErrorResponse
				if err := json.Unmarshal(w.Body.Bytes(), &eresp); err != nil || w.Code != http.StatusUnprocessableEntity || eresp.Error == "" {
					t.Fatalf("status %d, body %q (%v), want 422 with a JSON error", w.Code, w.Body.String(), err)
				}
				return
			}
			if got := w.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("body differs from json.Encoder:\n got %s\nwant %s", got, want.Bytes())
			}
		})
	}
}

// TestNonFiniteProduct: a finite request whose product overflows to +Inf
// gets a 422 naming the non-finite product on the JSON wire, computed and
// from the cache alike, while the binary wire returns the Inf bits.
func TestNonFiniteProduct(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, CacheEntries: 16})
	huge := []float64{1e200, 1e200, 1e200, 1e200}
	jsonReq := MultiplyRequest{ARows: 2, ACols: 2, A: huge, BRows: 2, BCols: 2, B: huge}
	binReq := jsonReq
	binReq.B = []float64{2e200, 2e200, 2e200, 2e200}
	for i, hit := range []bool{false, true} {
		jsonReq.ID = "json-" + strconv.Itoa(i)
		code, w := post(t, s, jsonReq, nil)
		var eresp ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &eresp); err != nil || code != http.StatusUnprocessableEntity {
			t.Fatalf("JSON cache hit %v: status %d, body %q (%v), want 422 with a JSON error", hit, code, w.Body.String(), err)
		}
		if !strings.Contains(eresp.Error, "non-finite product") || eresp.ID != jsonReq.ID {
			t.Fatalf("JSON cache hit %v: error %+v does not name the non-finite product", hit, eresp)
		}
		if got := s.cache.stats().Hits; got != int64(i) {
			t.Fatalf("JSON request %d: %d cache hits, want %d", i, got, i)
		}

		w = binPost(t, s, binReq, false, "")
		if w.Code != http.StatusOK {
			t.Fatalf("binary cache hit %v: status %d: %s", hit, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Srumma-Cached") == "1"; got != hit {
			t.Fatalf("binary request %d: cached %v, want %v", i, got, hit)
		}
		_, _, c := decodeBinRecorder(t, w)
		for k, v := range c {
			if !math.IsInf(v, 1) {
				t.Fatalf("binary cache hit %v: C[%d] = %v, want +Inf", hit, k, v)
			}
		}
	}
	// /metrics agrees with the status codes: the two 422s are errors, the
	// two binary answers completions.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m MetricsSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Completed != 2 || m.Errors != 2 {
		t.Fatalf("/metrics completed_total=%d error_total=%d, want 2 and 2", m.Completed, m.Errors)
	}
}

// jsonWireBody is a 192³ request, the serve-json-cache benchmark shape.
func jsonWireBody(tb testing.TB) ([]byte, *MultiplyRequest) {
	req := randReq(192, 192, 192, 900)
	body, err := json.Marshal(&req)
	if err != nil {
		tb.Fatal(err)
	}
	return body, &req
}

// TestJSONDecodeAllocs pins the pooled JSON decode: a steady-state 192³
// decode draws its operands from the pool, so its allocation count is a
// small constant (the scalar side-decode), not per element.
func TestJSONDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	body, _ := jsonWireBody(t)
	pool := &bufPool{}
	decode := func() {
		var wr wireRequest
		if werr := decodeJSONRequest(body, 4096, pool, &wr); werr != nil {
			t.Fatal(werr)
		}
		for _, b := range wr.bufs {
			pool.put(b)
		}
	}
	for i := 0; i < 3; i++ {
		decode() // warm the pool's size classes
	}
	if avg := testing.AllocsPerRun(20, decode); avg > 8 {
		t.Fatalf("steady-state 192^3 JSON decode allocates %.1f objects/op, want <= 8", avg)
	}
}

// BenchmarkJSONWire measures the JSON codec on a 192³ request: decode into
// pooled buffers, and encode of the 192x192 result.
func BenchmarkJSONWire(b *testing.B) {
	body, req := jsonWireBody(b)
	b.Run("decode", func(b *testing.B) {
		pool := &bufPool{}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wr wireRequest
			if werr := decodeJSONRequest(body, 4096, pool, &wr); werr != nil {
				b.Fatal(werr)
			}
			for _, buf := range wr.bufs {
				pool.put(buf)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		resp := &MultiplyResponse{Rows: 192, Cols: 192, C: req.A, Route: routeSRUMMA}
		out, _ := appendJSONResponse(nil, resp)
		b.SetBytes(int64(len(out)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if out, err = appendJSONResponse(out[:0], resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBinaryWire is BenchmarkJSONWire's decode on the binary wire.
func BenchmarkBinaryWire(b *testing.B) {
	_, req := jsonWireBody(b)
	body, err := EncodeBinaryRequest(req)
	if err != nil {
		b.Fatal(err)
	}
	pool := &bufPool{}
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		var wr wireRequest
		if werr := decodeBinaryRequest(rd, int64(len(body)), 4096, pool, &wr); werr != nil {
			b.Fatal(werr)
		}
		for _, buf := range wr.bufs {
			pool.put(buf)
		}
	}
}
