package server

// Dense binary wire format for /v1/multiply — the serving hot path without
// float→decimal text. A request is a fixed 48-byte little-endian header
// (shape, case, alpha/beta, per-request knobs) followed by the operands as
// raw little-endian float64 arrays: A, then B, then (when flagged) the
// input C. A response is a 16-byte header followed by the result floats.
// Request identity, workload class and the deadline hint — strings and
// scheduling metadata, not bulk data — ride as X-Srumma-* HTTP headers.
//
// The decoder is zero-copy on little-endian hosts: the body is read with
// io.ReadFull directly into the float64 backing store of a pooled,
// 64-byte-aligned buffer (reinterpreted as bytes via unsafe.Slice), and
// that buffer flows into the engine as the operand — no intermediate
// []byte staging and no per-element conversion. On a big-endian host the
// same path runs with an in-place byte swap after the read, so the wire
// image is identical everywhere.
//
// Resource protection happens BEFORE allocation: the header's shapes are
// validated against the server's MaxDim bound, and (for identity-encoded
// bodies) the Content-Length must equal the header-derived body size
// exactly, so a hostile or truncated request is refused without ever
// sizing a buffer from attacker-controlled lengths. Optional gzip is
// negotiated with the standard Content-Encoding/Accept-Encoding headers.

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"srumma/internal/core"
)

// Content types negotiated on POST /v1/multiply. JSON stays the default
// and the compatibility path; the binary types opt a client into the
// dense wire.
const (
	// ContentTypeBinary marks a binary-encoded request body.
	ContentTypeBinary = "application/x-srumma-gemm"
	// ContentTypeBinaryResult marks a binary-encoded response body; send
	// it in Accept to get a binary result regardless of the request wire.
	ContentTypeBinaryResult = "application/x-srumma-gemm-result"
	// ContentTypeJSON is the default wire.
	ContentTypeJSON = "application/json"
)

// Wire labels used by the metrics instruments.
const (
	wireJSON   = "json"
	wireBinary = "binary"
)

// Binary framing constants.
const (
	binReqMagic  = "SRW1" // request header magic
	binRespMagic = "SRWR" // response header magic
	binVersion   = 1

	binReqHeaderLen  = 48
	binRespHeaderLen = 16

	binFlagHasC = 1 << 0 // request body carries an input C after B

	// maxWireKernelThreads bounds the per-request kernel-thread knob; a
	// wire value beyond it is a malformed request, not a tuning choice.
	maxWireKernelThreads = 4096
)

var binCaseNames = [4]string{"NN", "TN", "NT", "TT"}

// hostLittleEndian reports whether float64 memory already matches the
// little-endian wire image (true on every supported platform; the
// big-endian fallback byte-swaps in place).
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// floatBytes reinterprets f's backing array as its raw bytes. The view
// aliases f — valid only while f is alive and unmoved (slices are heap
// stable in Go), and only meaningful as wire data on little-endian hosts.
func floatBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*len(f))
}

// readFloats fills dst with little-endian float64s from r, reading the
// wire bytes directly into dst's backing store (zero-copy on LE hosts).
func readFloats(r io.Reader, dst []float64) error {
	b := floatBytes(dst)
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	if !hostLittleEndian {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return nil
}

// writeFloats writes src as little-endian float64 wire bytes.
func writeFloats(w io.Writer, src []float64) error {
	if hostLittleEndian {
		_, err := w.Write(floatBytes(src))
		return err
	}
	var chunk [8192]byte
	for len(src) > 0 {
		n := len(src)
		if n > len(chunk)/8 {
			n = len(chunk) / 8
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(src[i]))
		}
		if _, err := w.Write(chunk[:8*n]); err != nil {
			return err
		}
		src = src[n:]
	}
	return nil
}

// ---------------------------------------------------------------------------
// Pooled 64-byte-aligned operand buffers.

// bufAlign is the alignment of pooled operand buffers: one cache line, so
// the packed kernel's streaming loads start line-aligned no matter which
// request produced the operand.
const bufAlign = 64

// alignedBuf is one pooled operand buffer: raw is the allocation, data the
// 64-byte-aligned window the decoder fills and the engine reads.
type alignedBuf struct {
	raw  []float64
	data []float64
	cls  int
}

// bufPool pools aligned operand buffers by power-of-two size class (the
// armci scratch-pool shape), keeping steady-state decodes on both wires
// free of operand allocations.
type bufPool struct {
	classes [40]sync.Pool

	// drawn counts the floats get has handed out; out counts the buffers
	// not yet put back (abandoned buffers stay counted). Tests read them to
	// bound what a decode draws and to prove every error path returns its
	// buffers.
	drawn, out atomic.Int64
}

// bufSizeClass returns the smallest c with 1<<c >= n (n >= 1).
func bufSizeClass(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// get returns an aligned buffer with len(data) == n.
func (p *bufPool) get(n int) *alignedBuf {
	const pad = bufAlign / 8 // extra floats so an aligned window always fits
	cls := bufSizeClass(n + pad)
	b, _ := p.classes[cls].Get().(*alignedBuf)
	if b == nil {
		raw := make([]float64, 1<<cls)
		b = &alignedBuf{raw: raw, cls: cls}
	}
	addr := uintptr(unsafe.Pointer(&b.raw[0]))
	off := int((bufAlign-addr%bufAlign)%bufAlign) / 8
	b.data = b.raw[off : off+n]
	p.drawn.Add(int64(n))
	p.out.Add(1)
	return b
}

// put returns b to its size-class pool.
func (p *bufPool) put(b *alignedBuf) {
	if b == nil {
		return
	}
	b.data = nil
	p.out.Add(-1)
	p.classes[b.cls].Put(b)
}

// ---------------------------------------------------------------------------
// Request decode.

// wireError is a decode failure with its HTTP status: 400 for malformed
// payloads, 413 for oversized bodies, 415 for a disabled wire.
type wireError struct {
	status int
	msg    string
}

func (e *wireError) Error() string { return e.msg }

func badWire(format string, args ...any) *wireError {
	return &wireError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// wireRequest is one decoded /v1/multiply request plus the wire state the
// handler needs to respond and to release pooled storage afterwards: which
// wire it arrived on, how many wire bytes it occupied, the pooled operand
// buffers (binary wire), and — once the cache layer has run — the operand
// digests and block-table registrations.
type wireRequest struct {
	req     MultiplyRequest
	wire    string // wireJSON or wireBinary
	gzipped bool   // request body arrived gzip-encoded
	bytesIn int64  // wire bytes of the request body (compressed size if gzipped)

	// bufs holds pooled operand storage in A, B, C order; an entry is nil
	// for an absent or empty operand, or once ownership moved into the
	// block table.
	bufs [3]*alignedBuf

	// Content addressing (filled by Server.computeDigests when the cache
	// is enabled). interned lists the digests registered in the block
	// table, released when the request finishes.
	digA, digB, digC [32]byte
	haveDigests      bool
	interned         [][32]byte

	// scratch is header/probe space for the binary decoder: reading into a
	// field of the (already heap-allocated) request keeps the steady-state
	// decode at zero allocations, where a local array would escape through
	// the io.Reader interface.
	scratch [binReqHeaderLen]byte

	// noPool marks a request whose engine run may have left rank
	// goroutines behind (watchdog leak) or was abandoned mid-execution:
	// its operand buffers are dropped for the GC instead of recycled, so
	// a zombie reader can never observe another request's decode landing
	// in them.
	noPool bool
}

// release returns the request's pooled and interned operand storage. Must
// run after the response is written: the engine and the encoder read the
// operand slices in place.
func (wr *wireRequest) release(s *Server) {
	for _, dig := range wr.interned {
		if wr.noPool {
			s.blocks.abandon(dig)
		} else {
			s.blocks.release(dig)
		}
	}
	wr.interned = nil
	for i, b := range wr.bufs {
		if b == nil {
			continue
		}
		if !wr.noPool {
			s.pool.put(b)
		}
		wr.bufs[i] = nil
	}
}

// countingReader counts wire bytes as they are read.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// binShape is the header-derived shape of one binary request, validated
// against the server bound before any buffer is sized from it.
type binShape struct {
	cs                     core.Case
	aRows, aCols           int
	bRows, bCols           int
	m, n                   int // result shape under the transpose case
	hasC                   bool
	alpha, beta            float64
	kernelThreads, timeout int
}

// parseBinHeader validates a request header, rejecting before the caller
// allocates anything: bad framing, out-of-range shapes and non-finite
// scalars all fail here.
func parseBinHeader(hdr *[binReqHeaderLen]byte, maxDim int) (binShape, *wireError) {
	var sh binShape
	if string(hdr[0:4]) != binReqMagic {
		return sh, badWire("bad magic %q (want %q)", hdr[0:4], binReqMagic)
	}
	if hdr[4] != binVersion {
		return sh, badWire("unsupported binary wire version %d (want %d)", hdr[4], binVersion)
	}
	if hdr[5] > 3 {
		return sh, badWire("bad transpose case %d (want 0..3)", hdr[5])
	}
	sh.cs = core.Case(hdr[5])
	if hdr[6]&^byte(binFlagHasC) != 0 {
		return sh, badWire("unknown flag bits 0x%02x", hdr[6]&^byte(binFlagHasC))
	}
	sh.hasC = hdr[6]&binFlagHasC != 0
	if hdr[7] != 0 {
		return sh, badWire("nonzero reserved header byte")
	}
	dims := [4]int{}
	for i := range dims {
		v := binary.LittleEndian.Uint32(hdr[8+4*i:])
		if v == 0 || int64(v) > int64(maxDim) {
			return sh, badWire("dimension %d out of range [1, %d]", v, maxDim)
		}
		dims[i] = int(v)
	}
	sh.aRows, sh.aCols, sh.bRows, sh.bCols = dims[0], dims[1], dims[2], dims[3]
	sh.alpha = math.Float64frombits(binary.LittleEndian.Uint64(hdr[24:]))
	sh.beta = math.Float64frombits(binary.LittleEndian.Uint64(hdr[32:]))
	if !isFinite(sh.alpha) || !isFinite(sh.beta) {
		return sh, badWire("alpha and beta must be finite")
	}
	kt := binary.LittleEndian.Uint32(hdr[40:])
	if kt > maxWireKernelThreads {
		return sh, badWire("kernel_threads %d out of range [0, %d]", kt, maxWireKernelThreads)
	}
	sh.kernelThreads = int(kt)
	sh.timeout = int(binary.LittleEndian.Uint32(hdr[44:]))
	sh.m, sh.n = sh.aRows, sh.bCols
	if sh.cs.TransA() {
		sh.m = sh.aCols
	}
	if sh.cs.TransB() {
		sh.n = sh.bRows
	}
	return sh, nil
}

// bodyLen is the exact identity-encoded body size the header implies.
func (sh binShape) bodyLen() int64 {
	elems := int64(sh.aRows)*int64(sh.aCols) + int64(sh.bRows)*int64(sh.bCols)
	if sh.hasC {
		elems += int64(sh.m) * int64(sh.n)
	}
	return binReqHeaderLen + 8*elems
}

// decodeBinaryRequest reads one binary request from r into wr, drawing
// operand storage from pool. contentLength is the transport's claimed
// body size (-1 when unknown or gzip-compressed); when known it must
// match the header-derived size exactly — checked before allocation.
func decodeBinaryRequest(r io.Reader, contentLength int64, maxDim int, pool *bufPool, wr *wireRequest) *wireError {
	if _, err := io.ReadFull(r, wr.scratch[:]); err != nil {
		return badWire("truncated binary header: %v", err)
	}
	sh, werr := parseBinHeader(&wr.scratch, maxDim)
	if werr != nil {
		return werr
	}
	if contentLength >= 0 && contentLength != sh.bodyLen() {
		return badWire("content length %d does not match header-derived body size %d", contentLength, sh.bodyLen())
	}

	sizes := [3]int{sh.aRows * sh.aCols, sh.bRows * sh.bCols, 0}
	if sh.hasC {
		sizes[2] = sh.m * sh.n
	}
	for i, n := range sizes {
		if n == 0 {
			continue
		}
		buf := pool.get(n)
		if err := readFloats(r, buf.data); err != nil {
			pool.put(buf)
			return badWire("truncated operand %c: %v", 'a'+i, err)
		}
		wr.bufs[i] = buf
	}
	// The body must end exactly where the header said it would; trailing
	// bytes mean a framing bug (or a length-smuggling attempt).
	if n, _ := r.Read(wr.scratch[:1]); n != 0 {
		return badWire("trailing bytes after request body")
	}

	wr.req = MultiplyRequest{
		Case:  binCaseNames[sh.cs],
		ARows: sh.aRows, ACols: sh.aCols, A: wr.bufs[0].data,
		BRows: sh.bRows, BCols: sh.bCols, B: wr.bufs[1].data,
	}
	if sh.hasC {
		wr.req.C = wr.bufs[2].data
	}
	if sh.alpha != 1 {
		a := sh.alpha
		wr.req.Alpha = &a
	}
	if sh.beta != 0 {
		b := sh.beta
		wr.req.Beta = &b
	}
	wr.req.KernelThreads = sh.kernelThreads
	wr.req.TimeoutMillis = int64(sh.timeout)
	return nil
}

// encodeBinaryRequest is the client-side encoder (srumma-load, tests, the
// fuzz round-trip): the exact inverse of decodeBinaryRequest.
func encodeBinaryRequest(w io.Writer, req *MultiplyRequest) error {
	cs, err := parseCase(req.Case)
	if err != nil {
		return err
	}
	var hdr [binReqHeaderLen]byte
	copy(hdr[0:4], binReqMagic)
	hdr[4] = binVersion
	hdr[5] = byte(cs)
	if len(req.C) > 0 {
		hdr[6] |= binFlagHasC
	}
	binary.LittleEndian.PutUint32(hdr[8:], uint32(req.ARows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(req.ACols))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(req.BRows))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(req.BCols))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(req.alpha()))
	binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(req.beta()))
	binary.LittleEndian.PutUint32(hdr[40:], uint32(req.KernelThreads))
	binary.LittleEndian.PutUint32(hdr[44:], uint32(req.TimeoutMillis))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, f := range [][]float64{req.A, req.B, req.C} {
		if err := writeFloats(w, f); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Response encode / decode.

// encodeBinaryResponse writes the response body: 16-byte header + result
// floats. Everything scalar about the response travels as X-Srumma-*
// headers (set by the caller); the body is pure data.
func encodeBinaryResponse(w io.Writer, rows, cols int, c []float64) error {
	var hdr [binRespHeaderLen]byte
	copy(hdr[0:4], binRespMagic)
	hdr[4] = binVersion
	binary.LittleEndian.PutUint32(hdr[8:], uint32(rows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(cols))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return writeFloats(w, c)
}

// DecodeBinaryResponse parses a binary response body (client side).
func DecodeBinaryResponse(r io.Reader) (rows, cols int, c []float64, err error) {
	var hdr [binRespHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, fmt.Errorf("truncated binary response header: %w", err)
	}
	if string(hdr[0:4]) != binRespMagic {
		return 0, 0, nil, fmt.Errorf("bad response magic %q", hdr[0:4])
	}
	if hdr[4] != binVersion {
		return 0, 0, nil, fmt.Errorf("unsupported binary wire version %d", hdr[4])
	}
	rows = int(binary.LittleEndian.Uint32(hdr[8:]))
	cols = int(binary.LittleEndian.Uint32(hdr[12:]))
	if rows <= 0 || cols <= 0 || int64(rows)*int64(cols) > int64(math.MaxInt32) {
		return 0, 0, nil, fmt.Errorf("bad response shape %dx%d", rows, cols)
	}
	c = make([]float64, rows*cols)
	if err = readFloats(r, c); err != nil {
		return 0, 0, nil, fmt.Errorf("truncated binary response body: %w", err)
	}
	return rows, cols, c, nil
}

// EncodeBinaryRequest marshals req onto the binary wire (client side).
func EncodeBinaryRequest(req *MultiplyRequest) ([]byte, error) {
	var sb sliceWriter
	if err := encodeBinaryRequest(&sb, req); err != nil {
		return nil, err
	}
	return sb.b, nil
}

type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// ---------------------------------------------------------------------------
// HTTP glue.

// jsonBodyLimit bounds a JSON request body: three maxDim x maxDim operands
// at a worst-case ~32 text bytes per element, plus framing slack. Anything
// beyond it is refused mid-read rather than buffered.
func jsonBodyLimit(maxDim int) int64 {
	return 3*int64(maxDim)*int64(maxDim)*32 + 1<<16
}

// binBodyLimit bounds a binary request body independently of its header
// (the header-derived exact check is stricter, but gzip-encoded bodies
// have no trustworthy Content-Length to compare against).
func binBodyLimit(maxDim int) int64 {
	return 3*int64(maxDim)*int64(maxDim)*8 + binReqHeaderLen + 1<<12
}

// decodeRequest dispatches on Content-Type: the binary wire for
// ContentTypeBinary, JSON for everything else (the compatibility default).
// Either way the body is size-bounded, optionally gzip-decoded, counted,
// and scanned for non-finite operands.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*wireRequest, *wireError) {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	wr := &wireRequest{wire: wireJSON}
	wr.gzipped = r.Header.Get("Content-Encoding") == "gzip"

	if ct == ContentTypeBinary {
		if s.cfg.JSONOnly {
			return nil, &wireError{status: http.StatusUnsupportedMediaType, msg: "binary wire disabled (server runs -json-only)"}
		}
		wr.wire = wireBinary
		cr := &countingReader{r: http.MaxBytesReader(w, r.Body, binBodyLimit(s.cfg.MaxDim))}
		var body io.Reader = cr
		contentLength := r.ContentLength
		if wr.gzipped {
			gz, err := gzip.NewReader(cr)
			if err != nil {
				return nil, badWire("bad gzip body: %v", err)
			}
			defer gz.Close()
			body = gz
			contentLength = -1 // compressed size says nothing about the payload
		}
		werr := decodeBinaryRequest(body, contentLength, s.cfg.MaxDim, s.pool, wr)
		wr.bytesIn = cr.n
		if werr != nil {
			wr.release(s)
			if isMaxBytesError(werr) {
				werr.status = http.StatusRequestEntityTooLarge
			}
			return nil, werr
		}
		// Scalars that have no binary field ride as headers.
		wr.req.ID = r.Header.Get("X-Srumma-Id")
		wr.req.Class = r.Header.Get("X-Srumma-Class")
		if v := r.Header.Get("X-Srumma-Deadline-Ms"); v != "" {
			ms, err := strconv.ParseInt(v, 10, 64)
			if err != nil || ms < 0 {
				wr.release(s)
				return nil, badWire("bad X-Srumma-Deadline-Ms %q", v)
			}
			wr.req.DeadlineMillis = ms
		}
	} else {
		cr := &countingReader{r: http.MaxBytesReader(w, r.Body, jsonBodyLimit(s.cfg.MaxDim))}
		var body io.Reader = cr
		contentLength := r.ContentLength
		if wr.gzipped {
			gz, err := gzip.NewReader(cr)
			if err != nil {
				return nil, badWire("bad gzip body: %v", err)
			}
			defer gz.Close()
			body = gz
			contentLength = -1
		}
		bp := getJSONBuf()
		data, err := readJSONBody(body, contentLength, *bp)
		wr.bytesIn = cr.n
		if err != nil {
			putJSONBuf(bp, data)
			werr := badWire("bad request body: %v", err)
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				werr.status = http.StatusRequestEntityTooLarge
			}
			return nil, werr
		}
		werr := decodeJSONRequest(data, s.cfg.MaxDim, s.pool, wr)
		putJSONBuf(bp, data)
		if werr != nil {
			return nil, werr
		}
	}

	if err := checkFinite(&wr.req); err != nil {
		wr.release(s)
		return nil, badWire("%v", err)
	}
	return wr, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkFinite enforces the non-finite policy on both wires: NaN and Inf
// operands are rejected at the door. A NaN poisons every block it meets
// and defeats both the ABFT checksums and content addressing (NaN != NaN),
// so it is a malformed request, not a numerical edge case.
func checkFinite(req *MultiplyRequest) error {
	if (req.Alpha != nil && !isFinite(*req.Alpha)) || (req.Beta != nil && !isFinite(*req.Beta)) {
		return fmt.Errorf("alpha and beta must be finite")
	}
	for _, op := range []struct {
		name string
		data []float64
	}{{"a", req.A}, {"b", req.B}, {"c", req.C}} {
		for _, v := range op.data {
			if !isFinite(v) {
				return fmt.Errorf("operand %s contains a non-finite value", op.name)
			}
		}
	}
	return nil
}

func isMaxBytesError(werr *wireError) bool {
	return werr != nil && strings.Contains(werr.msg, "request body too large")
}
