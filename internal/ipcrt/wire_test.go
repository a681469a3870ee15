package ipcrt

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

func TestWireRoundTrip(t *testing.T) {
	cases := []frame{
		{Op: opHello, P: [5]int64{3}},
		{Op: opBarrier, Seq: 9},
		{Op: opMalloc, P: [5]int64{4096}},
		{Op: opMallocAck, P: [5]int64{7}, Body: putInt64s([]int64{16, 32, 0, 64})},
		{Op: opGet, Seq: 42, P: [5]int64{1, 128, 256}},
		{Op: opGetSub, Seq: 43, P: [5]int64{1, 10, 64, 8, 16}},
		{Op: opPut, Seq: 44, P: [5]int64{2, 0}, Body: floatBytes([]float64{1.5, -2.25, math.Pi})},
		{Op: opAcc, Seq: 45, P: [5]int64{2, 8, float64bits(0.5)}, Body: floatBytes([]float64{4, 8})},
		{Op: opFetchAdd, Seq: 46, P: [5]int64{0, 3, float64bits(1)}},
		{Op: opMsg, P: [5]int64{2, 17}, Body: floatBytes([]float64{9})},
		{Op: opAck, Seq: 42, Body: floatBytes([]float64{0, 1, 2})},
		{Op: opErr, Seq: 44, Body: []byte("boom")},
		layoutFrame(opFin, `{"Rank":1}`, []float64{1, 2, 3}),
		layoutFrame(opFin, `{"Rank":2,"Err":"boom"}`, nil),
		layoutFrame(opJob, `{"M":2,"N":2,"K":2}`, []float64{1, 2}, []float64{3}, nil, []float64{4, 5, 6}),
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &want); err != nil {
			t.Fatalf("%v: write: %v", want.Op, err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("%v: read: %v", want.Op, err)
		}
		if got.Op != want.Op || got.Seq != want.Seq || got.P != want.P || !bytes.Equal(got.Body, want.Body) {
			t.Errorf("%v: round trip mismatch: got %+v want %+v", want.Op, got, want)
		}
	}
}

// layoutFrame builds a job or FIN frame with a JSON header and raw tails.
func layoutFrame(o op, hdr string, tails ...[]float64) frame {
	f := frame{Op: o}
	putLayout(&f, []byte(hdr), tails...)
	return f
}

func TestWireLayout(t *testing.T) {
	f := layoutFrame(opJob, `{"M":3}`, []float64{1.5}, nil, []float64{-2, math.Pi}, []float64{7})
	if f.P != [5]int64{8, 1, 0, 2, 1} {
		t.Fatalf("layout slots %v, want [8 1 0 2 1] (7-byte header padded to 8)", f.P)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &f); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hdr, tails := splitLayout(&got)
	if string(hdr) != `{"M":3} ` {
		t.Errorf("header %q", hdr)
	}
	want := [][]float64{{1.5}, nil, {-2, math.Pi}, {7}}
	for i := range want {
		if len(tails[i]) != len(want[i]) {
			t.Fatalf("tail %d: %v, want %v", i, tails[i], want[i])
		}
		for j := range want[i] {
			if math.Float64bits(tails[i][j]) != math.Float64bits(want[i][j]) {
				t.Errorf("tail %d element %d: %v, want %v", i, j, tails[i][j], want[i][j])
			}
		}
	}
}

// corrupt returns the encoding of a valid frame with mut applied to its header.
func corrupt(t *testing.T, f frame, mut func(h []byte)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, &f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	mut(raw[:headerLen])
	return raw
}

func TestWireMalformed(t *testing.T) {
	get := frame{Op: opGet, Seq: 1, P: [5]int64{1, 0, 8}}
	// Job and FIN layouts: header length, tail counts and body size must
	// agree exactly before any of the body is read.
	job := layoutFrame(opJob, `{"M":2,"N":2,"K":2}`, []float64{1, 2}, []float64{3, 4}, nil, nil)
	fin := layoutFrame(opFin, `{"Rank":0}`, []float64{1, 2, 3})
	slot := func(i int, v uint64) func(h []byte) {
		return func(h []byte) { binary.LittleEndian.PutUint64(h[16+8*i:], v) }
	}
	tests := []struct {
		name string
		raw  []byte
		want string
	}{
		{"bad magic", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint32(h[0:4], 0xdeadbeef)
		}), "bad magic"},
		{"bad version", corrupt(t, get, func(h []byte) { h[4] = 99 }), "wire version"},
		{"zero op", corrupt(t, get, func(h []byte) { h[5] = 0 }), "unknown op"},
		{"op out of range", corrupt(t, get, func(h []byte) { h[5] = byte(opCount) }), "unknown op"},
		{"reserved bytes set", corrupt(t, get, func(h []byte) { h[6] = 1 }), "reserved"},
		{"oversized body", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[56:64], uint64(maxBodyLen)+1)
		}), "body length"},
		{"negative body (wrapped)", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[56:64], math.MaxUint64)
		}), "body length"},
		{"negative segment id", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], math.MaxUint64)
		}), "segment id"},
		{"huge segment id", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], uint64(maxSegID)+1)
		}), "segment id"},
		{"negative offset", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[24:32], math.MaxUint64)
		}), "offset"},
		{"huge offset", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[24:32], uint64(maxElems)+1)
		}), "offset"},
		{"huge get count", corrupt(t, get, func(h []byte) {
			binary.LittleEndian.PutUint64(h[32:40], uint64(maxElems)+1)
		}), "element count"},
		{"get-sub ld < cols", corrupt(t, frame{Op: opGetSub, P: [5]int64{1, 0, 4, 2, 8}},
			func(h []byte) {}), "malformed region"},
		{"get-sub negative rows", corrupt(t, frame{Op: opGetSub, P: [5]int64{1, 0, 8, -1, 8}},
			func(h []byte) {}), "malformed region"},
		{"get-sub huge ld", corrupt(t, frame{Op: opGetSub, P: [5]int64{1, 0, maxElems + 1, 1, 1}},
			func(h []byte) {}), "malformed region"},
		{"get-sub product overflow", corrupt(t, frame{Op: opGetSub,
			P: [5]int64{1, 0, maxElems, maxElems, maxElems}}, func(h []byte) {}), "too large"},
		{"put body not float-aligned", corrupt(t, frame{Op: opPut, P: [5]int64{1, 0}, Body: make([]byte, 12)},
			func(h []byte) {}), "not whole float64s"},
		{"msg body not float-aligned", corrupt(t, frame{Op: opMsg, P: [5]int64{0, 1}, Body: make([]byte, 7)},
			func(h []byte) {}), "not whole float64s"},
		{"malloc huge count", corrupt(t, frame{Op: opMalloc, P: [5]int64{maxElems + 1}},
			func(h []byte) {}), "element count"},
		{"hello negative rank", corrupt(t, frame{Op: opHello}, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], math.MaxUint64)
		}), "negative rank"},
		{"msg negative source", corrupt(t, frame{Op: opMsg}, func(h []byte) {
			binary.LittleEndian.PutUint64(h[16:24], math.MaxUint64)
		}), "negative source"},
		{"job header longer than body", corrupt(t, job, slot(0, 1<<20)), "header length"},
		{"fin header longer than body", corrupt(t, fin, slot(0, 1<<20)), "header length"},
		{"job negative header", corrupt(t, job, slot(0, math.MaxUint64)), "header length"},
		{"job unaligned header", corrupt(t, job, slot(0, 4)), "header length"},
		{"job negative count", corrupt(t, job, slot(1, math.MaxUint64)), "element count"},
		{"fin negative count", corrupt(t, fin, slot(1, math.MaxUint64)), "element count"},
		{"job count above maxElems", corrupt(t, job, slot(3, uint64(maxElems)+1)), "element count"},
		{"fin count above maxElems", corrupt(t, fin, slot(1, uint64(maxElems)+1)), "element count"},
		// 8 * 2^61 wraps to 0 in int64: a naive sum would match the body.
		{"job count sum wraps", corrupt(t, job, func(h []byte) {
			slot(1, 1<<61)(h)
			slot(2, 1<<61)(h)
			slot(0, uint64(job.P[0]+32))(h)
		}), "element count"},
		{"job counts sum past body", corrupt(t, job, func(h []byte) {
			for i := 1; i <= 4; i++ {
				slot(i, uint64(maxElems))(h)
			}
		}), "layout"},
		{"job layout short of body", corrupt(t, job, slot(2, 1)), "layout"},
		{"fin layout past body", corrupt(t, fin, slot(1, 4)), "layout"},
		{"fin unused slot set", corrupt(t, fin, slot(3, 1)), "unused slot"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readFrame(bytes.NewReader(tc.raw))
			if err == nil {
				t.Fatalf("malformed frame accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestWireTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &frame{Op: opPut, P: [5]int64{1, 0}, Body: floatBytes(make([]float64, 16))}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncated header.
	if _, err := readFrame(bytes.NewReader(raw[:headerLen-8])); err == nil {
		t.Error("truncated header accepted")
	}
	// Truncated body.
	if _, err := readFrame(bytes.NewReader(raw[:headerLen+24])); err == nil {
		t.Error("truncated body accepted")
	} else if err == io.ErrUnexpectedEOF {
		t.Error("truncated body error lost frame context")
	}
}

func TestFloatBytesRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	b := floatBytes(vals)
	if len(b) != len(vals)*8 {
		t.Fatalf("floatBytes length %d", len(b))
	}
	// The wire is defined as little-endian regardless of host.
	if got := math.Float64frombits(binary.LittleEndian.Uint64(b[8:16])); got != 1.5 {
		t.Fatalf("element 1 encodes to %v", got)
	}
	out := make([]float64, len(vals))
	copyFloats(out, b)
	for i := range vals {
		if math.Float64bits(out[i]) != math.Float64bits(vals[i]) {
			t.Errorf("element %d: %v != %v", i, out[i], vals[i])
		}
	}
}

func TestInt64sRoundTrip(t *testing.T) {
	vals := []int64{0, -1, 1 << 40, math.MaxInt64}
	out, err := getInt64s(putInt64s(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Errorf("element %d: %d != %d", i, out[i], vals[i])
		}
	}
	if _, err := getInt64s(make([]byte, 9)); err == nil {
		t.Error("ragged int64 body accepted")
	}
}
