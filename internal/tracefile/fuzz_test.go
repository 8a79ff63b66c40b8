package tracefile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/tracefile"
)

// seekBuffer is an in-memory io.WriteSeeker for Capture.
type seekBuffer struct {
	b   []byte
	off int
}

func (s *seekBuffer) Write(p []byte) (int, error) {
	if end := s.off + len(p); end > len(s.b) {
		s.b = append(s.b, make([]byte, end-len(s.b))...)
	}
	s.off += copy(s.b[s.off:], p)
	return len(p), nil
}

func (s *seekBuffer) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		s.off = int(offset)
	case io.SeekCurrent:
		s.off += int(offset)
	case io.SeekEnd:
		s.off = len(s.b) + int(offset)
	}
	return int64(s.off), nil
}

// hugeOpCountHeader is a 62-byte capture whose header claims 2^33 ops over
// an empty body: magic, version 2, the op count, and a two-byte "{}"
// metadata block.
func hugeOpCountHeader() []byte {
	b := make([]byte, 60, 62)
	copy(b, "LDSTRC01")
	binary.LittleEndian.PutUint32(b[8:12], 2)
	binary.LittleEndian.PutUint64(b[12:20], 1<<33)
	binary.LittleEndian.PutUint32(b[56:60], 2)
	return append(b, "{}"...)
}

// TestLoadBoundsHeaderOpCount feeds Load a header whose op count would
// reserve ~160 GiB if taken at its word; it must fail on the missing ops
// rather than die allocating.
func TestLoadBoundsHeaderOpCount(t *testing.T) {
	if _, _, err := tracefile.Load(bytes.NewReader(hugeOpCountHeader())); err == nil {
		t.Fatal("Load accepted a capture with no ops behind a 2^33 op count")
	}
}

// pageCapture is a hand-built capture with no ops and one page record: page
// number pn holding the single byte 0xab. Its digest is correct, so only a
// check of the page number itself can reject it.
func pageCapture(pn uint64) []byte {
	meta := []byte("{}")
	body := binary.AppendUvarint(append([]byte(nil), meta...), pn)
	body = binary.AppendUvarint(body, 1)
	body = append(body, 0xab)
	b := make([]byte, 60, 60+len(body))
	copy(b, "LDSTRC01")
	binary.LittleEndian.PutUint32(b[8:12], 2)
	binary.LittleEndian.PutUint32(b[20:24], 1)
	d := sha256.Sum256(body)
	copy(b[24:56], d[:])
	binary.LittleEndian.PutUint32(b[56:60], uint32(len(meta)))
	return append(b, body...)
}

// TestLoadRejectsOutOfRangePageNumbers pins the page-number check: a page
// record must name one of the 2^16 pages of the 32-bit address space. A
// larger number would once have been truncated to 32 bits, or stored as a
// page no address can reach.
func TestLoadRejectsOutOfRangePageNumbers(t *testing.T) {
	for _, tc := range []struct {
		pn uint64
		ok bool
	}{
		{0x1000, true},
		{mem.NumPages - 1, true},
		{mem.NumPages, false},
		{1<<32 | 0x1000, false},
		{math.MaxUint64, false},
	} {
		tr, _, err := tracefile.Load(bytes.NewReader(pageCapture(tc.pn)))
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "outside the 32-bit address space") {
				t.Errorf("page %#x: err = %v, want an out-of-range rejection", tc.pn, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("page %#x: %v", tc.pn, err)
			continue
		}
		if p := tr.Mem.PageBytes(uint32(tc.pn)); p == nil || p[0] != 0xab {
			t.Errorf("page %#x did not load with its contents", tc.pn)
		}
	}
}

// FuzzTraceLoad feeds arbitrary bytes to Load, the path every capture takes
// into the simulator. Nothing may panic or exhaust memory, and an input that
// loads must round-trip: capturing the loaded trace under its own metadata
// and loading that capture yields the same ops.
//
// The seed corpus in testdata/fuzz/FuzzTraceLoad holds a small valid
// capture, a truncated one, a version-1 one, the oversized op-count header
// of TestLoadBoundsHeaderOpCount, and the page record past the address space
// of TestLoadRejectsOutOfRangePageNumbers (page 2^32 + 0x1000). Run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzTraceLoad -fuzztime 30s ./internal/tracefile
func FuzzTraceLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, hdr, err := tracefile.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf seekBuffer
		if _, err := tracefile.Capture(&buf, tr, hdr.Meta); err != nil {
			t.Fatalf("loaded trace does not capture: %v", err)
		}
		back, _, err := tracefile.Load(bytes.NewReader(buf.b))
		if err != nil {
			t.Fatalf("re-captured trace does not load: %v", err)
		}
		if back.Name != tr.Name || len(back.Ops) != len(tr.Ops) {
			t.Fatalf("round trip changed the trace: %q with %d ops, then %q with %d ops",
				tr.Name, len(tr.Ops), back.Name, len(back.Ops))
		}
		for i := range tr.Ops {
			if back.Ops[i] != tr.Ops[i] {
				t.Fatalf("op %d: %+v after round trip, %+v before", i, back.Ops[i], tr.Ops[i])
			}
		}
	})
}
