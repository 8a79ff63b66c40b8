// Package tracefile implements the LDSTRC versioned binary format for
// capturing and replaying trace.Trace runs. A capture is self-describing —
// the header records the format version, the generator identity and its
// {scale, seed} input, the op count, and a SHA-256 digest of the canonical
// encoding — so a trace file is a durable, verifiable experiment artifact:
// two captures of the same {generator, scale, seed} are byte-identical, and
// a replayed capture produces the same simulator report as the generator it
// was captured from (see workload.FromTraceFile).
//
// Layout (all integers little-endian; see TRACEFORMAT.md for the spec):
//
//	offset  size  field
//	0       8     magic "LDSTRC01"
//	8       4     format version (currently 2)
//	12      8     op count
//	20      4     page count
//	24      32    SHA-256 of metaJSON || body
//	56      4     metaJSON length
//	60      -     metaJSON (canonical JSON of Meta)
//	...     -     body: op records, then page records
//
// Op records are flag-byte-prefixed with varint-delta-coded addresses and
// PCs (consecutive memory ops land near each other, so deltas stay short)
// and dependence edges stored as back-distances. Page records snapshot the
// pre-run memory image as (page number, trimmed length, bytes) triples in
// ascending page order. Both reader and writer stream: encoding hashes as it
// writes, decoding hashes as it reads, and ops are surfaced one at a time so
// a 10^7-op capture never needs a second in-memory copy during decode.
package tracefile

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"

	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/trace"
)

// FormatVersion is the trace file format version, the only one the reader
// accepts. Version 2 added branch op records (trace.Branch, kind bits 3,
// with the flagTaken direction bit).
const FormatVersion = 2

var magic = [8]byte{'L', 'D', 'S', 'T', 'R', 'C', '0', '1'}

const headerSize = 60 // fixed header bytes before metaJSON

// Header offsets of the fields patched by Writer.Close.
const (
	opCountOff   = 12
	pageCountOff = 20
	digestOff    = 24
)

// Meta is the self-describing capture metadata, stored as canonical JSON
// (struct field order) right after the fixed header and covered by the
// digest. It deliberately has no timestamp: captures of the same input are
// byte-identical.
type Meta struct {
	// Name is the trace's own name; the simulator labels reports with it.
	Name string `json:"name"`
	// Generator is the registered workload that produced the capture
	// (usually equal to Name; kept separate so renamed or externally
	// produced traces stay attributable).
	Generator string `json:"generator"`
	// Scale and Seed are the workload.Params the capture was built with.
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// Tool identifies the producer, e.g. "ldstrace".
	Tool string `json:"tool,omitempty"`
}

// Header is the decoded file header.
type Header struct {
	FormatVersion uint32
	OpCount       uint64
	PageCount     uint32
	Digest        [sha256.Size]byte
	Meta          Meta
}

// HexDigest renders a digest as lowercase hex.
func HexDigest(d [sha256.Size]byte) string { return hex.EncodeToString(d[:]) }

// Op record flag byte: low two bits are the Kind; the rest mark optional
// fields present after the flags.
const (
	flagKindMask = 0x03
	flagLDS      = 1 << 2
	flagHasN     = 1 << 3
	flagHasDep   = 1 << 4
	flagHasVal   = 1 << 5
	flagTaken    = 1 << 6 // branch direction
)

// zigzag encodes a signed 32-bit delta as an unsigned varint payload.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer streams a capture to ws. Call WriteOp for every op in program
// order, then WriteMem once, then Close (which patches the counts and digest
// into the header).
type Writer struct {
	ws      io.WriteSeeker
	bw      *bufio.Writer
	h       hash.Hash
	scratch []byte
	ops     uint64
	pages   uint32
	wroteM  bool
	closed  bool

	prevAddr uint32
	prevPC   uint32
}

// NewWriter writes the header and metadata and returns a Writer ready for
// ops. The seeker is required because op and page counts and the digest are
// only known at Close.
func NewWriter(ws io.WriteSeeker, meta Meta) (*Writer, error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("tracefile: encoding meta: %w", err)
	}
	w := &Writer{ws: ws, bw: bufio.NewWriterSize(ws, 1<<16), h: sha256.New()}
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	// opCount, pageCount, digest are patched at Close.
	binary.LittleEndian.PutUint32(hdr[56:60], uint32(len(metaJSON)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	if err := w.emit(metaJSON); err != nil {
		return nil, err
	}
	return w, nil
}

// emit writes p to both the file and the digest (everything after the fixed
// header is digest-covered).
func (w *Writer) emit(p []byte) error {
	w.h.Write(p)
	_, err := w.bw.Write(p)
	return err
}

// WriteOp appends one op record.
func (w *Writer) WriteOp(op trace.Op) error {
	if w.wroteM || w.closed {
		return fmt.Errorf("tracefile: WriteOp after WriteMem/Close")
	}
	if op.Kind > trace.Branch {
		return fmt.Errorf("tracefile: op %d has unknown kind %d", w.ops, op.Kind)
	}
	flags := byte(op.Kind) & flagKindMask
	if op.LDS {
		flags |= flagLDS
	}
	if op.Kind == trace.Branch && op.Taken {
		flags |= flagTaken
	}
	if op.N != 0 {
		flags |= flagHasN
	}
	if op.Dep != trace.NoDep {
		flags |= flagHasDep
	}
	if op.Val != 0 {
		flags |= flagHasVal
	}
	b := append(w.scratch[:0], flags)
	if op.N != 0 {
		b = binary.AppendUvarint(b, uint64(op.N))
	}
	if op.Kind != trace.Compute {
		b = binary.AppendUvarint(b, zigzag(int64(op.Addr)-int64(w.prevAddr)))
		b = binary.AppendUvarint(b, zigzag(int64(op.PC)-int64(w.prevPC)))
		w.prevAddr, w.prevPC = op.Addr, op.PC
	}
	if op.Dep != trace.NoDep {
		back := int64(w.ops) - int64(op.Dep)
		if back <= 0 {
			return fmt.Errorf("tracefile: op %d dep %d is not strictly earlier", w.ops, op.Dep)
		}
		b = binary.AppendUvarint(b, uint64(back))
	}
	if op.Val != 0 {
		b = binary.AppendUvarint(b, uint64(op.Val))
	}
	w.scratch = b
	w.ops++
	return w.emit(b)
}

// WriteMem snapshots m's pages (ascending page number, trailing zeros
// trimmed) as the capture's pre-run memory image.
func (w *Writer) WriteMem(m *mem.Memory) error {
	if w.wroteM || w.closed {
		return fmt.Errorf("tracefile: WriteMem called twice")
	}
	w.wroteM = true
	for _, pn := range m.Pages() {
		data := m.PageBytes(pn)
		n := len(data)
		for n > 0 && data[n-1] == 0 {
			n--
		}
		if n == 0 {
			continue // all-zero page: absent pages read as zero anyway
		}
		b := binary.AppendUvarint(w.scratch[:0], uint64(pn))
		b = binary.AppendUvarint(b, uint64(n))
		w.scratch = b
		if err := w.emit(b); err != nil {
			return err
		}
		if err := w.emit(data[:n]); err != nil {
			return err
		}
		w.pages++
	}
	return nil
}

// Close flushes the body and patches op count, page count, and digest into
// the header. It returns the digest.
func (w *Writer) Close() ([sha256.Size]byte, error) {
	var d [sha256.Size]byte
	if w.closed {
		return d, fmt.Errorf("tracefile: Close called twice")
	}
	w.closed = true
	if !w.wroteM {
		return d, fmt.Errorf("tracefile: Close before WriteMem")
	}
	if err := w.bw.Flush(); err != nil {
		return d, err
	}
	w.h.Sum(d[:0])
	var patch [headerSize - opCountOff]byte
	binary.LittleEndian.PutUint64(patch[0:8], w.ops)
	binary.LittleEndian.PutUint32(patch[pageCountOff-opCountOff:], w.pages)
	copy(patch[digestOff-opCountOff:], d[:])
	if _, err := w.ws.Seek(opCountOff, io.SeekStart); err != nil {
		return d, err
	}
	if _, err := w.ws.Write(patch[:digestOff-opCountOff+sha256.Size]); err != nil {
		return d, err
	}
	if _, err := w.ws.Seek(0, io.SeekEnd); err != nil {
		return d, err
	}
	return d, nil
}

// Capture writes tr as a complete capture to ws and returns its digest.
func Capture(ws io.WriteSeeker, tr *trace.Trace, meta Meta) ([sha256.Size]byte, error) {
	w, err := NewWriter(ws, meta)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	for i := range tr.Ops {
		if err := w.WriteOp(tr.Ops[i]); err != nil {
			return [sha256.Size]byte{}, err
		}
	}
	if err := w.WriteMem(tr.Mem); err != nil {
		return [sha256.Size]byte{}, err
	}
	return w.Close()
}

// hashedByteReader reads from br while folding every consumed byte into h,
// batching hash writes through buf so per-byte reads stay cheap.
type hashedByteReader struct {
	br  *bufio.Reader
	h   hash.Hash
	buf []byte
}

func (hr *hashedByteReader) flush() {
	if len(hr.buf) > 0 {
		hr.h.Write(hr.buf)
		hr.buf = hr.buf[:0]
	}
}

func (hr *hashedByteReader) ReadByte() (byte, error) {
	b, err := hr.br.ReadByte()
	if err != nil {
		return 0, err
	}
	hr.buf = append(hr.buf, b)
	if len(hr.buf) >= 1<<12 {
		hr.flush()
	}
	return b, nil
}

func (hr *hashedByteReader) Read(p []byte) (int, error) {
	hr.flush() // keep hash input in stream order
	n, err := hr.br.Read(p)
	if n > 0 {
		hr.h.Write(p[:n])
	}
	return n, err
}

func (hr *hashedByteReader) sum() [sha256.Size]byte {
	hr.flush()
	var d [sha256.Size]byte
	hr.h.Sum(d[:0])
	return d
}

// Reader streams a capture: NewReader parses the header, Next surfaces ops
// one at a time (io.EOF after the last), ReadMem decodes the memory image,
// and Verify checks the running digest against the header. Callers that only
// need the header may stop after NewReader; Verify consumes any remainder
// itself.
type Reader struct {
	hr      *hashedByteReader
	hdr     Header
	read    uint64 // ops consumed
	memDone bool

	prevAddr uint32
	prevPC   uint32
}

// NewReader parses the header and metadata from r.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading header: %w", err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, fmt.Errorf("tracefile: bad magic %q (not an LDSTRC capture)", hdr[:8])
	}
	rd := &Reader{hr: &hashedByteReader{br: br, h: sha256.New()}}
	rd.hdr.FormatVersion = binary.LittleEndian.Uint32(hdr[8:12])
	if rd.hdr.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("tracefile: format version %d not supported (reader speaks %d)", rd.hdr.FormatVersion, FormatVersion)
	}
	rd.hdr.OpCount = binary.LittleEndian.Uint64(hdr[opCountOff:])
	rd.hdr.PageCount = binary.LittleEndian.Uint32(hdr[pageCountOff:])
	copy(rd.hdr.Digest[:], hdr[digestOff:digestOff+sha256.Size])
	metaLen := binary.LittleEndian.Uint32(hdr[56:60])
	if metaLen > 1<<20 {
		return nil, fmt.Errorf("tracefile: metadata length %d implausible", metaLen)
	}
	metaJSON := make([]byte, metaLen)
	if _, err := io.ReadFull(rd.hr, metaJSON); err != nil {
		return nil, fmt.Errorf("tracefile: reading metadata: %w", err)
	}
	if err := json.Unmarshal(metaJSON, &rd.hdr.Meta); err != nil {
		return nil, fmt.Errorf("tracefile: decoding metadata: %w", err)
	}
	return rd, nil
}

// Header returns the decoded header.
func (r *Reader) Header() Header { return r.hdr }

// Next decodes the next op, or io.EOF after the last one.
func (r *Reader) Next() (trace.Op, error) {
	var op trace.Op
	if r.read >= r.hdr.OpCount {
		return op, io.EOF
	}
	flags, err := r.hr.ReadByte()
	if err != nil {
		return op, fmt.Errorf("tracefile: op %d: %w", r.read, err)
	}
	kind := trace.Kind(flags & flagKindMask)
	op.Kind = kind
	op.LDS = flags&flagLDS != 0
	op.Taken = kind == trace.Branch && flags&flagTaken != 0
	op.Dep = trace.NoDep
	if flags&flagHasN != 0 {
		n, err := binary.ReadUvarint(r.hr)
		if err != nil || n == 0 || n > uint64(trace.MaxBatch) {
			return op, fmt.Errorf("tracefile: op %d instruction batch invalid (%d, %v)", r.read, n, err)
		}
		op.N = uint8(n)
	}
	if kind != trace.Compute {
		da, err := binary.ReadUvarint(r.hr)
		if err != nil {
			return op, fmt.Errorf("tracefile: op %d addr: %w", r.read, err)
		}
		dp, err := binary.ReadUvarint(r.hr)
		if err != nil {
			return op, fmt.Errorf("tracefile: op %d pc: %w", r.read, err)
		}
		addr := int64(r.prevAddr) + unzigzag(da)
		pc := int64(r.prevPC) + unzigzag(dp)
		if addr < 0 || addr > math.MaxUint32 || pc < 0 || pc > math.MaxUint32 {
			return op, fmt.Errorf("tracefile: op %d delta leaves the 32-bit address space (addr %d, pc %d)", r.read, addr, pc)
		}
		op.Addr = uint32(addr)
		op.PC = uint32(pc)
		r.prevAddr, r.prevPC = op.Addr, op.PC
	}
	if flags&flagHasDep != 0 {
		back, err := binary.ReadUvarint(r.hr)
		if err != nil || back == 0 || back > r.read {
			return op, fmt.Errorf("tracefile: op %d dep back-distance invalid (%d, %v)", r.read, back, err)
		}
		op.Dep = int32(r.read - back)
	}
	if flags&flagHasVal != 0 {
		v, err := binary.ReadUvarint(r.hr)
		if err != nil || v > 1<<32-1 {
			return op, fmt.Errorf("tracefile: op %d value invalid (%d, %v)", r.read, v, err)
		}
		op.Val = uint32(v)
	}
	r.read++
	return op, nil
}

// ReadMem decodes the memory image. All ops must have been consumed first.
func (r *Reader) ReadMem() (*mem.Memory, error) {
	if r.read < r.hdr.OpCount {
		return nil, fmt.Errorf("tracefile: ReadMem with %d of %d ops unread", r.hdr.OpCount-r.read, r.hdr.OpCount)
	}
	if r.memDone {
		return nil, fmt.Errorf("tracefile: ReadMem called twice")
	}
	r.memDone = true
	m := mem.New()
	buf := make([]byte, mem.PageSize)
	for i := uint32(0); i < r.hdr.PageCount; i++ {
		pn, err := binary.ReadUvarint(r.hr)
		if err != nil {
			return nil, fmt.Errorf("tracefile: page %d: %w", i, err)
		}
		if pn >= mem.NumPages {
			return nil, fmt.Errorf("tracefile: page %d number %#x is outside the 32-bit address space", i, pn)
		}
		n, err := binary.ReadUvarint(r.hr)
		if err != nil || n == 0 || n > uint64(mem.PageSize) {
			return nil, fmt.Errorf("tracefile: page %d length invalid (%d, %v)", i, n, err)
		}
		if _, err := io.ReadFull(r.hr, buf[:n]); err != nil {
			return nil, fmt.Errorf("tracefile: page %d bytes: %w", i, err)
		}
		m.SetPageBytes(uint32(pn), buf[:n])
	}
	return m, nil
}

// Verify consumes whatever remains of the capture (ops, then the memory
// image) and checks the running digest against the header's. It also
// rejects trailing bytes after the last page record.
func (r *Reader) Verify() error {
	for r.read < r.hdr.OpCount {
		if _, err := r.Next(); err != nil {
			return err
		}
	}
	if !r.memDone {
		if _, err := r.ReadMem(); err != nil {
			return err
		}
	}
	if got := r.hr.sum(); got != r.hdr.Digest {
		return fmt.Errorf("tracefile: digest mismatch: header %s, content %s (capture corrupt or tampered)",
			HexDigest(r.hdr.Digest), HexDigest(got))
	}
	if _, err := r.hr.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("tracefile: trailing bytes after capture body")
	}
	return nil
}

// Load materializes a full trace from rd, verifying the digest and the
// trace's structural invariants.
func Load(rd io.Reader) (*trace.Trace, Header, error) {
	r, err := NewReader(rd)
	if err != nil {
		return nil, Header{}, err
	}
	hdr := r.Header()
	if hdr.OpCount > 1<<33 {
		return nil, hdr, fmt.Errorf("tracefile: op count %d implausible", hdr.OpCount)
	}
	// The header's count is untrusted until the digest checks out, so
	// nothing is reserved from it: the buffer grows one chunk at a time as
	// ops actually decode.
	var ops trace.OpBuffer
	for {
		op, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, hdr, err
		}
		ops.Append(op)
	}
	m, err := r.ReadMem()
	if err != nil {
		return nil, hdr, err
	}
	if err := r.Verify(); err != nil {
		return nil, hdr, err
	}
	tr := &trace.Trace{Name: hdr.Meta.Name, Ops: ops.Ops(), Mem: m}
	if err := trace.Validate(tr); err != nil {
		return nil, hdr, fmt.Errorf("tracefile: %w", err)
	}
	return tr, hdr, nil
}
