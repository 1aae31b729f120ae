// Package store persists a corpus and its inverted index in a compact,
// checksummed binary file — the "gather once, harvest many times" storage
// layer. The paper's protocol collects all pages in advance (§VI-A) and
// then runs every experiment against that fixed collection; this package
// makes the collection a durable artifact instead of an in-memory object
// that must be regenerated per process.
//
// The format is a sequence of named sections, each independently
// CRC32-checksummed, ending in a sentinel section:
//
//	magic "L2QSTOR1"
//	section := nameLen uvarint | name | payloadLen uvarint | crc32 (4B LE) | payload
//	...
//	end     := section with name "END" and empty payload
//
// Payload encodings use varints throughout; token streams are dictionary-
// coded against a front-coded sorted term dictionary, and posting lists are
// delta-encoded. Sections unknown to a reader are skipped, so the format
// can grow without breaking old readers.
//
// The payload primitives (Enc/Dec) are exported: the live wire protocol
// (internal/webapi's L2QWIR1 frames) encodes its payloads with the exact
// same varint/length-prefix/sticky-error idiom the durable artifacts
// (L2QSTOR1, L2QCKPT1, L2QDOM1) proved out.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc builds a payload. All methods append; Enc never fails. The zero
// value is ready to use, and Reset makes one instance poolable.
type Enc struct {
	buf []byte
}

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a zig-zag signed varint.
func (e *Enc) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte blob.
func (e *Enc) Bytes(p []byte) {
	e.Uvarint(uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// Byte appends one raw byte (flags, booleans).
func (e *Enc) Byte(b byte) {
	e.buf = append(e.buf, b)
}

// Raw appends p verbatim, with no length prefix — for payloads whose
// outer framing already delimits them (a wire frame carrying one blob).
func (e *Enc) Raw(p []byte) {
	e.buf = append(e.buf, p...)
}

// F64 appends a float64 verbatim (little-endian IEEE 754 bits), so
// restored values are bit-identical to the encoded ones.
func (e *Enc) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Len returns the number of encoded bytes so far.
func (e *Enc) Len() int { return len(e.buf) }

// Data returns the encoded payload. The slice aliases the encoder's
// buffer: copy it if the encoder outlives the use (pooled encoders do).
func (e *Enc) Data() []byte { return e.buf }

// Reset empties the encoder for reuse, keeping the allocated buffer.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Dec consumes a payload built by Enc. The first malformed read poisons
// the decoder; callers check Err once at the end (sticky-error style,
// like bufio.Scanner).
type Dec struct {
	buf []byte
	pos int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Fail poisons the decoder with a truncation/corruption error naming
// what was being read (no-op if already poisoned).
func (d *Dec) Fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("store: truncated or corrupt %s at offset %d", what, d.pos)
	}
}

// Err returns the sticky decode error, nil while the payload reads clean.
func (d *Dec) Err() error { return d.err }

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.Fail("uvarint")
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.Fail("varint")
		return 0
	}
	d.pos += n
	return v
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.Fail("string")
		return ""
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// Bytes reads a length-prefixed byte blob. The returned slice aliases
// the decoder's buffer.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.Fail("bytes")
		return nil
	}
	p := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return p
}

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.Fail("byte")
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

// F64 reads a verbatim float64.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.buf) {
		d.Fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return v
}

// Count reads the length prefix of a run of elements that each encode to
// at least minSize (≥ 1) bytes, and rejects a count the remaining bytes
// cannot hold. A caller that preallocates the count's elements then
// allocates in proportion to its input: at most (element size / minSize)
// times the payload, however hostile the prefix.
func (d *Dec) Count(what string, minSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64((len(d.buf)-d.pos)/minSize) {
		d.Fail(what + " count")
		return 0
	}
	return int(n)
}

// Remaining returns how many bytes are left to read.
func (d *Dec) Remaining() int { return len(d.buf) - d.pos }

// Done reports a clean, fully consumed payload.
func (d *Dec) Done() bool { return d.err == nil && d.pos == len(d.buf) }
