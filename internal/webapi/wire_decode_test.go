package webapi

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"l2q/internal/store"
)

// TestIngestDecodeAllocationBounded feeds the ingest decoder 1 MiB frames
// whose page, paragraph or link count is hostile: either as large as the
// remaining bytes, or the largest count the element's minimum encoded
// size admits. Decoding must allocate at most 16 bytes per input byte
// (plus fixed slack), however the counts are chosen.
func TestIngestDecodeAllocationBounded(t *testing.T) {
	const filler = 1 << 20
	emptyPage := func(e *store.Enc) {
		e.Varint(1) // id
		e.Varint(1) // entity
		for range 4 {
			e.Str("") // entity name, seed query, url, title
		}
	}
	cases := []struct {
		name    string
		minSize int // the decoder's minimum encoded size of one element
		prefix  func(*store.Enc)
	}{
		{"pages", 8, func(*store.Enc) {}},
		{"paragraphs", 2, func(e *store.Enc) { e.Uvarint(1); emptyPage(e) }},
		{"links", 1, func(e *store.Enc) { e.Uvarint(1); emptyPage(e); e.Uvarint(0) }},
	}
	for _, c := range cases {
		counts := []int{filler}
		if c.minSize > 1 {
			counts = append(counts, filler/c.minSize)
		}
		for _, count := range counts {
			var payload store.Enc
			c.prefix(&payload)
			payload.Uvarint(uint64(count))
			payload.Raw(make([]byte, filler))
			frame := marshalFrame(wireIngest, 0, func(e *store.Enc) { e.Raw(payload.Data()) })

			// The heap counters are process-wide, so goroutines left over
			// from other tests can add to one reading; the least of three
			// decodes is the decoder's own allocation.
			allocated := uint64(math.MaxUint64)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_ = decodeFramePayload(frame, wireIngest, func(d *store.Dec) { decodeIngestWire(d) })
				runtime.ReadMemStats(&after)
				allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
			}
			limit := 16*uint64(len(frame)) + 64<<10
			t.Logf("%s count %d: %d B allocated for a %d B frame (%.1fx)",
				c.name, count, allocated, len(frame), float64(allocated)/float64(len(frame)))
			if allocated > limit {
				t.Errorf("%s count %d: allocated %d B for a %d B frame, limit %d B",
					c.name, count, allocated, len(frame), limit)
			}
		}
	}
}

// FuzzDecodeIngestWire fuzzes the ingest payload decoder below the frame
// CRC. Arbitrary bytes must never panic, and any payload that decodes
// cleanly must survive decode → encode → decode unchanged.
func FuzzDecodeIngestWire(f *testing.F) {
	for _, req := range []IngestRequest{ingestWireFixture, {}, {Pages: []IngestPage{{}}}} {
		var e store.Enc
		encodeIngestWire(&e, req)
		f.Add(e.Data())
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		d := store.NewDec(payload)
		req := decodeIngestWire(d)
		if !d.Done() {
			return
		}
		var e store.Enc
		encodeIngestWire(&e, req)
		d2 := store.NewDec(e.Data())
		again := decodeIngestWire(d2)
		if !d2.Done() {
			t.Fatalf("re-encoded batch does not decode cleanly: %v", d2.Err())
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("decode → encode → decode changed the batch:\n got %+v\nwant %+v", again, req)
		}
	})
}
