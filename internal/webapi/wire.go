package webapi

// The binary wire protocol: a length-prefixed, CRC-framed encoding for
// the serving boundary's hot payloads — search hits, page bodies,
// collection-frequency batches, and harvest/job event streams. It extends
// the framed-CRC idiom of the durable store artifacts (L2QSTOR1,
// L2QCKPT1, L2QDOM1) to the live wire, reusing the store package's
// exported payload primitives (store.Enc/store.Dec).
//
// Frame layout (one frame per response; streams are frame sequences):
//
//	magic "L2QWIR1" (7 bytes)
//	kind  byte   — payload type (wireStats, wireSearch, ...)
//	flags byte   — bit 0: payload is gzip-compressed
//	payloadLen uvarint — length of the on-wire payload (post-compression)
//	crc32 (4B LE)      — IEEE CRC of the on-wire payload
//	payload
//
// The CRC covers the bytes as transferred, so integrity is verified
// before inflating. Negotiation is per request: a client that sends
// Accept: application/x-l2q-wire gets frames; everyone else gets the
// JSON (or raw-HTML, for pages) debug path, which stays the default.
// Because every frame self-identifies with the magic, a client can also
// sniff the response body: a server that ignored the Accept header (an
// older release, a plain proxy error) is detected and decoded as JSON —
// the clean mixed-version fallback.
//
// Encode buffers and gzip coders are pooled: a busy server frames every
// hot response without per-request allocations beyond the frame itself.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"l2q/internal/corpus"
	"l2q/internal/store"
)

// wireMagic identifies a wire frame and its major version.
const wireMagic = "L2QWIR1"

// wireContentType is the negotiated media type of framed responses.
const wireContentType = "application/x-l2q-wire"

// WireContentType is the media type a client sends in Accept (and a
// server answers in Content-Type) to negotiate the binary wire codec.
// Exported for flag help text and for non-Go clients of the API.
const WireContentType = wireContentType

// Frame payload kinds.
const (
	wireStats     byte = 1
	wireSearch    byte = 2
	wirePage      byte = 3
	wireCollFreq  byte = 4
	wireEntities  byte = 5
	wireEvent     byte = 6
	wireNodeStats byte = 7
	wireIngest    byte = 8
)

// Frame flags.
const wireFlagGzip byte = 1

// DefaultCompressMin is the default gzip threshold: page payloads at
// least this large are compressed inside their frame. Small payloads
// skip compression — the gzip header plus CPU costs more than it saves.
const DefaultCompressMin = 1 << 10

// encPool recycles payload encoders across requests.
var encPool = sync.Pool{New: func() any { return new(store.Enc) }}

// gzipWPool recycles gzip writers (Reset re-arms them).
var gzipWPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// gzipRPool recycles gzip readers.
var gzipRPool sync.Pool

// marshalFrame encodes one payload with encode and wraps it in a wire
// frame. compressMin > 0 gzips payloads at least that large (and keeps
// the compressed form only when it is actually smaller).
func marshalFrame(kind byte, compressMin int, encode func(*store.Enc)) []byte {
	e := encPool.Get().(*store.Enc)
	e.Reset()
	encode(e)
	payload := e.Data()
	flags := byte(0)
	var zbuf bytes.Buffer
	if compressMin > 0 && len(payload) >= compressMin {
		zw := gzipWPool.Get().(*gzip.Writer)
		zw.Reset(&zbuf)
		zw.Write(payload) //nolint:errcheck // bytes.Buffer cannot fail
		_ = zw.Close()
		gzipWPool.Put(zw)
		if zbuf.Len() < len(payload) {
			payload = zbuf.Bytes()
			flags |= wireFlagGzip
		}
	}
	out := make([]byte, 0, len(wireMagic)+2+binary.MaxVarintLen64+4+len(payload))
	out = append(out, wireMagic...)
	out = append(out, kind, flags)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = append(out, payload...)
	encPool.Put(e)
	return out
}

// isWireFrame sniffs a response body for the frame magic — how a client
// that asked for binary discovers whether the server actually spoke it.
func isWireFrame(b []byte) bool {
	return len(b) >= len(wireMagic) && string(b[:len(wireMagic)]) == wireMagic
}

// openFrame verifies and unwraps a single-frame body: magic, kind, CRC,
// exact length (no trailing bytes), then inflation if flagged. The
// returned payload is safe to retain.
func openFrame(b []byte, wantKind byte) ([]byte, error) {
	if !isWireFrame(b) {
		return nil, fmt.Errorf("wire: missing frame magic")
	}
	rest := b[len(wireMagic):]
	if len(rest) < 2 {
		return nil, fmt.Errorf("wire: truncated frame header")
	}
	kind, flags := rest[0], rest[1]
	rest = rest[2:]
	size, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("wire: bad payload length")
	}
	rest = rest[n:]
	if len(rest) < 4 {
		return nil, fmt.Errorf("wire: truncated frame crc")
	}
	wantCRC := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(len(rest)) != size {
		return nil, fmt.Errorf("wire: frame declares %d payload bytes, has %d", size, len(rest))
	}
	if kind != wantKind {
		return nil, fmt.Errorf("wire: frame kind %d, want %d", kind, wantKind)
	}
	return checkAndInflate(rest, flags, wantCRC)
}

// checkAndInflate verifies the on-wire CRC and undoes compression.
func checkAndInflate(payload []byte, flags byte, wantCRC uint32) ([]byte, error) {
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("wire: frame checksum mismatch (got %08x, want %08x)", got, wantCRC)
	}
	if flags&wireFlagGzip == 0 {
		return payload, nil
	}
	var zr *gzip.Reader
	if v := gzipRPool.Get(); v != nil {
		zr = v.(*gzip.Reader)
		if err := zr.Reset(bytes.NewReader(payload)); err != nil {
			return nil, fmt.Errorf("wire: gzip: %w", err)
		}
	} else {
		var err error
		if zr, err = gzip.NewReader(bytes.NewReader(payload)); err != nil {
			return nil, fmt.Errorf("wire: gzip: %w", err)
		}
	}
	out, err := io.ReadAll(io.LimitReader(zr, maxResponseBytes))
	closeErr := zr.Close()
	gzipRPool.Put(zr)
	if err == nil {
		err = closeErr
	}
	if err != nil {
		return nil, fmt.Errorf("wire: gunzip: %w", err)
	}
	return out, nil
}

// frameReader consumes a stream of frames (the binary harvest/job event
// streams). Unlike NDJSON — where a severed connection just looks like
// the last line — a truncated frame is a detected error, not a silent
// early end of stream.
type frameReader struct {
	br *bufio.Reader
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// next reads one frame of the given kind. A clean end of stream returns
// io.EOF; a stream severed mid-frame returns an unexpected-EOF error.
func (fr *frameReader) next(wantKind byte) ([]byte, error) {
	head := make([]byte, len(wireMagic)+2)
	if _, err := io.ReadFull(fr.br, head); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean boundary: no partial frame
		}
		return nil, fmt.Errorf("wire: stream truncated mid-header: %w", err)
	}
	if string(head[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("wire: bad stream frame magic %q", head[:len(wireMagic)])
	}
	kind, flags := head[len(wireMagic)], head[len(wireMagic)+1]
	size, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return nil, fmt.Errorf("wire: stream truncated reading length: %w", err)
	}
	if size > maxResponseBytes {
		return nil, fmt.Errorf("wire: implausible stream frame size %d", size)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(fr.br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("wire: stream truncated reading crc: %w", err)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		return nil, fmt.Errorf("wire: stream truncated mid-payload: %w", err)
	}
	if kind != wantKind {
		return nil, fmt.Errorf("wire: stream frame kind %d, want %d", kind, wantKind)
	}
	return checkAndInflate(payload, flags, binary.LittleEndian.Uint32(crcBuf[:]))
}

// ---- payload codecs ----
//
// Every hot payload has a binary encode/decode pair held to decoded-value
// parity with the JSON path by the negotiation-matrix and differential
// tests. Zero-length slices decode as nil, matching encoding/json's
// omitempty round-trip, so reflect.DeepEqual parity holds across codecs.

func encodeStatsWire(e *store.Enc, st Stats) {
	e.Str(st.Domain)
	e.Varint(int64(st.NumEntities))
	e.Varint(int64(st.NumPages))
	e.Varint(int64(st.NumTerms))
	e.Varint(int64(st.TotalTokens))
	e.F64(st.Mu)
	e.Varint(int64(st.TopK))
}

func decodeStatsWire(d *store.Dec) Stats {
	return Stats{
		Domain:      d.Str(),
		NumEntities: int(d.Varint()),
		NumPages:    int(d.Varint()),
		NumTerms:    int(d.Varint()),
		TotalTokens: int(d.Varint()),
		Mu:          d.F64(),
		TopK:        int(d.Varint()),
	}
}

func encodeSearchWire(e *store.Enc, resp SearchResponse) {
	e.Str(resp.Query)
	e.Str(resp.Seed)
	partial := byte(0)
	if resp.Partial {
		partial = 1
	}
	e.Byte(partial)
	e.Uvarint(uint64(len(resp.Hits)))
	for _, h := range resp.Hits {
		e.Varint(int64(h.PageID))
		e.Str(h.URL)
		e.Str(h.Title)
		e.F64(h.Score)
	}
}

func decodeSearchWire(d *store.Dec) SearchResponse {
	resp := SearchResponse{Query: d.Str(), Seed: d.Str(), Partial: d.Byte() != 0}
	n := d.Count("search hits", 11) // id, url, title: 1+ byte each; score: 8
	if n > 0 {
		resp.Hits = make([]SearchHit, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		resp.Hits = append(resp.Hits, SearchHit{
			PageID: corpus.PageID(d.Varint()),
			URL:    d.Str(),
			Title:  d.Str(),
			Score:  d.F64(),
		})
	}
	return resp
}

// encodeCollFreqWire writes the token→frequency batch with sorted keys,
// so identical batches produce identical bytes (the store codecs'
// determinism rule).
func encodeCollFreqWire(e *store.Enc, freqs map[string]int) {
	keys := make([]string, 0, len(freqs))
	for k := range freqs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.Varint(int64(freqs[k]))
	}
}

func decodeCollFreqWire(d *store.Dec) map[string]int {
	n := d.Count("collfreq entries", 2)
	out := make(map[string]int, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		out[k] = int(d.Varint())
	}
	return out
}

// encodeNodeStatsWire frames a cluster node's primary-partition stat
// report. Both frequency maps ride as sorted (token, count) runs — the
// store codecs' determinism rule — by reusing the collfreq pair codec.
func encodeNodeStatsWire(e *store.Enc, st NodeStatsPayload) {
	e.Varint(int64(st.Node))
	e.Varint(int64(st.Nodes))
	e.Varint(int64(st.Replicas))
	e.Varint(int64(st.Partition))
	e.Varint(int64(st.NumDocs))
	e.Varint(int64(st.TotalTokens))
	e.Varint(int64(st.TopK))
	encodeCollFreqWire(e, st.CollFreq)
	encodeCollFreqWire(e, st.DocFreq)
}

func decodeNodeStatsWire(d *store.Dec) NodeStatsPayload {
	return NodeStatsPayload{
		Node:        int(d.Varint()),
		Nodes:       int(d.Varint()),
		Replicas:    int(d.Varint()),
		Partition:   int(d.Varint()),
		NumDocs:     int(d.Varint()),
		TotalTokens: int(d.Varint()),
		TopK:        int(d.Varint()),
		CollFreq:    decodeCollFreqWire(d),
		DocFreq:     decodeCollFreqWire(d),
	}
}

func encodeEntitiesWire(e *store.Enc, ents []EntityInfo) {
	e.Uvarint(uint64(len(ents)))
	for _, ent := range ents {
		e.Varint(int64(ent.ID))
		e.Str(ent.Name)
		e.Str(ent.SeedQuery)
	}
}

func decodeEntitiesWire(d *store.Dec) []EntityInfo {
	n := d.Count("entities", 3) // id, name, seed query
	var out []EntityInfo
	if n > 0 {
		out = make([]EntityInfo, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, EntityInfo{
			ID:        corpus.EntityID(d.Varint()),
			Name:      d.Str(),
			SeedQuery: d.Str(),
		})
	}
	return out
}

func encodeEventWire(e *store.Enc, ev HarvestEvent) {
	e.Str(ev.Type)
	e.Varint(int64(ev.Entity))
	e.Varint(int64(ev.Iteration))
	e.Str(ev.Query)
	e.Varint(int64(ev.NewPages))
	e.Varint(int64(ev.TotalPages))
	e.Uvarint(uint64(len(ev.Fired)))
	for _, q := range ev.Fired {
		e.Str(q)
	}
	e.Uvarint(uint64(len(ev.Pages)))
	prev := int64(0)
	for _, id := range ev.Pages {
		e.Varint(int64(id) - prev)
		prev = int64(id)
	}
	e.Varint(int64(ev.Entities))
	e.Varint(int64(ev.Failed))
	e.Str(ev.Error)
}

func decodeEventWire(d *store.Dec) HarvestEvent {
	ev := HarvestEvent{
		Type:       d.Str(),
		Entity:     corpus.EntityID(d.Varint()),
		Iteration:  int(d.Varint()),
		Query:      d.Str(),
		NewPages:   int(d.Varint()),
		TotalPages: int(d.Varint()),
	}
	nFired := d.Count("fired queries", 1)
	for i := 0; i < nFired && d.Err() == nil; i++ {
		ev.Fired = append(ev.Fired, d.Str())
	}
	nPages := d.Count("event pages", 1)
	prev := int64(0)
	for i := 0; i < nPages && d.Err() == nil; i++ {
		prev += d.Varint()
		ev.Pages = append(ev.Pages, corpus.PageID(prev))
	}
	ev.Entities = int(d.Varint())
	ev.Failed = int(d.Varint())
	ev.Error = d.Str()
	return ev
}

// encodeIngestWire frames an ingest batch. Paragraph text rides as-is;
// tokenization is the SERVER's job (with the corpus tokenizer), which is
// what keeps grown rankings identical to a frozen rebuild — a client-side
// tokenizer could disagree on phrase boundaries.
func encodeIngestWire(e *store.Enc, req IngestRequest) {
	e.Uvarint(uint64(len(req.Pages)))
	for _, p := range req.Pages {
		e.Varint(int64(p.ID))
		e.Varint(int64(p.Entity))
		e.Str(p.EntityName)
		e.Str(p.SeedQuery)
		e.Str(p.URL)
		e.Str(p.Title)
		e.Uvarint(uint64(len(p.Paras)))
		for _, para := range p.Paras {
			e.Str(para.Text)
			e.Str(para.Aspect)
		}
		e.Uvarint(uint64(len(p.Links)))
		prev := int64(0)
		for _, id := range p.Links {
			e.Varint(int64(id) - prev)
			prev = int64(id)
		}
	}
}

func decodeIngestWire(d *store.Dec) IngestRequest {
	var req IngestRequest
	n := d.Count("ingest pages", 8) // 6 scalar/string fields + 2 counts
	if n > 0 {
		req.Pages = make([]IngestPage, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		p := IngestPage{
			ID:         corpus.PageID(d.Varint()),
			Entity:     corpus.EntityID(d.Varint()),
			EntityName: d.Str(),
			SeedQuery:  d.Str(),
			URL:        d.Str(),
			Title:      d.Str(),
		}
		nPara := d.Count("ingest paragraphs", 2)
		if nPara > 0 {
			p.Paras = make([]IngestParagraph, 0, nPara)
		}
		for j := 0; j < nPara && d.Err() == nil; j++ {
			p.Paras = append(p.Paras, IngestParagraph{Text: d.Str(), Aspect: d.Str()})
		}
		nLinks := d.Count("ingest links", 1)
		if nLinks > 0 {
			p.Links = make([]corpus.PageID, 0, nLinks)
		}
		prev := int64(0)
		for j := 0; j < nLinks && d.Err() == nil; j++ {
			prev += d.Varint()
			p.Links = append(p.Links, corpus.PageID(prev))
		}
		req.Pages = append(req.Pages, p)
	}
	return req
}

// encodeIngestAckWire frames the ingest acknowledgement (same frame kind
// as the request: the route owns the kind, direction disambiguates).
func encodeIngestAckWire(e *store.Enc, resp IngestResponse) {
	e.Varint(int64(resp.Ingested))
	e.Varint(int64(resp.Duplicates))
	e.Varint(int64(resp.NumDocs))
	e.Uvarint(resp.Epoch)
	e.Varint(int64(resp.Segments))
}

func decodeIngestAckWire(d *store.Dec) IngestResponse {
	return IngestResponse{
		Ingested:   int(d.Varint()),
		Duplicates: int(d.Varint()),
		NumDocs:    int(d.Varint()),
		Epoch:      d.Uvarint(),
		Segments:   int(d.Varint()),
	}
}

// decodeFramePayload opens a single-frame body and runs decode over it,
// insisting — like the store loaders — that the payload reads clean and
// is fully consumed.
func decodeFramePayload(b []byte, kind byte, decode func(*store.Dec)) error {
	payload, err := openFrame(b, kind)
	if err != nil {
		return err
	}
	d := store.NewDec(payload)
	decode(d)
	if err := d.Err(); err != nil {
		return fmt.Errorf("wire: frame payload: %w", err)
	}
	if !d.Done() {
		return fmt.Errorf("wire: frame payload has %d trailing bytes", d.Remaining())
	}
	return nil
}
