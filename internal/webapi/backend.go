package webapi

// The serving source behind every handler. A Server picks one backend at
// construction — a localBackend over a frozen or live engine, or a
// clusterBackend over a Coordinator — and every handler calls it the same
// way. A capability a backend lacks answers with a *serveError, which the
// handler turns into the error envelope like any other failure.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/textproc"
)

// backend is the serving surface a Server answers from. The exported
// method names are the Coordinator's own.
type backend interface {
	Stats() Stats
	// search runs seed ∥ query for k results (k ≤ 0: the configured top-k).
	search(ctx context.Context, seed, query []textproc.Token, k int) (SearchResponse, error)
	collFreqBatch(tokens []string) map[string]int
	Entities() []EntityInfo
	PageCtx(ctx context.Context, id corpus.PageID) (*corpus.Page, error)
	// addMetrics fills the backend's section of /api/v1/metrics.
	addMetrics(m *ServerMetrics)
	// globalStats answers GET /api/v1/cluster/stats on a non-node server.
	globalStats() (GlobalStatsPayload, error)
	ingest(req IngestRequest) (IngestResponse, error)
	// sessions returns the retriever and entity lookup server-side
	// harvest sessions run on.
	sessions() (core.Retriever, func(corpus.EntityID) *corpus.Entity, error)
}

// serveError is a server-side failure with the HTTP status to answer it
// with: a harvest request that fails validation, a capability the backend
// lacks.
type serveError struct {
	status int
	msg    string
}

func (e *serveError) Error() string { return e.msg }

func serveErrorf(status int, format string, args ...any) *serveError {
	return &serveError{status: status, msg: fmt.Sprintf(format, args...)}
}

// errorStatus maps a backend failure to its status: a *serveError carries
// its own, a page whose cluster owners all 404 it stays a 404, and
// canceled requests and whole-cluster outages are retryable 503s.
func errorStatus(err error) int {
	var se *serveError
	if errors.As(err, &se) {
		return se.status
	}
	var te *TransportError
	if errors.As(err, &te) && te.Status == http.StatusNotFound {
		return http.StatusNotFound
	}
	return http.StatusServiceUnavailable
}

// retrieval is the engine surface a localBackend reads; *search.Engine
// and *search.LiveEngine both satisfy it.
type retrieval interface {
	core.Retriever
	SearchWithSeedTopKAppend(dst []search.Result, k int, seed, query []textproc.Token) []search.Result
	Mu() float64
	NumTerms() int
	TotalTokens() int
	CollectionFreq(t textproc.Token) int
}

// localBackend serves an in-process corpus and engine. mu guards corpus
// and pages, which only ingest grows; searches never take it (a live
// engine reads lock-free epoch views).
type localBackend struct {
	eng retrieval
	// live is the engine ingest grows and tok tokenizes ingested text
	// with (see ingest.go); live is nil on a frozen server.
	live *search.LiveEngine
	tok  *textproc.Tokenizer

	mu     sync.RWMutex
	corpus *corpus.Corpus
	pages  map[corpus.PageID]*corpus.Page
}

func newLocalBackend(c *corpus.Corpus, eng retrieval, live *search.LiveEngine, tok *textproc.Tokenizer) *localBackend {
	pages := make(map[corpus.PageID]*corpus.Page, c.NumPages())
	for _, p := range c.Pages {
		pages[p.ID] = p
	}
	return &localBackend{eng: eng, live: live, tok: tok, corpus: c, pages: pages}
}

func (b *localBackend) Stats() Stats {
	b.mu.RLock()
	st := Stats{
		Domain:      string(b.corpus.Domain),
		NumEntities: b.corpus.NumEntities(),
		NumPages:    b.corpus.NumPages(),
	}
	b.mu.RUnlock()
	st.NumTerms = b.eng.NumTerms()
	st.TotalTokens = b.eng.TotalTokens()
	st.Mu = b.eng.Mu()
	st.TopK = b.eng.TopK()
	return st
}

func (b *localBackend) search(_ context.Context, seed, query []textproc.Token, k int) (SearchResponse, error) {
	return searchResponse(seed, query, b.eng.SearchWithSeedTopKAppend(nil, k, seed, query)), nil
}

func (b *localBackend) collFreqBatch(tokens []string) map[string]int {
	freqs := make(map[string]int, len(tokens))
	for _, t := range tokens {
		freqs[t] = b.eng.CollectionFreq(t)
	}
	return freqs
}

func (b *localBackend) Entities() []EntityInfo {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]EntityInfo, 0, b.corpus.NumEntities())
	for _, e := range b.corpus.Entities {
		out = append(out, EntityInfo{ID: e.ID, Name: e.Name, SeedQuery: e.SeedQuery})
	}
	return out
}

func (b *localBackend) PageCtx(_ context.Context, id corpus.PageID) (*corpus.Page, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if p, ok := b.pages[id]; ok {
		return p, nil
	}
	return nil, serveErrorf(http.StatusNotFound, "no such page")
}

func (b *localBackend) addMetrics(m *ServerMetrics) {
	if b.live != nil {
		lm := b.live.Metrics()
		m.Live = &lm
	}
}

func (b *localBackend) globalStats() (GlobalStatsPayload, error) {
	return GlobalStatsPayload{}, serveErrorf(http.StatusNotImplemented, "cluster endpoints not enabled (start with a cluster spec)")
}

func (b *localBackend) sessions() (core.Retriever, func(corpus.EntityID) *corpus.Entity, error) {
	return b.eng, func(id corpus.EntityID) *corpus.Entity {
		b.mu.RLock()
		defer b.mu.RUnlock()
		return b.corpus.Entity(id)
	}, nil
}

// clusterBackend answers from a Coordinator: searches scatter-gather (a
// partial result is served flagged, not errored), pages proxy to their
// owning node, and statistics come from the global model every node
// scores with, so clients reproduce cluster scoring exactly.
type clusterBackend struct{ *Coordinator }

func (b clusterBackend) search(ctx context.Context, seed, query []textproc.Token, k int) (SearchResponse, error) {
	return b.Scatter(ctx, seed, query, k)
}

func (b clusterBackend) addMetrics(m *ServerMetrics) {
	cm := b.Metrics()
	m.Cluster = &cm
}

func (b clusterBackend) globalStats() (GlobalStatsPayload, error) { return b.GlobalStats(), nil }

func (b clusterBackend) ingest(IngestRequest) (IngestResponse, error) {
	return IngestResponse{}, serveErrorf(http.StatusNotImplemented, "ingest not supported: server is a cluster coordinator")
}

// sessions is unsupported: sessions run next to an index, and the
// coordinator has none (harvest through a Client dialed at it instead).
func (b clusterBackend) sessions() (core.Retriever, func(corpus.EntityID) *corpus.Entity, error) {
	return nil, nil, serveErrorf(http.StatusNotImplemented, "harvesting not supported on a cluster coordinator")
}
