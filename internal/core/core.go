// Package core implements the paper's contribution: Learning to Query
// (L2Q). Given a target entity (identified by a seed query) and a target
// aspect (materialized by a relevance function Y over pages), L2Q
// iteratively selects the next query to fire at a search engine so that the
// harvested pages focus on that entity aspect (Fig. 1).
//
// The package provides:
//
//   - The domain phase (§IV-B): one-off learning of template utilities from
//     peer entities in the same domain (LearnDomain → DomainModel).
//   - The entity phase (§IV-C): per-iteration construction of the entity
//     reinforcement graph and utility inference for candidate queries.
//   - Context awareness (§V): collective precision/recall of the candidate
//     together with the past queries Φ, with the redundancy term ∆.
//   - The selection strategies evaluated in §VI: RND, P, R, P+q, R+q,
//     P+t, R+t, L2QP, L2QR and L2QBAL.
package core

import (
	"context"
	"runtime"

	"l2q/internal/search"
	"l2q/internal/textproc"
)

// ContextRetriever is the error-aware, cancellable retriever surface.
// Remote retrievers (internal/webapi's Client) implement it so sessions
// and the pipeline scheduler can cancel in-flight fetches and distinguish
// a transport failure from a genuinely unproductive query; Session's
// FetchQueryCtx uses it when available and adapts plain Retrievers (which
// cannot fail in-process) otherwise.
type ContextRetriever interface {
	Retriever
	// SearchWithSeedErr is SearchWithSeed with context cancellation and
	// typed error propagation: it returns either the complete ranked
	// result list or an error, never a silently shortened list.
	SearchWithSeedErr(ctx context.Context, seed, query []textproc.Token) ([]search.Result, error)
}

// AppendRetriever is the optional allocation-free retrieval surface: a
// Retriever that appends results into a caller-owned buffer instead of
// allocating a fresh slice per query (search.Engine implements it).
// Session.FetchQueryCtx uses it when available, fetching into
// session-owned scratch so steady-state harvesting stops allocating a
// result slice per step.
type AppendRetriever interface {
	SearchWithSeedAppend(dst []search.Result, seed, query []textproc.Token) []search.Result
}

// Query is a candidate query in canonical form: tokens joined by single
// spaces (textproc.JoinQuery). Because tokens may themselves be multi-word
// phrases ("data mining"), converting a Query back to tokens must go
// through Config.QueryTokens, which re-applies the phrase lexicon; naive
// splitting would shatter phrase tokens.
type Query string

// Config carries every tunable of the L2Q model. DefaultConfig returns the
// paper's settings (§VI-A "Settings").
type Config struct {
	// Alpha is the regularization / restart parameter α of Eq. 13
	// (paper: 0.15).
	Alpha float64
	// Lambda is the domain-adaptation parameter λ of Eq. 21–22
	// (paper: 10).
	Lambda float64
	// R0 is the seed-query recall parameter r0 ∈ (0,1) (§V-A), chosen by
	// cross-validation in the paper; 0.3 is our validated default.
	R0 float64
	// R0Star is the seed query's recall w.r.t. Y* (all pages), the base
	// case of the collective precision denominator (§V-B). The relevant
	// subset is much smaller than the page universe, so the seed covers
	// a smaller fraction of Y* than of Y; anchoring both with the same
	// r0 makes R*_E(Φ) saturate and collapses collective precision into
	// collective recall after a few iterations.
	R0Star float64
	// MaxQueryLen is the maximum query length L (paper: 3).
	MaxQueryLen int
	// MinQueryPageDF prunes domain-phase queries occurring in fewer
	// pages (noise n-grams); 2 keeps anything that repeats at all.
	MinQueryPageDF int
	// MinDomainEntityFrac keeps a domain query as an entity-phase
	// candidate only if it occurs with at least this fraction of domain
	// entities (paper: ≥50 of ~500, i.e. 0.1).
	MinDomainEntityFrac float64
	// MaxDomainCandidates caps the domain-derived candidate pool,
	// keeping the most entity-frequent queries.
	MaxDomainCandidates int
	// WeightByLikelihood switches page–query edge weights from binary
	// containment to the retrieval model's per-token likelihood
	// (the paper's "more generally, Wpq can also encode the connection
	// strength", §III). Off by default; an ablation benchmark covers it.
	WeightByLikelihood bool
	// PriorStrength is the pseudo-count weight m of the domain template
	// prior inside the probability-scale collective-recall estimate
	// R_E(q) ≈ (n·count + m·prior)/(n + m); see §V notes in DESIGN.md.
	PriorStrength float64
	// UseWalkRecallReg switches the entity phase's template recall
	// regularization (Eq. 22) from the probability-scale counting
	// estimate back to the raw forward-walk masses R_D(t). The walk
	// masses are diluted by the domain graph's size and barely move the
	// entity fixpoint at λ=10, so counting is the default; the flag
	// exists for the ablation benchmark.
	UseWalkRecallReg bool
	// SolverTol and SolverMaxIter control the fixpoint solver.
	SolverTol     float64
	SolverMaxIter int
	// IncrementalGraph keeps one persistent entity reinforcement graph
	// per session, updated with per-step deltas — new pages and new
	// candidates are connected against the existing vertices and fired
	// queries are detached — instead of rebuilding the graph from
	// scratch on every Infer. Session.InferReference retains the
	// rebuild path; TestIncrementalMatchesReference holds the two to
	// identical rankings. Per-step selection cost drops from
	// O(pages × candidates) to O(Δ).
	IncrementalGraph bool
	// WarmStart seeds each step's fixpoint solves with the previous
	// step's utilities (graph.Problem.X0). The damped fixpoint is a
	// contraction with a unique solution, so warm starting changes
	// iteration counts, not results (within SolverTol). Only effective
	// together with IncrementalGraph.
	WarmStart bool
	// IncrementalPool keeps one persistent candidate pool Q_E per
	// session, updated with per-step deltas — only newly ingested pages
	// are enumerated (first-appearance order preserved) and fired
	// queries are removed incrementally — instead of re-enumerating the
	// n-grams of every gathered page on every step.
	// Session.CandidatesReference retains the rebuild path; differential
	// tests hold the two to identical pools. Per-step candidate
	// generation drops from O(all pages) to O(new pages).
	IncrementalPool bool
	// InferWorkers bounds the worker pool used inside one inference
	// step: delta containment checks when connecting candidates, and
	// the per-candidate collective utilities of §V. 0 picks GOMAXPROCS;
	// 1 is serial (what the pipeline scheduler forces under parallel
	// selection, mirroring the search engine's oversubscription rule).
	// Value-neutral: every worker count computes identical utilities.
	InferWorkers int
	// LearnWorkers bounds the worker pool inside the domain phase
	// (LearnDomainScored): the DF/entity-DF counting pass is sharded
	// over entity groups with a deterministic merge. 0 picks GOMAXPROCS;
	// 1 is serial. Value-neutral: every worker count learns an
	// identical DomainModel (LearnDomainReference is the retained
	// serial rebuild path the differential tests compare against).
	LearnWorkers int
	// SearchShards, SearchScoreWorkers and SearchCacheSize tune the
	// retrieval engine (see search.Options): index shard count, per-query
	// scoring parallelism, and the LRU query-result cache capacity. All
	// three are ranking-neutral; zero values pick the engine defaults
	// (shards/workers = GOMAXPROCS, cache on), SearchCacheSize < 0
	// disables caching.
	SearchShards       int
	SearchScoreWorkers int
	SearchCacheSize    int
	// MemtableDocs, CompactFanIn and IngestWorkers tune the live
	// generational engine (see search.LiveOptions): the memtable seal
	// threshold in documents, the background-compaction fan-in (negative
	// disables background compaction), and the ingest pre-tokenization
	// worker bound. All three are ranking-neutral — the live engine's
	// differential-parity contract holds for every setting; zero values
	// pick the engine defaults.
	MemtableDocs  int
	CompactFanIn  int
	IngestWorkers int
	// Stopwords filters candidate n-grams; nil disables filtering.
	Stopwords *textproc.Stopwords
	// Tokenizer re-tokenizes query strings (and the seed query) with the
	// domain's phrase lexicon so multi-word phrase tokens survive the
	// round trip. Nil falls back to plain space splitting, which is only
	// correct when the corpus has no phrase tokens.
	Tokenizer *textproc.Tokenizer
}

// DefaultConfig returns the paper's parameter settings.
func DefaultConfig() Config {
	return Config{
		Alpha:               0.15,
		Lambda:              10,
		R0:                  0.3,
		R0Star:              0.1,
		MaxQueryLen:         3,
		MinQueryPageDF:      2,
		MinDomainEntityFrac: 0.1,
		MaxDomainCandidates: 300,
		PriorStrength:       3,
		SolverTol:           1e-9,
		SolverMaxIter:       200,
		IncrementalGraph:    true,
		IncrementalPool:     true,
		WarmStart:           true,
		Stopwords:           textproc.NewStopwords(),
	}
}

// inferWorkers resolves the InferWorkers knob to a concrete pool size.
func (c Config) inferWorkers() int {
	if c.InferWorkers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if c.InferWorkers < 1 {
		return 1
	}
	return c.InferWorkers
}

// learnWorkers resolves the LearnWorkers knob to a concrete pool size.
func (c Config) learnWorkers() int {
	if c.LearnWorkers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if c.LearnWorkers < 1 {
		return 1
	}
	return c.LearnWorkers
}

// SearchOptions collects the retrieval-engine knobs for search.BuildIndexOpts
// and search.NewEngineOpts.
func (c Config) SearchOptions() search.Options {
	return search.Options{
		Shards:       c.SearchShards,
		ScoreWorkers: c.SearchScoreWorkers,
		CacheSize:    c.SearchCacheSize,
	}
}

// LiveOptions collects the generational-lifecycle knobs for
// search.NewLiveEngine.
func (c Config) LiveOptions() search.LiveOptions {
	return search.LiveOptions{
		MemtableDocs:  c.MemtableDocs,
		CompactFanIn:  c.CompactFanIn,
		IngestWorkers: c.IngestWorkers,
	}
}

// QueryTokens converts a canonical query string to its token sequence,
// re-applying the phrase lexicon when a tokenizer is configured.
func (c Config) QueryTokens(q Query) []textproc.Token {
	if c.Tokenizer != nil {
		return c.Tokenizer.Tokenize(string(q))
	}
	return textproc.SplitQuery(string(q))
}

// ngramConfig builds the textproc enumeration config for this Config,
// excluding the given tokens (the seed query's tokens in the entity phase).
func (c Config) ngramConfig(exclude []textproc.Token) textproc.NGramConfig {
	var ex map[textproc.Token]struct{}
	if len(exclude) > 0 {
		ex = make(map[textproc.Token]struct{}, len(exclude))
		for _, t := range exclude {
			ex[t] = struct{}{}
		}
	}
	return textproc.NGramConfig{MaxLen: c.MaxQueryLen, Stopwords: c.Stopwords, Exclude: ex}
}
