package store

// Domain-artifact files persist the output of the domain phase — trained
// core.DomainModels plus the aspect classifiers that materialize Y — so a
// server boots warm instead of re-learning every domain model on its
// first harvest request (the paper's own efficiency note: the domain
// phase "is only executed once", §VI-C — which is precisely why its
// output should be a durable artifact). The format mirrors the store
// file: a magic header, framed CRC32-checksummed sections, and an END
// sentinel, with the same forward-compatibility rule (skip unknown
// sections).
//
//	magic "L2QDOM1"
//	DMET section: corpus domain str | entities uvarint | pages uvarint
//	DOMS section: count | per model: aspect str | 5 template maps |
//	    4 query maps | candidates | relFraction f64 | numEntities |
//	    numPages   (maps encoded sorted by key, so files are
//	    deterministic byte-for-byte)
//	CLSF section: count | per classifier: aspect str | logPrior f64×2 |
//	    logUnk f64×2 | per class: vocab count | (token str, f64)...
//	END sentinel
//
// Every float64 travels verbatim (IEEE bits), so a loaded model selects
// byte-identically to the freshly learned one.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// domMagic identifies a domain-artifact file and its major version.
const domMagic = "L2QDOM1"

const (
	secDomMeta     = "DMET"
	secDomains     = "DOMS"
	secClassifiers = "CLSF"
)

// DomainArtifact is what a domain-artifact file contains: the trained
// domain models and aspect classifiers of one corpus, plus the corpus
// identity they were learned from (informational, surfaced at load so an
// operator can spot a corpus/artifact mismatch).
type DomainArtifact struct {
	// CorpusDomain, NumEntities and NumPages identify the corpus the
	// models were learned over.
	CorpusDomain corpus.Domain
	NumEntities  int
	NumPages     int
	// Models holds one trained DomainModel per aspect, sorted by aspect.
	Models []*core.DomainModel
	// Classifiers holds the trained aspect classifiers, sorted by
	// aspect; may be empty when the producer persisted models only.
	Classifiers []classify.Params
}

// ModelMap returns the artifact's models keyed by aspect — the shape
// webapi.HarvestBackend.Preload consumes.
func (a *DomainArtifact) ModelMap() map[corpus.Aspect]*core.DomainModel {
	m := make(map[corpus.Aspect]*core.DomainModel, len(a.Models))
	for _, dm := range a.Models {
		m[dm.Aspect] = dm
	}
	return m
}

// ModelByAspect returns the artifact's domain model for an aspect, or nil.
func (a *DomainArtifact) ModelByAspect(asp corpus.Aspect) *core.DomainModel {
	for _, dm := range a.Models {
		if dm.Aspect == asp {
			return dm
		}
	}
	return nil
}

// ClassifierSet reconstructs a classify.Set from the persisted
// classifier parameters (nil when the artifact carries none).
func (a *DomainArtifact) ClassifierSet() *classify.Set {
	if len(a.Classifiers) == 0 {
		return nil
	}
	cs := make([]*classify.Classifier, 0, len(a.Classifiers))
	for _, p := range a.Classifiers {
		cs = append(cs, classify.FromParams(p))
	}
	return classify.NewSet(cs)
}

// DomainLearner is the canonical warm-boot learning protocol, shared by
// cmd/l2qstore's `domains` subcommand (precompute an artifact) and
// cmd/l2qserve's harvest backend (lazy fallback): aspect classifiers
// trained on the WHOLE served corpus, domain models learned over the
// first half of the corpus entities under one config. Keeping the
// protocol in one place — not mirrored by hand across the two commands —
// is what makes a precomputed artifact select byte-identically to a
// cold-booted server.
type DomainLearner struct {
	// Corpus, Cfg and Rec are the learning inputs (Cfg carries the
	// tokenizer and LearnWorkers).
	Corpus *corpus.Corpus
	Cfg    core.Config
	Rec    types.Recognizer
	// Cls holds the aspect classifiers; Aspects lists the aspects with
	// training signal (the servable set); DomainIDs is the canonical
	// first-half domain sample.
	Cls       *classify.Set
	Aspects   []corpus.Aspect
	DomainIDs []corpus.EntityID
}

// NewDomainLearner wires the protocol for a corpus. tok is the (possibly
// reconstructed) tokenizer; learnWorkers bounds both classifier training
// and each model's counting pass. preTrained, when non-nil (classifiers
// restored from an artifact), is used as-is — aspects it does not cover
// are trained here and merged, so an artifact built before a corpus
// gained an aspect degrades to lazy training instead of silently
// disabling the aspect.
func NewDomainLearner(c *corpus.Corpus, tok *textproc.Tokenizer,
	rec types.Recognizer, learnWorkers int, preTrained *classify.Set) *DomainLearner {

	aspects := c.Aspects()
	cls := preTrained
	if cls == nil {
		cls = classify.TrainSetWorkers(aspects, c.Pages, learnWorkers)
	} else {
		var missing []corpus.Aspect
		for _, a := range aspects {
			if !cls.Has(a) {
				missing = append(missing, a)
			}
		}
		if len(missing) > 0 {
			fresh := classify.TrainSetWorkers(missing, c.Pages, learnWorkers)
			for a, cl := range fresh.ByAspect {
				cls.ByAspect[a] = cl
			}
		}
	}
	var usable []corpus.Aspect
	for _, a := range aspects {
		if cls.Has(a) {
			usable = append(usable, a)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Tokenizer = tok
	cfg.LearnWorkers = learnWorkers
	ids := make([]corpus.EntityID, 0, c.NumEntities()/2)
	for _, e := range c.Entities[:c.NumEntities()/2] {
		ids = append(ids, e.ID)
	}
	return &DomainLearner{Corpus: c, Cfg: cfg, Rec: rec, Cls: cls, Aspects: usable, DomainIDs: ids}
}

// Learn learns one aspect's domain model under the protocol — the shape
// webapi.HarvestBackend.DomainModel consumes.
func (l *DomainLearner) Learn(a corpus.Aspect) (*core.DomainModel, error) {
	return core.LearnDomain(l.Cfg, a, l.Corpus, l.DomainIDs, l.Cls.YFunc(a), l.Rec)
}

// Artifact learns every servable aspect and packages the persistable
// DomainArtifact (models + classifier parameters).
func (l *DomainLearner) Artifact() (*DomainArtifact, error) {
	art := &DomainArtifact{
		CorpusDomain: l.Corpus.Domain,
		NumEntities:  l.Corpus.NumEntities(),
		NumPages:     l.Corpus.NumPages(),
	}
	for _, a := range l.Aspects {
		dm, err := l.Learn(a)
		if err != nil {
			return nil, fmt.Errorf("store: aspect %s: %w", a, err)
		}
		art.Models = append(art.Models, dm)
		art.Classifiers = append(art.Classifiers, l.Cls.ByAspect[a].Params())
	}
	if len(art.Models) == 0 {
		return nil, fmt.Errorf("store: no aspect has training signal")
	}
	return art, nil
}

// SaveDomains writes the domain artifact to w in the framed, checksummed
// store format. Models and classifiers are sorted by aspect before
// encoding, so equal artifacts produce identical bytes.
func SaveDomains(w io.Writer, a *DomainArtifact) error {
	if a == nil || len(a.Models) == 0 {
		return fmt.Errorf("store: no domain models to save")
	}
	models := append([]*core.DomainModel(nil), a.Models...)
	sort.Slice(models, func(i, j int) bool { return models[i].Aspect < models[j].Aspect })
	cls := append([]classify.Params(nil), a.Classifiers...)
	sort.Slice(cls, func(i, j int) bool { return cls[i].Aspect < cls[j].Aspect })

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(domMagic); err != nil {
		return fmt.Errorf("store: write domain magic: %w", err)
	}
	if err := writeSection(bw, secDomMeta, func(e *Enc) {
		e.Str(string(a.CorpusDomain))
		e.Uvarint(uint64(a.NumEntities))
		e.Uvarint(uint64(a.NumPages))
	}); err != nil {
		return err
	}
	if err := writeSection(bw, secDomains, func(e *Enc) { encodeDomainModels(e, models) }); err != nil {
		return err
	}
	if len(cls) > 0 {
		if err := writeSection(bw, secClassifiers, func(e *Enc) { encodeClassifiers(e, cls) }); err != nil {
			return err
		}
	}
	if err := writeSection(bw, secEnd, func(*Enc) {}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

// LoadDomains reads a domain-artifact file written by SaveDomains.
func LoadDomains(r io.Reader) (*DomainArtifact, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(domMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("store: read domain magic: %w", err)
	}
	if string(head) != domMagic {
		return nil, fmt.Errorf("store: bad magic %q (not a domain-artifact file or wrong version)", head)
	}
	a := &DomainArtifact{}
	seen := false
	for {
		name, payload, err := readSection(br)
		if err != nil {
			return nil, err
		}
		if name == secEnd {
			break
		}
		d := NewDec(payload)
		switch name {
		case secDomMeta:
			a.CorpusDomain = corpus.Domain(d.Str())
			a.NumEntities = int(d.Uvarint())
			a.NumPages = int(d.Uvarint())
		case secDomains:
			a.Models = decodeDomainModels(d)
			seen = true
		case secClassifiers:
			a.Classifiers = decodeClassifiers(d)
		default:
			continue // forward compatibility: skip unknown sections
		}
		if d.Err() != nil {
			return nil, fmt.Errorf("store: section %s: %w", name, d.Err())
		}
		if !d.Done() {
			return nil, fmt.Errorf("store: section %s has %d trailing bytes", name, d.Remaining())
		}
	}
	if !seen {
		return nil, fmt.Errorf("store: missing DOMS section")
	}
	return a, nil
}

// SaveDomainsFile writes the artifact to path atomically (temp file +
// rename), so a crash mid-write never truncates a previous artifact.
func SaveDomainsFile(path string, a *DomainArtifact) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := SaveDomains(f, a); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: rename: %w", err)
	}
	return nil
}

// LoadDomainsFile reads a domain-artifact file from path.
func LoadDomainsFile(path string) (*DomainArtifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return LoadDomains(f)
}

func encodeDomainModels(e *Enc, models []*core.DomainModel) {
	e.Uvarint(uint64(len(models)))
	for _, dm := range models {
		e.Str(string(dm.Aspect))
		encStrMap(e, dm.TemplateP)
		encStrMap(e, dm.TemplateR)
		encStrMap(e, dm.TemplateRStar)
		encStrMap(e, dm.TemplateRCount)
		encStrMap(e, dm.TemplateRStarCount)
		encQueryMap(e, dm.QueryRCount)
		encQueryMap(e, dm.QueryRStarCount)
		encQueryMap(e, dm.QueryP)
		encQueryMap(e, dm.QueryR)
		e.Uvarint(uint64(len(dm.Candidates)))
		for _, q := range dm.Candidates {
			e.Str(string(q))
		}
		e.F64(dm.RelFraction)
		e.Uvarint(uint64(dm.NumEntities))
		e.Uvarint(uint64(dm.NumPages))
	}
}

func decodeDomainModels(d *Dec) []*core.DomainModel {
	n := d.Count("domain models", 21) // aspect, 9 map counts, candidate count, float64, 2 varints
	out := make([]*core.DomainModel, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		dm := &core.DomainModel{Aspect: corpus.Aspect(d.Str())}
		dm.TemplateP = decStrMap(d)
		dm.TemplateR = decStrMap(d)
		dm.TemplateRStar = decStrMap(d)
		dm.TemplateRCount = decStrMap(d)
		dm.TemplateRStarCount = decStrMap(d)
		dm.QueryRCount = decQueryMap(d)
		dm.QueryRStarCount = decQueryMap(d)
		dm.QueryP = decQueryMap(d)
		dm.QueryR = decQueryMap(d)
		nc := d.Count("domain candidates", 1)
		dm.Candidates = make([]core.Query, 0, nc)
		for j := 0; j < nc && d.Err() == nil; j++ {
			dm.Candidates = append(dm.Candidates, core.Query(d.Str()))
		}
		dm.RelFraction = d.F64()
		dm.NumEntities = int(d.Uvarint())
		dm.NumPages = int(d.Uvarint())
		out = append(out, dm)
	}
	return out
}

func encodeClassifiers(e *Enc, cls []classify.Params) {
	e.Uvarint(uint64(len(cls)))
	for _, p := range cls {
		e.Str(string(p.Aspect))
		for cls := 0; cls < 2; cls++ {
			e.F64(p.LogPrior[cls])
			e.F64(p.LogUnk[cls])
		}
		for cls := 0; cls < 2; cls++ {
			toks := make([]string, 0, len(p.LogLik[cls]))
			for t := range p.LogLik[cls] {
				toks = append(toks, string(t))
			}
			sort.Strings(toks)
			e.Uvarint(uint64(len(toks)))
			for _, t := range toks {
				e.Str(t)
				e.F64(p.LogLik[cls][textproc.Token(t)])
			}
		}
	}
}

func decodeClassifiers(d *Dec) []classify.Params {
	n := d.Count("classifiers", 35) // aspect, four float64s, 2 vocab counts
	out := make([]classify.Params, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		p := classify.Params{Aspect: corpus.Aspect(d.Str())}
		for cls := 0; cls < 2; cls++ {
			p.LogPrior[cls] = d.F64()
			p.LogUnk[cls] = d.F64()
		}
		for cls := 0; cls < 2; cls++ {
			nt := d.Count("classifier vocab", 9) // token, float64
			lik := make(map[textproc.Token]float64, nt)
			for j := 0; j < nt && d.Err() == nil; j++ {
				t := textproc.Token(d.Str())
				lik[t] = d.F64()
			}
			p.LogLik[cls] = lik
		}
		out = append(out, p)
	}
	return out
}

// encStrMap encodes a string-keyed float map sorted by key.
func encStrMap(e *Enc, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.F64(m[k])
	}
}

func decStrMap(d *Dec) map[string]float64 {
	n := d.Count("map entries", 9)
	m := make(map[string]float64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		m[k] = d.F64()
	}
	return m
}

// encQueryMap encodes a Query-keyed float map sorted by key.
func encQueryMap(e *Enc, m map[core.Query]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.F64(m[core.Query(k)])
	}
}

func decQueryMap(d *Dec) map[core.Query]float64 {
	n := d.Count("map entries", 9)
	m := make(map[core.Query]float64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		m[core.Query(k)] = d.F64()
	}
	return m
}

// ReconstructTokenizer rebuilds a phrase-merging tokenizer from a
// corpus's own tokens: any multi-word token (internal space) was produced
// by a phrase lexicon, so collecting them recovers it. Store files carry
// no tokenizer, so consumers serving or learning over a restored corpus
// (cmd/l2qserve, cmd/l2qstore domains) need this to round-trip phrase
// tokens in queries.
func ReconstructTokenizer(c *corpus.Corpus) *textproc.Tokenizer {
	seen := make(map[string]struct{})
	var phrases []string
	for _, p := range c.Pages {
		for i := range p.Paras {
			for _, t := range p.Paras[i].Tokens {
				for j := 0; j < len(t); j++ {
					if t[j] == ' ' {
						if _, dup := seen[string(t)]; !dup {
							seen[string(t)] = struct{}{}
							phrases = append(phrases, string(t))
						}
						break
					}
				}
			}
		}
	}
	if len(phrases) == 0 {
		return &textproc.Tokenizer{}
	}
	return &textproc.Tokenizer{Lexicon: textproc.NewLexicon(phrases)}
}
