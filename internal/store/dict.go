package store

import (
	"sort"

	"l2q/internal/textproc"
)

// dictionary assigns dense IDs to a sorted term set and serializes them
// front-coded: each term stores the length of the prefix it shares with its
// predecessor plus the remaining suffix. Sorted web vocabularies share long
// prefixes, so this typically shrinks the term section by 30–50%.
type dictionary struct {
	terms []string
	ids   map[string]uint64
}

// buildDictionary collects every distinct token used by the corpus pages.
func buildDictionary(tokenStreams func(emit func(textproc.Token))) *dictionary {
	set := make(map[string]struct{}, 1024)
	tokenStreams(func(t textproc.Token) { set[t] = struct{}{} })
	terms := make([]string, 0, len(set))
	for t := range set {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	d := &dictionary{terms: terms, ids: make(map[string]uint64, len(terms))}
	for i, t := range terms {
		d.ids[t] = uint64(i)
	}
	return d
}

// id returns the dense ID of a term that is guaranteed to be present.
func (d *dictionary) id(t string) uint64 { return d.ids[t] }

// term returns the term for an ID; ok is false for out-of-range IDs.
func (d *dictionary) term(id uint64) (string, bool) {
	if id >= uint64(len(d.terms)) {
		return "", false
	}
	return d.terms[id], true
}

func (d *dictionary) encode(e *Enc) {
	e.Uvarint(uint64(len(d.terms)))
	prev := ""
	for _, t := range d.terms {
		shared := sharedPrefixLen(prev, t)
		e.Uvarint(uint64(shared))
		e.Str(t[shared:])
		prev = t
	}
}

func decodeDictionary(d *Dec) *dictionary {
	n := d.Count("dictionary", 2)
	dict := &dictionary{
		terms: make([]string, 0, n),
		ids:   make(map[string]uint64, n),
	}
	prev := ""
	for i := 0; i < n; i++ {
		shared := int(d.Uvarint())
		suffix := d.Str()
		if d.Err() != nil {
			return dict
		}
		if shared > len(prev) {
			d.Fail("dictionary prefix")
			return dict
		}
		t := prev[:shared] + suffix
		dict.terms = append(dict.terms, t)
		dict.ids[t] = uint64(i)
		prev = t
	}
	return dict
}

// sharedPrefixLen returns the length of the longest common byte prefix,
// capped so a multi-byte rune is never split (front coding must produce
// valid string boundaries when reassembled — byte-level is fine because we
// reassemble with the same byte arithmetic, but capping at a rune boundary
// keeps the suffixes valid UTF-8 for debuggability).
func sharedPrefixLen(a, b string) int {
	n := 0
	max := len(a)
	if len(b) < max {
		max = len(b)
	}
	for n < max && a[n] == b[n] {
		n++
	}
	// Back off to a rune boundary in b so suffixes stay valid UTF-8.
	for n > 0 && n < len(b) && !utf8Start(b[n]) {
		n--
	}
	return n
}

func utf8Start(c byte) bool { return c < 0x80 || c >= 0xc0 }
