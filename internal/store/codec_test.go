package store

import (
	"math"
	"testing"
	"testing/quick"

	"l2q/internal/textproc"
)

func TestEncDecPrimitivesRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, s string, fl float64) bool {
		if math.IsNaN(fl) {
			fl = 0 // NaN != NaN would fail the comparison, not the codec
		}
		e := &Enc{}
		e.Uvarint(u)
		e.Varint(i)
		e.Str(s)
		e.F64(fl)
		d := NewDec(e.Data())
		gu := d.Uvarint()
		gi := d.Varint()
		gs := d.Str()
		gf := d.F64()
		return d.Err() == nil && d.Done() && gu == u && gi == i && gs == s && gf == fl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecStickyError(t *testing.T) {
	d := NewDec([]byte{0xff}) // truncated uvarint
	_ = d.Uvarint()
	if d.Err() == nil {
		t.Fatal("expected error")
	}
	// Every subsequent read must stay failed and return zero values.
	if v := d.Uvarint(); v != 0 {
		t.Errorf("uvarint after error = %d", v)
	}
	if s := d.Str(); s != "" {
		t.Errorf("str after error = %q", s)
	}
	if v := d.Varint(); v != 0 {
		t.Errorf("varint after error = %d", v)
	}
	if v := d.F64(); v != 0 {
		t.Errorf("f64 after error = %v", v)
	}
}

func TestDecStringBounds(t *testing.T) {
	e := &Enc{}
	e.Uvarint(1000) // claims 1000 bytes
	d := NewDec(e.Data())
	if s := d.Str(); s != "" || d.Err() == nil {
		t.Fatalf("oversized string accepted: %q", s)
	}
}

func TestDecCountBounds(t *testing.T) {
	e := &Enc{}
	e.Uvarint(1 << 40) // hostile count
	d := NewDec(e.Data())
	if n := d.Count("test", 1); n != 0 || d.Err() == nil {
		t.Fatalf("hostile count accepted: %d", n)
	}

	// Four elements of at least two bytes fit in eight bytes; of at
	// least three bytes they do not.
	e = &Enc{}
	e.Uvarint(4)
	e.Raw(make([]byte, 8))
	if n := NewDec(e.Data()).Count("test", 2); n != 4 {
		t.Fatalf("count 4 of 2-byte elements over 8 bytes: got %d", n)
	}
	d = NewDec(e.Data())
	if n := d.Count("test", 3); n != 0 || d.Err() == nil {
		t.Fatalf("count 4 of 3-byte elements over 8 bytes accepted: %d", n)
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	f := func(words []string) bool {
		seen := map[string]bool{}
		dict := buildDictionary(func(emit func(textproc.Token)) {
			for _, w := range words {
				emit(w)
				seen[w] = true
			}
		})
		if len(dict.terms) != len(seen) {
			return false
		}
		e := &Enc{}
		dict.encode(e)
		d := NewDec(e.Data())
		got := decodeDictionary(d)
		if d.Err() != nil || !d.Done() {
			return false
		}
		if len(got.terms) != len(dict.terms) {
			return false
		}
		for i, term := range dict.terms {
			if got.terms[i] != term || got.ids[term] != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDictionaryFrontCodingSharedPrefixes(t *testing.T) {
	dict := buildDictionary(func(emit func(textproc.Token)) {
		for _, w := range []string{"research", "researcher", "researchers", "rest", "zebra"} {
			emit(w)
		}
	})
	e := &Enc{}
	dict.encode(e)
	// Front coding must beat naive length-prefixed strings here.
	naive := 0
	for _, w := range dict.terms {
		naive += 1 + len(w)
	}
	if e.Len() >= naive {
		t.Errorf("front-coded size %d >= naive %d", e.Len(), naive)
	}
	d := NewDec(e.Data())
	got := decodeDictionary(d)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for i := range dict.terms {
		if got.terms[i] != dict.terms[i] {
			t.Errorf("term %d = %q, want %q", i, got.terms[i], dict.terms[i])
		}
	}
}

func TestDictionaryUnicodeBoundaries(t *testing.T) {
	words := []string{"caf", "café", "cafés", "日本", "日本語"}
	dict := buildDictionary(func(emit func(textproc.Token)) {
		for _, w := range words {
			emit(w)
		}
	})
	e := &Enc{}
	dict.encode(e)
	d := NewDec(e.Data())
	got := decodeDictionary(d)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for i := range dict.terms {
		if got.terms[i] != dict.terms[i] {
			t.Errorf("term %d = %q, want %q", i, got.terms[i], dict.terms[i])
		}
	}
}

func TestDictionaryLookupMisses(t *testing.T) {
	dict := buildDictionary(func(emit func(textproc.Token)) { emit("only") })
	if _, ok := dict.term(1); ok {
		t.Error("out-of-range term id resolved")
	}
	if _, ok := dict.term(0); !ok {
		t.Error("valid term id failed")
	}
}
