package sim

import (
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"testing"
)

// TestCatalogComplete pins the component set: the five paper prefetchers and
// the four control policies. Removing a kind is a breaking change to every
// stored spec.
func TestCatalogComplete(t *testing.T) {
	var pfs, pols []string
	for _, c := range components {
		if c.prefetcher != nil {
			pfs = append(pfs, c.kind)
		} else {
			pols = append(pols, c.kind)
		}
	}
	if got, want := strings.Join(pfs, ","), "cdp,dbp,ghb,markov,stream"; got != want {
		t.Fatalf("prefetchers = %s, want %s", got, want)
	}
	if got, want := strings.Join(pols, ","), "fdp,hwfilter,pab,throttle"; got != want {
		t.Fatalf("policies = %s, want %s", got, want)
	}
}

// TestComponentTableInvariants holds the table to the shape the rest of sim
// relies on: kinds sorted and unique (catalogs and the unknown-component
// error list them in table order), versions from 1 (cache keys tell them
// apart), exactly one of prefetcher/install, and prefetcher metadata only
// on prefetchers.
func TestComponentTableInvariants(t *testing.T) {
	ks := kinds()
	if !sort.StringsAreSorted(ks) {
		t.Fatalf("component table is not sorted by kind: %v", ks)
	}
	for i, c := range components {
		if c.kind == "" || (i > 0 && c.kind == ks[i-1]) {
			t.Errorf("entry %d: kind %q is empty or repeated", i, c.kind)
		}
		if c.version < 1 {
			t.Errorf("%s: version %d; versions start at 1", c.kind, c.version)
		}
		if c.newOptions == nil {
			t.Errorf("%s: no options constructor", c.kind)
		}
		if (c.prefetcher == nil) == (c.install == nil) {
			t.Errorf("%s: want exactly one of prefetcher and install", c.kind)
		}
		if c.install != nil && (c.throttleable || c.switchable || c.consumesHints) {
			t.Errorf("%s: policy carries prefetcher metadata", c.kind)
		}
		if c.prefetcher != nil && (c.claimsThrottle || c.minSwitchable != 0) {
			t.Errorf("%s: prefetcher carries policy metadata", c.kind)
		}
		if got := lookup(c.kind); got != &components[i] {
			t.Errorf("lookup(%q) = %p, want entry %d", c.kind, got, i)
		}
	}
	if lookup("bogus") != nil {
		t.Fatal("lookup found an unknown kind")
	}
}

// decodeKind decodes raw options for kind the way Validate, Canonical and
// assemble do.
func decodeKind(kind, raw string) (any, error) {
	_, opts, err := Spec{Name: "t"}.decode(Component{Kind: kind, Options: json.RawMessage(raw)})
	return opts, err
}

func TestDecodeOptionsDefaults(t *testing.T) {
	for _, raw := range []string{"", "null", " null "} {
		opts, err := decodeKind("stream", raw)
		if err != nil {
			t.Fatalf("decode(stream, %q): %v", raw, err)
		}
		if o := opts.(*StreamOptions); o.Streams != 0 {
			t.Fatalf("defaults from %q: %+v", raw, o)
		}
	}
}

func TestDecodeOptionsRejectsUnknownFields(t *testing.T) {
	_, err := decodeKind("stream", `{"streems": 16}`)
	if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), "streems") {
		t.Fatalf("misspelled option not rejected: %v", err)
	}
	if _, err := decodeKind("stream", `{"streams": 16} {}`); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("trailing data not rejected: %v", err)
	}
	_, err = decodeKind("bogus", "")
	if !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("unknown kind error = %v, want ErrUnknownComponent", err)
	}
	if want := (&UnknownComponentError{Kind: "bogus"}).Error(); !strings.Contains(err.Error(), want) {
		t.Fatalf("unknown-kind error %q does not carry %q", err, want)
	}
}

func TestDecodeOptionsRunsFactoryValidate(t *testing.T) {
	cases := []struct {
		kind, raw, wantMsg string
	}{
		{"hwfilter", `{"bits": -1}`, "bits must be >= 0"},
		{"cdp", `{"compare_bits": 40}`, "compare_bits must be in [0, 32]"},
		{"stream", `{"streams": -2}`, "streams"},
	}
	for _, c := range cases {
		_, err := decodeKind(c.kind, c.raw)
		if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("decode(%s, %s) = %v, want message containing %q",
				c.kind, c.raw, err, c.wantMsg)
		}
	}
}

// TestCanonicalOptionsNormalizes asserts the cache-key-facing property:
// formatting, field order, and omitted-vs-explicit defaults cannot split
// keys, while a semantic difference must.
func TestCanonicalOptionsNormalizes(t *testing.T) {
	canon := func(kind, raw string) string {
		t.Helper()
		b, err := Spec{Name: "n", Components: []Component{{Kind: kind, Options: json.RawMessage(raw)}}}.Canonical()
		if err != nil {
			t.Fatalf("canonicalize %s %q: %v", kind, raw, err)
		}
		return string(b)
	}
	for _, c := range []struct{ kind, a, b string }{
		{"stream", `{"streams": 32}`, `{ "streams":32 }`},
		{"stream", `{}`, `null`},
		{"cdp", `{"compare_bits":0}`, ``},
	} {
		if a, b := canon(c.kind, c.a), canon(c.kind, c.b); a != b {
			t.Errorf("%s: %q and %q canonicalize differently: %s vs %s", c.kind, c.a, c.b, a, b)
		}
	}
	if canon("stream", `{"streams": 16}`) == canon("stream", `{"streams": 32}`) {
		t.Fatal("semantically different options canonicalize identically")
	}
}
