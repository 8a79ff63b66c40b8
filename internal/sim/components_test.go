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
	for _, raw := range []string{"", "null", " null ", "{}", `{"thresholds": null}`} {
		opts, err := decodeKind("throttle", raw)
		if err != nil {
			t.Fatalf("decode(throttle, %q): %v", raw, err)
		}
		if o := opts.(*ThrottleOptions); o.Thresholds != nil {
			t.Fatalf("defaults from %q: %+v", raw, o)
		}
	}
	// Kinds without options decode empty and null options to nothing.
	for _, raw := range []string{"", "null", "{}"} {
		if _, err := decodeKind("stream", raw); err != nil {
			t.Fatalf("decode(stream, %q): %v", raw, err)
		}
	}
}

func TestDecodeOptionsRejectsUnknownFields(t *testing.T) {
	_, err := decodeKind("throttle", `{"threshold": {"ALow": 0.5}}`)
	if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), "threshold") {
		t.Fatalf("misspelled option not rejected: %v", err)
	}
	if _, err := decodeKind("throttle", `{} {}`); !errors.Is(err, ErrBadOptions) {
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

// TestDecodeOptionsRunsFactoryValidate: the values the per-kind validate
// hooks once rejected are still rejected at decode, now as unknown fields,
// with an error naming the field.
func TestDecodeOptionsRunsFactoryValidate(t *testing.T) {
	cases := []struct {
		kind, raw, wantMsg string
	}{
		{"hwfilter", `{"bits": -1}`, `"bits"`},
		{"cdp", `{"compare_bits": 40}`, `"compare_bits"`},
		{"stream", `{"streams": -2}`, `"streams"`},
	}
	for _, c := range cases {
		_, err := decodeKind(c.kind, c.raw)
		if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("decode(%s, %s) = %v, want message containing %q",
				c.kind, c.raw, err, c.wantMsg)
		}
	}
}

// TestValidateRejectsRemovedOptions: the options the component table and
// the ooo core once took are unknown fields now, so a spec naming one fails
// validation with ErrBadOptions and a message naming the field, instead of
// running with a value nothing checks (a wrong_path_depth of 10^9 used to
// validate and loop for minutes per misprediction).
func TestValidateRejectsRemovedOptions(t *testing.T) {
	cases := []struct{ kind, field, raw string }{
		{"stream", "streams", `{"streams": 16}`},
		{"cdp", "compare_bits", `{"compare_bits": 12}`},
		{"cdp", "attribute_recursion", `{"attribute_recursion": true}`},
		{"markov", "table_entries", `{"table_entries": 1024}`},
		{"ghb", "entries", `{"entries": 512}`},
		{"dbp", "ppw_size", `{"ppw_size": 64}`},
		{"dbp", "table_cap", `{"table_cap": 128}`},
		{"fdp", "thresholds", `{"thresholds": {"ALow": 0.5}}`},
		{"hwfilter", "bits", `{"bits": -8}`},
		{CoreOoO, "history_bits", `{"history_bits": 14}`},
		{CoreOoO, "fetch_width", `{"fetch_width": 2}`},
		{CoreOoO, "mispredict_penalty", `{"mispredict_penalty": 30}`},
		{CoreOoO, "wrong_path_depth", `{"wrong_path_depth": 1000000000}`},
	}
	for _, tc := range cases {
		comp := Component{Kind: tc.kind, Options: json.RawMessage(tc.raw)}
		sp := Spec{Name: "removed", Components: []Component{comp}}
		if tc.kind == CoreOoO {
			sp = NewSpec("removed", "stream")
			sp.Core = &comp
		}
		err := sp.Validate()
		if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), `"`+tc.field+`"`) {
			t.Errorf("%s %s: Validate err = %v, want ErrBadOptions naming %q", tc.kind, tc.raw, err, tc.field)
		}
		if _, err := sp.Canonical(); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s %s: Canonical err = %v, want ErrBadOptions", tc.kind, tc.raw, err)
		}
	}
}

// TestCanonicalOptionsNormalizes asserts the cache-key-facing property:
// formatting, field order, and absent-vs-null options cannot split keys,
// while a semantic difference must.
func TestCanonicalOptionsNormalizes(t *testing.T) {
	canon := func(kind, raw string) string {
		t.Helper()
		b, err := Spec{Name: "n", Components: []Component{{Kind: kind, Options: json.RawMessage(raw)}}}.Canonical()
		if err != nil {
			t.Fatalf("canonicalize %s %q: %v", kind, raw, err)
		}
		return string(b)
	}
	const tight = `{"thresholds": {"TCoverage": 0.35, "ALow": 0.55, "AHigh": 0.8}}`
	for _, c := range []struct{ kind, a, b string }{
		{"throttle", tight, `{ "thresholds":{"AHigh":0.8,"ALow":0.55,"TCoverage":0.35} }`},
		{"throttle", `{}`, `null`},
		{"throttle", `{"thresholds":null}`, ``},
		{"stream", `{}`, ``},
	} {
		if a, b := canon(c.kind, c.a), canon(c.kind, c.b); a != b {
			t.Errorf("%s: %q and %q canonicalize differently: %s vs %s", c.kind, c.a, c.b, a, b)
		}
	}
	if canon("throttle", tight) == canon("throttle", ``) {
		t.Fatal("semantically different options canonicalize identically")
	}
}
