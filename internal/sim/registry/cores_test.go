package registry_test

import (
	"encoding/json"
	"strings"
	"testing"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/sim/registry"
)

// Core kinds are not registry components: sim decodes Spec.Core itself. Its
// ooo options still go through DecodeInto, the registry's one strict decode
// path, with cpu.OoOOptions.Validate as the hook. These tests hold that path
// to the same contract as component options.

// decodeOoO decodes raw the way sim decodes an ooo core's options.
func decodeOoO(raw json.RawMessage) (*cpu.OoOOptions, error) {
	opts := new(cpu.OoOOptions)
	err := registry.DecodeInto(sim.CoreOoO, raw, opts, func(any) error { return opts.Validate() })
	return opts, err
}

func TestUnknownCoreErrorCarriesCatalog(t *testing.T) {
	err := &sim.UnknownCoreError{Kind: "quantum"}
	msg := err.Error()
	for _, want := range []string{`"quantum"`, "known core models", sim.CoreInterval, sim.CoreOoO} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
}

func TestDecodeCoreOptions(t *testing.T) {
	// Empty and null raw options mean the defaults.
	for _, raw := range []json.RawMessage{nil, json.RawMessage("null"), json.RawMessage("{}")} {
		o, err := decodeOoO(raw)
		if err != nil {
			t.Fatalf("defaults for raw %q: %v", raw, err)
		}
		if *o != (cpu.OoOOptions{}) {
			t.Fatalf("raw %q decoded to non-defaults %+v", raw, o)
		}
	}
	o, err := decodeOoO(json.RawMessage(`{"predictor":"gshare","history_bits":14}`))
	if err != nil {
		t.Fatal(err)
	}
	if o.Predictor != "gshare" || o.HistoryBits != 14 {
		t.Fatalf("decoded %+v", o)
	}

	// Misspelled fields and trailing data are errors, same contract as
	// prefetcher options.
	if _, err := decodeOoO(json.RawMessage(`{"predicter":"tage"}`)); err == nil {
		t.Fatal("unknown option field accepted")
	}
	if _, err := decodeOoO(json.RawMessage(`{} {}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	// The Validate hook runs during decode.
	if _, err := decodeOoO(json.RawMessage(`{"predictor":"psychic"}`)); err == nil ||
		!strings.Contains(err.Error(), "psychic") {
		t.Fatalf("invalid predictor: err = %v, want mention of the bad value", err)
	}
	// The interval core takes no options at all.
	if err := registry.DecodeInto(sim.CoreInterval, json.RawMessage(`{"x":1}`), &struct{}{}, nil); err == nil {
		t.Fatal("interval core accepted an option")
	}
}

func TestCanonicalCoreOptionsNormalizes(t *testing.T) {
	encode := func(raw json.RawMessage) string {
		t.Helper()
		o, err := decodeOoO(raw)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := encode(json.RawMessage(`{ "predictor" : "tage" }`)), encode(json.RawMessage(`{"predictor":"tage"}`)); a != b {
		t.Fatalf("formatting split the canonical encoding: %s vs %s", a, b)
	}
	// Defaults canonicalize to the empty object (omitempty on every field),
	// so "unset" and "explicitly default" produce identical cache keys.
	if c := encode(nil); c != "{}" {
		t.Fatalf("default ooo options canonicalize to %s, want {}", c)
	}
}
