package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/workload"
)

// --- validation regressions ---

// TestValidateRejectsThrottlePlusFDP is the regression test for the
// coordinated-throttle/FDP conflict: both claim the prefetchers'
// aggressiveness levels, so enabling both must be a typed config error (the
// old assembler silently let FDP fight the throttler).
func TestValidateRejectsThrottlePlusFDP(t *testing.T) {
	sp := NewSpec("both", "stream", "cdp", "throttle", "fdp")
	err := sp.Validate()
	if !errors.Is(err, ErrComponentConflict) {
		t.Fatalf("err = %v, want ErrComponentConflict", err)
	}
	if !strings.Contains(err.Error(), "throttle") || !strings.Contains(err.Error(), "fdp") {
		t.Fatalf("conflict error does not name both claimants: %v", err)
	}
	// The scheduler-facing constructors must refuse to run it.
	if _, err := RunSingleSpec("mst", workload.Params{Scale: 0.05, Seed: 1}, sp); err == nil {
		t.Fatal("RunSingleSpec simulated a throttle+fdp spec")
	}
}

func TestValidateRejectsUnknownComponent(t *testing.T) {
	err := NewSpec("x", "stream", "warp-drive").Validate()
	if !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("err = %v, want ErrUnknownComponent", err)
	}
	var se *SpecError
	if !errors.As(err, &se) || se.Component != "warp-drive" {
		t.Fatalf("error does not identify the component: %#v", err)
	}
	// The message must carry the catalog so the fix is obvious from the error.
	for _, kind := range kinds() {
		if !strings.Contains(err.Error(), kind) {
			t.Fatalf("catalog entry %q missing from error: %v", kind, err)
		}
	}
}

func TestValidateRejectsDuplicateComponent(t *testing.T) {
	if err := NewSpec("x", "stream", "stream").Validate(); !errors.Is(err, ErrComponentConflict) {
		t.Fatalf("err = %v, want ErrComponentConflict", err)
	}
}

func TestValidateRejectsHintsWithoutConsumer(t *testing.T) {
	h := core.NewHintTable()
	h.Set(0x10, core.HintVec{Pos: 1})

	err := NewSpec("x", "stream").WithHints(h).Validate()
	if !errors.Is(err, ErrBadComposition) {
		t.Fatalf("err = %v, want ErrBadComposition", err)
	}
	if !strings.Contains(err.Error(), "cdp") {
		t.Fatalf("error is not actionable (should suggest cdp): %v", err)
	}
	// With a consumer present the same table is fine.
	if err := NewSpec("ok", "stream", "cdp").WithHints(h).Validate(); err != nil {
		t.Fatalf("hints with cdp rejected: %v", err)
	}
}

func TestValidateRejectsNegativeHWFilterBits(t *testing.T) {
	err := NewSpec("x", "stream", "cdp").
		With(Component{Kind: "hwfilter", Options: json.RawMessage(`{"bits": -8}`)}).Validate()
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("err = %v, want ErrBadOptions", err)
	}
	if !strings.Contains(err.Error(), `"bits"`) {
		t.Fatalf("error not actionable: %v", err)
	}
}

func TestValidateRejectsPABWithoutTwoSwitchable(t *testing.T) {
	for _, sp := range []Spec{
		NewSpec("pab-alone", "pab"),
		NewSpec("pab-one", "stream", "pab"),
		NewSpec("pab-ghb", "ghb", "pab"), // ghb is throttleable but not switchable
	} {
		err := sp.Validate()
		if !errors.Is(err, ErrBadComposition) {
			t.Fatalf("%s: err = %v, want ErrBadComposition", sp.Name, err)
		}
		if !strings.Contains(err.Error(), "switchable") {
			t.Fatalf("%s: error not actionable: %v", sp.Name, err)
		}
	}
	if err := NewSpec("pab-ok", "stream", "cdp", "pab").Validate(); err != nil {
		t.Fatalf("pab with two switchable prefetchers rejected: %v", err)
	}
}

func TestValidateRejectsBadOptionJSON(t *testing.T) {
	sp := Spec{Name: "x", Components: []Component{
		{Kind: "stream", Options: json.RawMessage(`{"streems": 4}`)},
	}}
	if err := sp.Validate(); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("err = %v, want ErrBadOptions", err)
	}
}

// TestValidateBoundsHardware: a hardware override that would size a run's
// allocations past the documented bounds is a typed ErrBadOptions error from
// Validate, and RunSingleSpec returns it without building anything. Before
// the bounds, a cpu_cfg window of 2^44 validated and the run died out of
// memory, taking the process with it.
func TestValidateBoundsHardware(t *testing.T) {
	mcfg := func(f func(*memsys.Config)) *memsys.Config {
		c := memsys.DefaultConfig()
		f(&c)
		return &c
	}
	bad := []struct {
		name string
		sp   Spec
		want string
	}{
		{"window 2^44", Spec{CPUCfg: &cpu.Config{Window: 1 << 44, Width: 4}}, "Window"},
		{"window past max", Spec{CPUCfg: &cpu.Config{Window: cpu.MaxWindow + 1}}, "Window"},
		{"negative window", Spec{CPUCfg: &cpu.Config{Window: -1}}, "Window"},
		{"width 2^40", Spec{CPUCfg: &cpu.Config{Window: 256, Width: 1 << 40}}, "Width"},
		{"negative width", Spec{CPUCfg: &cpu.Config{Width: -4}}, "Width"},
		{"l2 2^40 bytes", Spec{MemCfg: mcfg(func(c *memsys.Config) { c.L2Size = 1 << 40 })}, "L2Size"},
		{"l1 past max", Spec{MemCfg: mcfg(func(c *memsys.Config) { c.L1Size = 64 * (memsys.MaxCacheLines + 1) })}, "L1Size"},
		{"block 2^30", Spec{MemCfg: mcfg(func(c *memsys.Config) { c.BlockSize = 1 << 30 })}, "BlockSize"},
		{"banks 2^40", Spec{DRAMCfg: &dram.Config{Banks: 1 << 40}}, "Banks"},
		{"mem_cfg ideal LDS", Spec{MemCfg: mcfg(func(c *memsys.Config) { c.IdealLDS = true })}, "ideal_lds"},
		{"mem_cfg no pollution", Spec{MemCfg: mcfg(func(c *memsys.Config) { c.NoPollution = true })}, "no_pollution"},
	}
	for _, tc := range bad {
		tc.sp.Name = tc.name
		tc.sp.Components = []Component{{Kind: "stream"}}
		err := tc.sp.Validate()
		if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate err = %v, want ErrBadOptions naming %s", tc.name, err, tc.want)
		}
		if _, err := RunSingleSpec("mst", workload.Params{Scale: 0.05, Seed: 5}, tc.sp); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: RunSingleSpec err = %v, want ErrBadOptions", tc.name, err)
		}
		if _, err := RunMultiSpec([]string{"mst", "health"}, workload.Params{Scale: 0.05, Seed: 5}, tc.sp); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: RunMultiSpec err = %v, want ErrBadOptions", tc.name, err)
		}
	}
	for _, sp := range []Spec{
		{CPUCfg: &cpu.Config{}},
		{CPUCfg: &cpu.Config{Window: cpu.MaxWindow, Width: cpu.MaxWidth}},
		{MemCfg: mcfg(func(c *memsys.Config) { c.L2Size = 64 * memsys.MaxCacheLines })},
		{MemCfg: mcfg(func(c *memsys.Config) { c.BlockSize = memsys.MaxBlockSize })},
		{MemCfg: mcfg(func(c *memsys.Config) { c.BlockSize = 4 })}, // a 1 MiB L2 of 2^18 lines
		{DRAMCfg: &dram.Config{Banks: dram.MaxBanks}},
	} {
		if err := sp.Validate(); err != nil {
			t.Errorf("in-bounds spec rejected: %v", err)
		}
	}
}

// --- canonical encoding ---

func TestCanonicalIgnoresOptionFormatting(t *testing.T) {
	a := Spec{Name: "n", Components: []Component{{Kind: "stream"},
		{Kind: "throttle", Options: json.RawMessage(`{ "thresholds": { "ALow": 0.3 } }`)}}}
	b := Spec{Name: "n", Components: []Component{{Kind: "stream"},
		{Kind: "throttle", Options: json.RawMessage(`{"thresholds":{"ALow":0.3}}`)}}}
	ca, err1 := a.Canonical()
	cb, err2 := b.Canonical()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if string(ca) != string(cb) {
		t.Fatalf("formatting split the canonical encoding:\n%s\n%s", ca, cb)
	}
}

func TestCanonicalFailsExactlyWhenValidateRejectsStructure(t *testing.T) {
	bad := NewSpec("x", "bogus")
	if _, err := bad.Canonical(); !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("Canonical on unknown kind: %v", err)
	}
	if _, err := NewSpec("ok", "stream").Canonical(); err != nil {
		t.Fatalf("Canonical on a valid spec: %v", err)
	}
}

// --- core component ---

// TestCanonicalOmitsDefaultCore pins the seam's compatibility contract: a
// spec with no Core and the same spec pinned explicitly to the default
// interval model share one canonical encoding — and therefore one jobs cache
// key (internal/jobs embeds Canonical in its key payload) — while a
// non-default core changes it.
func TestCanonicalOmitsDefaultCore(t *testing.T) {
	base := NewSpec("seam", "stream", "cdp", "throttle")
	cNone, err := base.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(cNone), `"core"`) {
		t.Fatalf("default core leaked into the canonical encoding: %s", cNone)
	}
	// Explicit interval cores, with absent, null or empty options, encode
	// exactly like no core at all.
	for _, raw := range []string{"", "null", "{}"} {
		sp := base
		sp.Core = &Component{Kind: CoreInterval, Options: json.RawMessage(raw)}
		c, err := sp.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(c) != string(cNone) {
			t.Fatalf("explicit interval core (options %q) changed the canonical encoding:\n%s\nvs\n%s", raw, cNone, c)
		}
	}

	cOoO, err := base.WithCore("ooo", nil).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(cOoO) == string(cNone) {
		t.Fatal("ooo core did not change the canonical encoding; cache keys would collide")
	}
	// Default ooo options canonicalize to the empty object (omitempty on
	// every field); no golden pins this, since wrongpath always names a
	// predictor.
	if want := `"core":{"kind":"ooo","version":1,"options":{}}}`; !strings.HasSuffix(string(cOoO), want) {
		t.Fatalf("ooo canonical encoding %s does not end in %s", cOoO, want)
	}
	// Absent, null and empty ooo options are the same defaults.
	for _, raw := range []string{"null", "{}", " { } "} {
		sp := base
		sp.Core = &Component{Kind: CoreOoO, Options: json.RawMessage(raw)}
		c, err := sp.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(c) != string(cOoO) {
			t.Fatalf("ooo options %q canonicalize differently from absent options:\n%s\nvs\n%s", raw, c, cOoO)
		}
	}
	// Option formatting must not split ooo cache keys.
	cA, err := base.WithCore("ooo", cpu.OoOOptions{Predictor: "tage"}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	sp := base
	c := Component{Kind: "ooo", Options: json.RawMessage(`{ "predictor" : "tage" }`)}
	sp.Core = &c
	cB, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(cA) != string(cB) {
		t.Fatalf("option formatting split the ooo canonical encoding:\n%s\nvs\n%s", cA, cB)
	}
}

func TestValidateRejectsUnknownCore(t *testing.T) {
	err := NewSpec("x", "stream").WithCore("quantum", nil).Validate()
	if !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("err = %v, want ErrUnknownComponent", err)
	}
	if want := `unknown core model "quantum" (known core models: interval, ooo)`; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q not actionable (missing %q)", err, want)
	}
	// Canonical must fail the same way (it feeds cache keys).
	if _, err := NewSpec("x", "stream").WithCore("quantum", nil).Canonical(); !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("Canonical: err = %v, want ErrUnknownComponent", err)
	}
}

func TestValidateRejectsBadCoreOptions(t *testing.T) {
	err := NewSpec("x", "stream").
		WithCore("ooo", cpu.OoOOptions{Predictor: "psychic"}).Validate()
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad predictor: err = %v, want ErrBadOptions", err)
	}
	if !strings.Contains(err.Error(), "psychic") {
		t.Fatalf("error does not name the bad value: %v", err)
	}
	// Decoding is strict for both kinds: misspelled fields, options on the
	// option-less interval core, and trailing data are all rejected.
	for _, core := range []Component{
		{Kind: "ooo", Options: json.RawMessage(`{"predicter":"tage"}`)},
		{Kind: "interval", Options: json.RawMessage(`{"x":1}`)},
		{Kind: "ooo", Options: json.RawMessage(`{} {}`)},
	} {
		sp := NewSpec("x", "stream")
		sp.Core = &core
		if err := sp.Validate(); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("core %s %s: Validate err = %v, want ErrBadOptions", core.Kind, core.Options, err)
		}
		if _, err := sp.Canonical(); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("core %s %s: Canonical err = %v, want ErrBadOptions", core.Kind, core.Options, err)
		}
	}
	for _, pred := range []string{"bimodal", "tage"} {
		sp := NewSpec("x", "stream").WithCore("ooo", cpu.OoOOptions{Predictor: pred})
		if err := sp.Validate(); err != nil {
			t.Fatalf("valid %s options rejected: %v", pred, err)
		}
	}
}

// --- JSON round-trip property ---

// randomSpec draws a random valid-shaped spec: a subset of the catalog in
// random order (duplicates excluded), random options, sometimes hints and
// spec-level fields. It deliberately may violate composition rules — the
// property under test is encoding fidelity, not validity.
func randomSpec(rng *rand.Rand, i int) Spec {
	catalog := kinds()
	sp := Spec{Name: fmt.Sprintf("prop-%d", i)}
	perm := rng.Perm(len(catalog))
	n := rng.Intn(len(catalog) + 1)
	for _, idx := range perm[:n] {
		comp := Component{Kind: catalog[idx]}
		if comp.Kind == "throttle" && rng.Intn(2) == 0 {
			th := core.Thresholds{TCoverage: rng.Float64(), ALow: rng.Float64(), AHigh: rng.Float64()}
			comp = NewComponent("throttle", ThrottleOptions{Thresholds: &th})
		}
		sp.Components = append(sp.Components, comp)
	}
	if rng.Intn(3) == 0 {
		h := core.NewHintTable()
		for j := 0; j < rng.Intn(4)+1; j++ {
			h.Set(uint32(rng.Intn(1<<16)), core.HintVec{Pos: rng.Uint32(), Neg: rng.Uint32()})
		}
		sp.Hints = h
	}
	sp.IdealLDS = rng.Intn(4) == 0
	sp.ProfilePGs = rng.Intn(4) == 0
	if rng.Intn(3) == 0 {
		sp.IntervalLen = 1 << uint(8+rng.Intn(8))
	}
	if rng.Intn(4) == 0 {
		lv := prefetch.AggLevel(rng.Intn(int(prefetch.Aggressive) + 1))
		sp.InitialLevel = &lv
	}
	switch rng.Intn(4) {
	case 0:
		preds := []string{"", "bimodal", "tage"}
		c := NewComponent("ooo", cpu.OoOOptions{Predictor: preds[rng.Intn(len(preds))]})
		sp.Core = &c
	case 1:
		c := Component{Kind: "interval"}
		sp.Core = &c
	}
	return sp
}

// TestSpecJSONRoundTrip is the serialization property test: for seeded
// random specs, marshal → unmarshal must preserve the canonical encoding
// (when the spec canonicalizes) and the validation verdict.
func TestSpecJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < 200; i++ {
		sp := randomSpec(rng, i)
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("spec %d: marshal: %v", i, err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("spec %d: unmarshal: %v\njson: %s", i, err, b)
		}
		origErr, backErr := sp.Validate(), back.Validate()
		if (origErr == nil) != (backErr == nil) {
			t.Fatalf("spec %d: validation verdict changed across JSON: %v vs %v\njson: %s",
				i, origErr, backErr, b)
		}
		if origErr != nil {
			continue
		}
		c1, err1 := sp.Canonical()
		c2, err2 := back.Canonical()
		if err1 != nil || err2 != nil {
			t.Fatalf("spec %d: canonical: %v / %v", i, err1, err2)
		}
		if string(c1) != string(c2) {
			t.Fatalf("spec %d: canonical encoding changed across JSON:\n%s\nvs\n%s", i, c1, c2)
		}
	}
}
