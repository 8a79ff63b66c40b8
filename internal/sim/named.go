package sim

import (
	"fmt"
	"strings"

	"ldsprefetch/internal/core"
)

// namedConfigs maps the CLI/API configuration names to Spec constructors.
// The hints argument is only consulted by the ECDP variants. Each entry is a
// spec literal over the component table's kinds; components are listed in
// the conventional order (prefetchers, then policies) so named runs keep
// reproducing historical results bit-for-bit.
var namedConfigs = []struct {
	Name       string
	NeedsHints bool
	Make       func(hints *core.HintTable) Spec
}{
	{"none", false, func(*core.HintTable) Spec { return NewSpec("none") }},
	{"stream", false, func(*core.HintTable) Spec { return NewSpec("stream", "stream") }},
	{"cdp", false, func(*core.HintTable) Spec {
		return NewSpec("stream+cdp", "stream", "cdp")
	}},
	{"cdp+throttle", false, func(*core.HintTable) Spec {
		return NewSpec("stream+cdp+thr", "stream", "cdp", "throttle")
	}},
	{"ecdp", true, func(h *core.HintTable) Spec {
		return NewSpec("stream+ecdp", "stream", "cdp").WithHints(h)
	}},
	{"ecdp+throttle", true, func(h *core.HintTable) Spec {
		return NewSpec("stream+ecdp+thr", "stream", "cdp", "throttle").WithHints(h)
	}},
	{"markov", false, func(*core.HintTable) Spec {
		return NewSpec("stream+markov", "stream", "markov")
	}},
	{"ghb", false, func(*core.HintTable) Spec { return NewSpec("ghb", "ghb") }},
	{"dbp", false, func(*core.HintTable) Spec {
		return NewSpec("stream+dbp", "stream", "dbp")
	}},
	{"ideal", false, func(*core.HintTable) Spec {
		sp := NewSpec("ideal-lds", "stream")
		sp.IdealLDS = true
		return sp
	}},
}

// Named returns the Spec for a named configuration ("stream",
// "ecdp+throttle", ...). hints is the profiled hint table the ECDP variants
// attach; it is ignored by the others (NamedNeedsHints reports which is
// which, so callers can skip profiling when it is not needed).
func Named(config string, hints *core.HintTable) (Spec, error) {
	for _, nc := range namedConfigs {
		if nc.Name == config {
			return nc.Make(hints), nil
		}
	}
	return Spec{}, fmt.Errorf("sim: unknown config %q (have %s)",
		config, strings.Join(NamedConfigs(), ", "))
}

// NamedConfigs lists the named configurations in presentation order.
func NamedConfigs() []string {
	out := make([]string, len(namedConfigs))
	for i, nc := range namedConfigs {
		out[i] = nc.Name
	}
	return out
}

// NamedNeedsHints reports whether config requires a profiled hint table
// (the ECDP variants). Unknown names return false; Named reports the error.
func NamedNeedsHints(config string) bool {
	for _, nc := range namedConfigs {
		if nc.Name == config {
			return nc.NeedsHints
		}
	}
	return false
}
