package exp

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/sim/registry"
	"ldsprefetch/internal/workload"
)

// LoadSpec parses a -spec argument: inline JSON when it looks like a JSON
// document, a file path otherwise. Decoding is strict (sim.ParseSpec); the
// caller validates.
func LoadSpec(arg string) (sim.Spec, error) {
	data := []byte(arg)
	if !strings.HasPrefix(strings.TrimSpace(arg), "{") {
		b, err := os.ReadFile(arg)
		if err != nil {
			return sim.Spec{}, fmt.Errorf("reading -spec file: %w", err)
		}
		data = b
	}
	sp, err := sim.ParseSpec(data)
	if err != nil {
		return sim.Spec{}, fmt.Errorf("parsing -spec: %w", err)
	}
	return sp, nil
}

// PrintWorkloads lists the registered workload catalog: the paper's
// benchmarks plus any server-class families and loaded trace captures.
func PrintWorkloads(w io.Writer) {
	for _, n := range workload.Names() {
		g, _ := workload.Get(n)
		kind := "streaming"
		switch {
		case g.PointerIntensive:
			kind = "pointer-intensive"
		case g.Server:
			kind = "server"
		}
		fmt.Fprintf(w, "%-12s %-18s %s\n", n, kind, g.Description)
	}
}

// PrintCatalog lists the named configurations, the registered prefetcher,
// policy and core components, and the workloads, so -spec authors can
// discover kinds without reading source (the CLIs' -list-configs).
func PrintCatalog(w io.Writer) {
	fmt.Fprintln(w, "named configurations (ldssim -config; building blocks of the figures):")
	for _, n := range sim.NamedConfigs() {
		suffix := ""
		if sim.NamedNeedsHints(n) {
			suffix = " (profiles hints)"
		}
		fmt.Fprintf(w, "  %s%s\n", n, suffix)
	}
	fmt.Fprintln(w, "\nprefetcher components (-spec kinds):")
	for _, kind := range registry.Prefetchers() {
		in, _ := registry.Lookup(kind)
		fmt.Fprintf(w, "  %-10s v%-2d throttleable=%-5v switchable=%-5v consumes_hints=%v\n",
			in.Kind, in.Version, in.Throttleable, in.Switchable, in.ConsumesHints)
	}
	fmt.Fprintln(w, "\npolicy components (-spec kinds):")
	for _, kind := range registry.Policies() {
		in, _ := registry.Lookup(kind)
		fmt.Fprintf(w, "  %-10s v%-2d claims_throttle=%-5v min_switchable=%d\n",
			in.Kind, in.Version, in.ClaimsThrottle, in.MinSwitchable)
	}
	fmt.Fprintln(w, "\ncore models (ldssim -core, or \"core\" in -spec):")
	fmt.Fprintf(w, "  %-14s options: none (default)\n", sim.CoreInterval)
	fmt.Fprintf(w, "  %-10s v%-2d options: %s\n", sim.CoreOoO, sim.CoreOoOVersion,
		strings.Join(optionFields(reflect.TypeOf(cpu.OoOOptions{})), ", "))
	fmt.Fprintln(w, "\nworkloads (ldssim -bench):")
	PrintWorkloads(w)
}

// optionFields lists the JSON option names an options struct accepts, so
// the catalog documents the ooo core's typed knobs.
func optionFields(t reflect.Type) []string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		tag, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if tag == "" {
			tag = t.Field(i).Name
		}
		if tag != "-" {
			names = append(names, tag)
		}
	}
	return names
}
