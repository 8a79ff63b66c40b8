package exp

import "fmt"

// RegistryEntry is one registered experiment generator. Multi-report
// entries (ablate) are expanded by Run.
type RegistryEntry struct {
	ID   string
	Desc string
	Run  func(*Context) []Report
}

// Registry maps experiment ids to their generators, in -list order.
var Registry = []RegistryEntry{
	{"fig1", "stream prefetcher gains + ideal LDS potential", one(Fig1)},
	{"fig2", "original CDP effect (Fig. 2 + Table 1)", one(Fig2Table1)},
	{"fig4", "beneficial vs harmful pointer groups", one(Fig4)},
	{"fig7", "headline: ECDP + coordinated throttling (Fig. 7 + Table 6)", one(Fig7Table6)},
	{"fig8", "prefetcher accuracy across configs", one(Fig8)},
	{"fig9", "prefetcher coverage across configs", one(Fig9)},
	{"fig10", "PG usefulness distribution, CDP vs ECDP", one(Fig10)},
	{"table7", "hardware cost", one(Table7)},
	{"fig11", "vs DBP / Markov / GHB", one(Fig11)},
	{"fig12", "vs hardware prefetch filtering", one(Fig12)},
	{"fig13", "coordinated throttling vs FDP", one(Fig13)},
	{"fig14", "dual-core system", one(Fig14)},
	{"fig15", "four-core system", one(Fig15)},
	{"sec23", "CDP with ideal pollution elimination", one(Sec23)},
	{"sec3impl", "profiling via simulation vs informing loads", one(Sec3Impl)},
	{"sec616", "profiling input sensitivity", one(Sec616)},
	{"sec67", "non-pointer-intensive benchmarks", one(Sec67)},
	{"sec72", "coarse-grained per-load control", one(Sec72)},
	{"sec74", "PAB best-prefetcher selection", one(Sec74)},
	{"ablate", "design-choice sweeps (depth/thresholds/interval/hint cut)", Ablations},
	{"serverfam", "server-class workload families (beyond the paper)", one(ServerFamilies)},
	{"wrongpath", "prefetcher accuracy/bandwidth under wrong-path pollution (beyond the paper)", one(WrongPath)},
}

func one(f func(*Context) Report) func(*Context) []Report {
	return func(c *Context) []Report { return []Report{f(c)} }
}

// Plan resolves an experiment id to the registry entries Run would execute:
// every entry exactly once, in registry order, for "all"; a single entry
// otherwise. Unknown ids are an error, never a panic.
func Plan(id string) ([]RegistryEntry, error) {
	if id == "all" {
		out := make([]RegistryEntry, len(Registry))
		copy(out, Registry)
		return out, nil
	}
	for _, e := range Registry {
		if e.ID == id {
			return []RegistryEntry{e}, nil
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (try \"all\" or one of the ids in DESIGN.md)", id)
}

// Run executes the experiment with the given id ("all" runs everything).
// Job failures inside an entry (contained panics, unknown benchmarks,
// trace-write errors) do not abort the sweep: they are appended to the
// entry's first report as footer notes and remain queryable via
// Context.JobErrs for the CLI exit code.
func Run(c *Context, id string) ([]Report, error) {
	entries, err := Plan(id)
	if err != nil {
		return nil, err
	}
	var out []Report
	for _, e := range entries {
		before := len(c.JobErrs())
		reps := e.Run(c)
		if errs := c.JobErrs()[before:]; len(errs) > 0 && len(reps) > 0 {
			for _, jerr := range errs {
				reps[0].Notes = append(reps[0].Notes, "FAILED JOB: "+jerr.Error())
			}
		}
		out = append(out, reps...)
	}
	return out, nil
}
