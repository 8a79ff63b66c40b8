package exp

import (
	"strings"
	"testing"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/sim"
)

// TestGoldenCatalog pins the user-visible component text byte for byte: the
// -list-configs catalog, then the validation errors that name components
// (unknown kind, duplicate kind, two throttle claimants, pab without two
// switchable prefetchers, hints without a consumer, unknown core). CLI users
// and the job server's 400 responses see these messages verbatim.
func TestGoldenCatalog(t *testing.T) {
	var sb strings.Builder
	PrintCatalog(&sb)
	hints := core.NewHintTable()
	hints.Set(0x10, core.HintVec{Pos: 1})
	sb.WriteString("\nvalidation errors:\n")
	for _, sp := range []sim.Spec{
		sim.NewSpec("unknown", "stream", "warp-drive"),
		sim.NewSpec("twice", "stream", "stream"),
		sim.NewSpec("claimants", "stream", "cdp", "throttle", "fdp"),
		sim.NewSpec("pab", "stream", "pab"),
		sim.NewSpec("hints", "stream").WithHints(hints),
		sim.NewSpec("core", "stream").WithCore("quantum", nil),
	} {
		err := sp.Validate()
		if err == nil {
			t.Fatalf("spec %q validated", sp.Name)
		}
		sb.WriteString(err.Error() + "\n")
	}
	checkGolden(t, "golden_catalog.txt", sb.String())
}
