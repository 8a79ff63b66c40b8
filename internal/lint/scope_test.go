package lint_test

import (
	"os/exec"
	"strings"
	"testing"

	"ldsprefetch/internal/lint"
)

// TestDeterminismScopeCoversSimDeps: every module package that internal/sim
// links executes inside a simulation, so the determinism analyzers must
// inspect it. A package added to sim's dependency closure without a scope
// entry in lint.go would otherwise go unchecked.
func TestDeterminismScopeCoversSimDeps(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "ldsprefetch/internal/sim").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	var n int
	for _, pkg := range strings.Fields(string(out)) {
		if !strings.HasPrefix(pkg, "ldsprefetch/") {
			continue
		}
		n++
		for _, a := range []*lint.Analyzer{lint.MapOrder, lint.WallTime, lint.ObserverEffect, lint.NondetFlow} {
			if !a.Scope(pkg) {
				t.Errorf("%s is linked by internal/sim but outside %s's scope; add it to simCorePackages in lint.go", pkg, a.Name)
			}
		}
	}
	if n == 0 {
		t.Fatalf("go list -deps found no module packages:\n%s", out)
	}
}
