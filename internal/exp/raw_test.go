package exp

import (
	"strings"
	"testing"
)

// TestRawSweepDegradesOnProfileFailure: a benchmark whose hint profile
// fails still gets its cells (on an empty profile), each failing one is
// marked FAILED, and both the profiling error and the cell errors land in
// the footer and in JobErrs.
func TestRawSweepDegradesOnProfileFailure(t *testing.T) {
	c := testCtx()
	r := RawSweep(c, []string{"nosuch"}, []string{"ecdp", "none"}, nil)
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows, want one per config:\n%s", len(r.Rows), r)
	}
	for _, row := range r.Rows {
		if row[len(row)-1] != "FAILED" {
			t.Fatalf("cell on an unknown benchmark not marked FAILED:\n%s", r)
		}
	}
	errs := c.JobErrs()
	if len(errs) != 3 || len(r.Notes) != 3 {
		t.Fatalf("want the profile and both cells recorded, got errs=%v notes=%v", errs, r.Notes)
	}
	text := r.String()
	for _, want := range []string{"FAILED JOB: profiling nosuch", "FAILED JOB: job nosuch/ecdp", "FAILED JOB: job nosuch/none"} {
		if !strings.Contains(text, want) {
			t.Fatalf("footer missing %q:\n%s", want, text)
		}
	}
}
