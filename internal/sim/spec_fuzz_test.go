package sim

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecJSON feeds arbitrary bytes through the path every untrusted Spec
// takes (the sweep service's "specs" field, ldssim -spec): decode, then
// Validate. A spec that validates must canonicalize, and its canonical
// encoding — the bytes cache keys embed — must survive a JSON round-trip
// unchanged. Nothing on the path may panic.
//
// The seed corpus in testdata/fuzz/FuzzSpecJSON holds every named
// configuration plus the invalid bodies the server's validation test
// submits. Run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzSpecJSON -fuzztime 30s ./internal/sim
func FuzzSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			return
		}
		c1, err := sp.Canonical()
		if err != nil {
			t.Fatalf("valid spec does not canonicalize: %v\ninput: %s", err, data)
		}
		enc, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v\ninput: %s", err, data)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("spec encoding does not decode: %v\nencoding: %s", err, enc)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec no longer validates: %v\nencoding: %s", err, enc)
		}
		c2, err := back.Canonical()
		if err != nil {
			t.Fatalf("round-tripped spec does not canonicalize: %v\nencoding: %s", err, enc)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical encoding changed across a JSON round-trip:\n%s\nvs\n%s", c1, c2)
		}
	})
}
