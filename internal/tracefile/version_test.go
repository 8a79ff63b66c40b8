package tracefile_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"ldsprefetch/internal/tracefile"
	"ldsprefetch/internal/workload"
)

// patchVersion returns the capture bytes of bench with the header's format
// version field overwritten.
func patchVersion(t *testing.T, version uint32) []byte {
	t.Helper()
	path, _ := captureFile(t, t.TempDir(), "mst", workload.Test())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:12], version)
	return raw
}

// TestVersionGate pins the format's version negotiation: the reader speaks
// the current version only, so a version-1 capture, a future version and a
// nonsense version are all refused at open.
func TestVersionGate(t *testing.T) {
	for _, v := range []uint32{0, 1, tracefile.FormatVersion + 1} {
		if _, err := tracefile.NewReader(bytes.NewReader(patchVersion(t, v))); err == nil ||
			!strings.Contains(err.Error(), "not supported") {
			t.Fatalf("version %d: err = %v, want version-negotiation refusal", v, err)
		}
	}
}
