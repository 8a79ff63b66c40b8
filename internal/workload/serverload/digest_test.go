package serverload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/workload"
)

// The digests live beside the workload package they pin, but the test runs
// here: this is the one test binary in which every generator in the
// repository is registered (the in-package proxies and the server families).
var (
	updateDigests = flag.Bool("update", false, "rewrite the golden trace digests")
	digestsPath   = filepath.Join("..", "testdata", "golden_trace_digests.txt")
)

// traceDigest hashes everything a build produces: every op as a fixed-width
// little-endian record, then every allocated page of the pre-run memory
// image (page number, then its 64 KiB) in Pages() order.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	var rec [19]byte
	for i := range tr.Ops {
		op := &tr.Ops[i]
		binary.LittleEndian.PutUint32(rec[0:], op.Addr)
		binary.LittleEndian.PutUint32(rec[4:], op.Val)
		binary.LittleEndian.PutUint32(rec[8:], uint32(op.Dep))
		binary.LittleEndian.PutUint32(rec[12:], op.PC)
		rec[16] = op.N
		rec[17] = byte(op.Kind)
		rec[18] = 0
		if op.LDS {
			rec[18] |= 1
		}
		if op.Taken {
			rec[18] |= 2
		}
		h.Write(rec[:])
	}
	var pn [4]byte
	for _, p := range tr.Mem.Pages() {
		binary.LittleEndian.PutUint32(pn[:], p)
		h.Write(pn[:])
		h.Write(tr.Mem.PageBytes(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTraceDigests pins the build layer directly: one SHA-256 per
// registered generator at {Scale 0.05, Seed 5} over its ops and its memory
// image. Reports pin builds only through what the simulator makes of them;
// this catches any change to a built trace. Regenerate with
//
//	go test ./internal/workload/serverload -run TestGoldenTraceDigests -update
func TestGoldenTraceDigests(t *testing.T) {
	p := workload.Params{Scale: 0.05, Seed: 5}
	var b strings.Builder
	for _, name := range workload.Names() {
		g, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", name, traceDigest(g.Build(p)))
	}
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("built traces changed:\n--- got\n%s--- want\n%s", got, want)
	}
}
