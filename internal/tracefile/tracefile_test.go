package tracefile_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/tracefile"
	"ldsprefetch/internal/workload"
	"ldsprefetch/internal/workload/serverload"
)

// captureFile builds bench at p and writes a capture under dir, returning
// the file path and digest.
func captureFile(t *testing.T, dir, bench string, p workload.Params) (string, [32]byte) {
	t.Helper()
	g, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Build(p)
	path := filepath.Join(dir, bench+".ldstrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digest, err := tracefile.Capture(f, tr, tracefile.Meta{
		Name: tr.Name, Generator: bench, Scale: p.Scale, Seed: p.Seed, Tool: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return path, digest
}

// TestRoundTrip captures each server family plus two paper benchmarks and
// checks the decoded trace is op-for-op identical with an equivalent memory
// image.
func TestRoundTrip(t *testing.T) {
	benches := append(serverload.Families(), "mst", "health")
	for _, bench := range benches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			path, digest := captureFile(t, dir, bench, workload.Test())
			g, _ := workload.Get(bench)
			orig := g.Build(workload.Test())

			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got, hdr, err := tracefile.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Digest != digest {
				t.Fatalf("header digest %s != capture digest %s",
					tracefile.HexDigest(hdr.Digest), tracefile.HexDigest(digest))
			}
			if hdr.Meta.Generator != bench || hdr.Meta.Scale != workload.Test().Scale || hdr.Meta.Seed != workload.Test().Seed {
				t.Fatalf("meta %+v does not describe the capture", hdr.Meta)
			}
			if got.Name != orig.Name {
				t.Fatalf("name %q != %q", got.Name, orig.Name)
			}
			if len(got.Ops) != len(orig.Ops) {
				t.Fatalf("op count %d != %d", len(got.Ops), len(orig.Ops))
			}
			for i := range orig.Ops {
				if got.Ops[i] != orig.Ops[i] {
					t.Fatalf("op %d: %+v != %+v", i, got.Ops[i], orig.Ops[i])
				}
			}
			// Memory equivalence: every original page must read back
			// identically (the capture trims zero tails and drops all-zero
			// pages, which read as zero either way).
			for _, pn := range orig.Mem.Pages() {
				want := orig.Mem.PageBytes(pn)
				gotPage := got.Mem.PageBytes(pn)
				for off, b := range want {
					var g byte
					if gotPage != nil {
						g = gotPage[off]
					}
					if b != g {
						t.Fatalf("page %#x byte %d: %#x != %#x", pn, off, g, b)
					}
				}
			}
		})
	}
}

// TestDigestDeterministic verifies the reproducibility contract: two
// independent captures of the same {generator, scale, seed} are byte-
// identical (hence digest-identical), and a different seed is not.
func TestDigestDeterministic(t *testing.T) {
	p1, d1 := captureFile(t, t.TempDir(), "kvstore", workload.Test())
	p2, d2 := captureFile(t, t.TempDir(), "kvstore", workload.Test())
	if d1 != d2 {
		t.Fatalf("digests differ for identical inputs: %s vs %s",
			tracefile.HexDigest(d1), tracefile.HexDigest(d2))
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("capture files differ for identical inputs")
	}
	other := workload.Test()
	other.Seed++
	_, d3 := captureFile(t, t.TempDir(), "kvstore", other)
	if d3 == d1 {
		t.Fatal("different seeds produced the same digest")
	}
}

// TestVerifyStreams checks the streaming path `ldstrace verify` uses: ops
// surface one at a time and the digest checks out without materializing.
func TestVerifyStreams(t *testing.T) {
	dir := t.TempDir()
	path, _ := captureFile(t, dir, "btree", workload.Test())
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := tracefile.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != r.Header().OpCount {
		t.Fatalf("streamed %d ops, header says %d", n, r.Header().OpCount)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyDetectsCorruption flips one body byte, truncates the file, and
// garbles the magic; all three must fail loudly.
func TestVerifyDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path, _ := captureFile(t, dir, "kvstore", workload.Params{Scale: 0.02, Seed: 3})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-10] ^= 0x40
	if err := verifyBytes(flipped); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("corrupted body: got %v, want digest mismatch", err)
	}

	if err := verifyBytes(raw[:len(raw)/2]); err == nil {
		t.Fatal("truncated capture verified")
	}

	garbled := append([]byte(nil), raw...)
	garbled[0] = 'X'
	if err := verifyBytes(garbled); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("garbled magic: got %v, want bad-magic error", err)
	}

	if err := verifyBytes(append(append([]byte(nil), raw...), 0xEE)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing garbage: got %v, want trailing-bytes error", err)
	}
}

func verifyBytes(b []byte) error {
	r, err := tracefile.NewReader(bytes.NewReader(b))
	if err != nil {
		return err
	}
	return r.Verify()
}

// TestReplayBitExact is the capture->replay golden test: for every server
// family, a replayed capture must produce a simulator report byte-identical
// to running the generator directly — same benchmark label, same cycles,
// same per-prefetcher counters, everything.
func TestReplayBitExact(t *testing.T) {
	p := workload.Params{Scale: 0.02, Seed: 7}
	sp := sim.NewSpec("cdp+throttle", "stream", "cdp", "throttle")
	for _, bench := range serverload.Families() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			dir := t.TempDir()
			path, _ := captureFile(t, dir, bench, p)
			replayBench, _, err := workload.FromTraceFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(replayBench, "trace:") {
				t.Fatalf("replay bench %q not content-addressed", replayBench)
			}
			direct, err := sim.RunSingleSpec(bench, p, sp)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := sim.RunSingleSpec(replayBench, p, sp)
			if err != nil {
				t.Fatal(err)
			}
			dj, err := json.Marshal(direct)
			if err != nil {
				t.Fatal(err)
			}
			rj, err := json.Marshal(replayed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dj, rj) {
				t.Fatalf("replayed report differs from direct run:\ndirect: %s\nreplay: %s", dj, rj)
			}
		})
	}
}

// TestFromTraceFileIdempotent loads the same capture twice; the second load
// must return the same name without a duplicate-registration error.
func TestFromTraceFileIdempotent(t *testing.T) {
	dir := t.TempDir()
	path, digest := captureFile(t, dir, "graphserve", workload.Params{Scale: 0.02, Seed: 11})
	a, hdr, err := workload.FromTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.TraceBenchName(digest); a != want {
		t.Fatalf("name %q, want %q", a, want)
	}
	// The header is the one whose digest Load verified.
	if hdr.Digest != digest || hdr.Meta.Generator != "graphserve" {
		t.Fatalf("header digest %x generator %q, want %x graphserve", hdr.Digest, hdr.Meta.Generator, digest)
	}
	b, _, err := workload.FromTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("second load renamed the workload: %q vs %q", a, b)
	}
}
