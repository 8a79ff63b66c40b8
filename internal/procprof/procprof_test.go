package procprof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesRequestedProfiles runs the flags end to end: both files
// appear, non-empty, once stop returns, and no flag means no file.
func TestStartWritesRequestedProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", heap}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, heap} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s: stat %v, err %v; want a non-empty profile", p, st, err)
		}
	}

	off := Register(flag.NewFlagSet("off", flag.ContinueOnError))
	stop, err = off.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartReportsUnwritablePath checks a bad -cpuprofile path is an error
// from Start, not a silent run without a profile.
func TestStartReportsUnwritablePath(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof")}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start(); err == nil {
		t.Fatal("Start accepted an unwritable -cpuprofile path")
	}
}
