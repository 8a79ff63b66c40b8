package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBadFlagExitsNonzero(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no-such-flag") {
		t.Errorf("stderr does not mention the bad flag:\n%s", stderr.String())
	}
}

// TestTypecheckFailureExitsOne: a package that does not type-check is a
// tool failure (exit 1) whose message names the package, not a clean run.
func TestTypecheckFailureExitsOne(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":                    "module testmod\n\ngo 1.22\n",
		"internal/memsys/broken.go": "package memsys\n\nfunc f() { undefined() }\n",
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	var stderr bytes.Buffer
	if code := run(nil, &stderr); code != 1 {
		t.Errorf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "testmod/internal/memsys") {
		t.Errorf("stderr does not name the broken package:\n%s", stderr.String())
	}
}
