// Command ldstrace captures, inspects, and verifies trace files in the
// LDSTRC format (TRACEFORMAT.md). Replaying a capture through the simulator
// is `ldssim -replay <file>`.
//
// Usage:
//
//	ldstrace capture -bench kvstore -scale 0.2 -seed 1 -o kv.ldstrc
//	ldstrace info kv.ldstrc            # header + metadata
//	ldstrace info -stats kv.ldstrc     # + streamed op composition
//	ldstrace verify kv.ldstrc          # streaming digest check
//
// capture builds a registered workload (generators or the serverload
// families; see `ldssim -list`) and writes its trace as a self-describing,
// digest-protected capture. Captures of the same {benchmark, scale, seed}
// are byte-identical. info and verify stream the file: ops are decoded one
// at a time and never materialized.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/tracefile"
	"ldsprefetch/internal/workload"

	_ "ldsprefetch/internal/workload/serverload"
)

func fatal(v ...interface{}) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ldstrace <capture|info|verify> [flags] [file]")
	fmt.Fprintln(os.Stderr, "run 'ldstrace <subcommand> -h' for subcommand flags")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "capture":
		captureCmd(os.Args[2:])
	case "info":
		infoCmd(os.Args[2:])
	case "verify":
		verifyCmd(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "ldstrace: unknown subcommand %q\n", os.Args[1])
		usage()
	}
}

func captureCmd(args []string) {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark to capture (see 'ldssim -list')")
	scale := fs.Float64("scale", 1.0, "input scale")
	seed := fs.Int64("seed", 1, "workload seed")
	out := fs.String("o", "", "output file (default <bench>.ldstrc)")
	fs.Parse(args)
	if *bench == "" {
		fatal("ldstrace capture: -bench is required")
	}
	if *out == "" {
		*out = *bench + ".ldstrc"
	}
	g, err := workload.Get(*bench)
	if err != nil {
		fatal("ldstrace capture:", err)
	}
	p := workload.Params{Scale: *scale, Seed: *seed}
	tr := g.Build(p)
	f, err := os.Create(*out)
	if err != nil {
		fatal("ldstrace capture:", err)
	}
	digest, err := tracefile.Capture(f, tr, tracefile.Meta{
		Name:      tr.Name,
		Generator: *bench,
		Scale:     p.Scale,
		Seed:      p.Seed,
		Tool:      "ldstrace",
	})
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		fatal("ldstrace capture:", err)
	}
	fmt.Printf("captured %s (%d ops) to %s\n", *bench, len(tr.Ops), *out)
	fmt.Printf("digest   %s\n", tracefile.HexDigest(digest))
}

// open parses the single positional file argument of info/verify.
func open(fs *flag.FlagSet, sub string) (*os.File, string) {
	if fs.NArg() != 1 {
		fatal(fmt.Sprintf("ldstrace %s: exactly one capture file expected", sub))
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal(fmt.Sprintf("ldstrace %s:", sub), err)
	}
	return f, path
}

func infoCmd(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	stats := fs.Bool("stats", false, "stream the ops and print composition statistics")
	fs.Parse(args)
	f, _ := open(fs, "info")
	defer f.Close()
	r, err := tracefile.NewReader(f)
	if err != nil {
		fatal("ldstrace info:", err)
	}
	hdr := r.Header()
	fmt.Printf("format    LDSTRC v%d\n", hdr.FormatVersion)
	fmt.Printf("name      %s\n", hdr.Meta.Name)
	fmt.Printf("generator %s (scale %g, seed %d)\n", hdr.Meta.Generator, hdr.Meta.Scale, hdr.Meta.Seed)
	if hdr.Meta.Tool != "" {
		fmt.Printf("tool      %s\n", hdr.Meta.Tool)
	}
	fmt.Printf("ops       %d\n", hdr.OpCount)
	fmt.Printf("pages     %d\n", hdr.PageCount)
	fmt.Printf("digest    %s\n", tracefile.HexDigest(hdr.Digest))
	if !*stats {
		return
	}
	var s trace.Stats
	for {
		op, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal("ldstrace info:", err)
		}
		s.Add(&op)
	}
	fmt.Printf("loads     %d (%d LDS)\n", s.Loads, s.LDSLoads)
	fmt.Printf("stores    %d\n", s.Stores)
	fmt.Printf("branches  %d (%d taken)\n", s.Branches, s.Taken)
	fmt.Printf("computes  %d (%d instructions total)\n", s.Computes, s.Instructions)
	if err := r.Verify(); err != nil {
		fatal("ldstrace info:", err)
	}
}

func verifyCmd(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	f, path := open(fs, "verify")
	defer f.Close()
	r, err := tracefile.NewReader(f)
	if err != nil {
		fatal("ldstrace verify:", err)
	}
	if err := r.Verify(); err != nil {
		fatal("ldstrace verify:", err)
	}
	fmt.Printf("%s: ok (%d ops, digest %s)\n", path, r.Header().OpCount, tracefile.HexDigest(r.Header().Digest))
}
