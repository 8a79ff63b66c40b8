// Package procprof gives the commands one way to profile the simulator
// process without editing code: -cpuprofile and -memprofile flags whose
// files `go tool pprof` reads. Profiles are files of their own; nothing
// they record reaches a report.
package procprof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile paths a command line asked for.
type Flags struct {
	cpu, mem *string
}

// Register defines -cpuprofile and -memprofile on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file when the run ends"),
	}
}

// Start begins CPU profiling when -cpuprofile is set. The returned stop
// function ends it and writes the heap profile when -memprofile is set; call
// it once, when the work to be profiled is done.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if *f.cpu != "" {
		if cpu, err = os.Create(*f.cpu); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if *f.mem == "" {
			return nil
		}
		return writeHeap(*f.mem)
	}, nil
}

// writeHeap writes a heap profile to path after a collection, so in-use
// figures reflect live data rather than garbage awaiting the next cycle.
func writeHeap(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	return nil
}
