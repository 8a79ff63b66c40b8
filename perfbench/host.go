package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// hostInfo fingerprints the host and the input of a run. It is printed with
// every result, because timings are only comparable on the same host.
type hostInfo struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	// Model states what the simulated statistics are: checked for
	// byte-identity, never for accuracy.
	Model string `json:"model"`
}

func fingerprint(cfg config, scale float64) hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Scale:      scale,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Model:      "unvalidated: no real-hardware reference; results are checked for byte-identity only",
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown"
// where the kernel does not provide one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
