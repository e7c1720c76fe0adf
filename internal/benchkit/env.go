package benchkit

import (
	"os"
	"runtime"
	"strings"
)

// EnvInfo captures the machine and runtime a benchmark table was
// measured on; rockbench -json and the bench/ ledger embed it so numbers
// are comparable across checkouts and CI runners.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel is the "model name" line of /proc/cpuinfo; empty where the
	// platform has no such file (best effort, never an error).
	CPUModel string `json:"cpu_model,omitempty"`
}

// Environment collects the current process's EnvInfo.
func Environment() EnvInfo {
	return EnvInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
