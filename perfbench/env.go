package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/mat"
)

// environment is recorded in every output, so that a number is never read
// without the machine and the build that produced it.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	AVX2       bool   `json:"avx2"`
	Kernels    string `json:"kernels"`
	// Label is empty for the reference kernel backend the benchmark is
	// defined on; any other backend is labelled so its numbers are never
	// compared with reference runs by mistake.
	Label     string `json:"label,omitempty"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	Seed      uint64 `json:"seed"`
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
}

func captureEnv(commit string, seed uint64, wl string, trace bool) environment {
	model, avx2 := cpuInfo()
	env := environment{
		CPUModel:   model,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		AVX2:       avx2,
		Kernels:    mat.KernelBackend().String(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
		Workload:   wl,
		Trace:      trace,
	}
	if mat.KernelBackend() != mat.BackendReference {
		env.Label = "NOT-REFERENCE-BACKEND"
	}
	return env
}

// cpuInfo reads the CPU model and the avx2 flag from /proc/cpuinfo
// ("unknown", false where the file does not exist).
func cpuInfo() (model string, avx2 bool) {
	model = "unknown"
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			for _, fl := range strings.Fields(val) {
				if fl == "avx2" {
					avx2 = true
				}
			}
		}
	}
	return model, avx2
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) > 0 {
				kb, err := strconv.ParseFloat(fs[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
