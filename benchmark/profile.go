package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profiledPackages are the layers a workload's CPU time is attributed
// to; every sample outside them (the benchmark itself, other standard
// library packages) counts in the total only.
var profiledPackages = []string{"des", "llm", "retrieval", "serve", "workload", "metrics",
	"stats", "hitrate", "partition", "vecmath", "pq", "ivf", "ingest", "runtime"}

// scratchDir is where the command keeps temporary files: inside the
// checkout it runs from and named in .gitignore, never in the
// repository's tracked tree and never outside the checkout.
const scratchDir = ".bench_build"

// cpuProfile is a runtime/pprof CPU profile being written to a
// temporary directory.
type cpuProfile struct {
	dir  string
	file *os.File
}

// startProfile begins a CPU profile in a fresh directory under scratch.
func startProfile(scratch string) (*cpuProfile, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "profile-")
	if err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &cpuProfile{dir: dir, file: f}, nil
}

// stop ends the profile, folds its flat samples by package with
// `go tool pprof -top`, removes the temporary directory, and returns
// each profiled package's share of all samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	if p == nil {
		return nil, fmt.Errorf("no profile was started")
	}
	defer os.RemoveAll(p.dir)
	pprof.StopCPUProfile()
	if err := p.file.Close(); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(p.dir)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-flat", "-nodecount=100000", "-unit=ms", p.file.Name())
	// pprof must not reach outside the checkout either.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+abs, "PPROF_BINARY_PATH="+abs)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldByPackage(out)
}

// foldByPackage sums the flat column of `pprof -top` output by package.
// Rows look like "  12.5ms  3.1%  40.2%  80ms  20%  vectorliterag/internal/pq.(*LUT).scanIDs8".
func foldByPackage(top []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(top))
	inRows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %v", sc.Text(), err)
		}
		total += ms
		flat[packageOf(f[5])] += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top listed no samples")
	}
	shares := map[string]float64{}
	for _, pkg := range profiledPackages {
		shares[pkg] = flat[pkg] / total
	}
	return shares, nil
}

// packageOf returns the last path element of a symbol's package:
// "vectorliterag/internal/pq.(*LUT).scanIDs8" is "pq", and
// "runtime/internal/atomic.Load" and "runtime.mallocgc" are "runtime".
func packageOf(symbol string) string {
	if strings.HasPrefix(symbol, "runtime.") || strings.HasPrefix(symbol, "runtime/") ||
		strings.HasPrefix(symbol, "internal/runtime/") {
		return "runtime"
	}
	slash := strings.LastIndexByte(symbol, '/')
	rest := symbol[slash+1:]
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		rest = rest[:dot]
	}
	return rest
}

// peakRSSMB is the process's resident-set high-water mark from
// /proc/self/status, or what the Go runtime obtained from the OS where
// that file does not exist.
func peakRSSMB(m runtime.MemStats) float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(m.Sys) / (1 << 20)
}

// cpuJiffies reads the host-wide CPU time counters from /proc/stat:
// the time the hypervisor ran something else while a virtual CPU wanted
// to run (steal), and all accounted time. Both are zero where the file
// does not exist.
func cpuJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
