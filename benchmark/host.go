package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostRecord pins where a result was measured, so results from different
// hosts are never compared by accident.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
}

func readHost() hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// procField returns the value of the first "key : value" line of a /proc
// file ("" when absent).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// readSteal returns the cumulative steal ticks of all CPUs (the eighth
// value of /proc/stat's first line); 0 where unavailable.
func readSteal() uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(fields[8], 10, 64)
	return v
}

// peakRSSMB is the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(fields) == 0 {
		return 0
	}
	kb, _ := strconv.ParseFloat(fields[0], 64)
	return kb / 1024
}
