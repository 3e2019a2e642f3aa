package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// hostInfo is the metadata every output record carries, so that a number can
// be traced to the machine, toolchain and commit it was taken on.
type hostInfo struct {
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	DateUTC      string  `json:"date_utc"`
	Rounds       int     `json:"rounds"`
	TimedSeconds float64 `json:"timed_seconds"`
}

func newHostInfo(seed int64) hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		DateUTC:    time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" where
// the file or the field is missing.
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

// commit is the revision the go tool stamped into the binary; a checkout
// that is not a git repository has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
