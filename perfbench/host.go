package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostInfo is the record printed and stored with every result: a sharded
// "speedup" means little without the core count beside it.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	// Commit is the VCS revision stamped into the binary, "unknown" when
	// it was built outside a repository. Source is a SHA-256 over the
	// module's Go sources and go.mod files, which identifies the code in
	// either case.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s source_sha256=%s",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPU, h.Commit, h.Source)
}

func hostRecord() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     "unknown",
		Source:     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// cpuTicks is a snapshot of the host's cumulative CPU time from /proc/stat:
// the time the hypervisor stole and the total.
type cpuTicks struct{ steal, total uint64 }

// readSteal reads the aggregate cpu line of /proc/stat; it returns zeros
// where the file is unavailable, which reads as no steal.
func readSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user … steal; guest time is already counted in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// fraction is the share of the host's CPU time stolen between t and later.
func (t cpuTicks) fraction(later cpuTicks) float64 {
	if later.total <= t.total {
		return 0
	}
	return float64(later.steal-t.steal) / float64(later.total-t.total)
}

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

// sourceDigest hashes every .go and go.mod file under root in lexical
// path order, skipping hidden and build-output directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
