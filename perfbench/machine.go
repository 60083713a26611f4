package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine describes where and on what code a result was measured. Every
// workload writes the same schema.
type machine struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// Commit is BENCH_COMMIT from the environment: the checkout the
	// benchmark runs in need not be a git repository.
	Commit string `json:"commit"`
	// SourceDigest is a SHA-256 over the module's Go sources and go.mod
	// outside the benchmark's own directory, so two results can be matched
	// to the code they measured without git.
	SourceDigest string `json:"source_digest"`
}

func describeMachine(root string) machine {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return machine{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		OS:           runtime.GOOS,
		Arch:         runtime.GOARCH,
		Commit:       commit,
		SourceDigest: sourceDigest(root),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// sourceDigest hashes the path and contents of every .go file and go.mod
// under root, skipping hidden directories and the benchmark's own.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == benchDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// usage is the process's resource counters at one instant.
type usage struct {
	cpu     time.Duration
	maxRSSK int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSK: int64(ru.Maxrss),
	}
}

// rssSampler tracks the process's resident set, read from /proc/self/statm
// every rssSampleEvery, and keeps its maximum. The Go runtime hands freed
// pages back to the OS over seconds, not milliseconds, so a short burst of
// allocation stays resident for many samples and its peak is seen.
type rssSampler struct {
	stop chan struct{}
	done chan uint64
}

const rssSampleEvery = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	m := &rssSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		var peak uint64
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		for {
			peak = max(peak, residentBytes())
			select {
			case <-m.stop:
				m.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// peak stops the sampler and returns the largest resident set it saw, in
// bytes; 0 means the resident set could not be read.
func (m *rssSampler) peak() uint64 {
	close(m.stop)
	return <-m.done
}

// residentBytes is the process's resident set now, or 0 if it cannot be
// read.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
