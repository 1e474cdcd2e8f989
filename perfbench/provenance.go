package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance names what produced a result: host, toolchain, source
// revision, workload and seed, and the spread within this run.
func provenance(w workload, seed int64, traced bool, setups, rates []float64) map[string]any {
	return map[string]any{
		"workload":             w.name,
		"seed":                 seed,
		"trace":                traced,
		"host_cpus":            runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"engine_workers":       engineWorkers,
		"go_version":           runtime.Version(),
		"goos_goarch":          runtime.GOOS + "/" + runtime.GOARCH,
		"git_revision":         gitRevision(),
		"source_digest":        sourceDigest(),
		"setups":               len(setups),
		"setup_s_spread":       quartileSpread(setups),
		"reads_per_s_passes":   len(rates),
		"reads_per_s_spread":   quartileSpread(rates),
		"run_to_run_spread_by": "perfbench/repeat.py (quartile spread across seeds)",
	}
}

// gitRevision reads HEAD from .git when the benchmark runs in a clone;
// an exported checkout has none, and sourceDigest identifies it instead.
func gitRevision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == name {
				return f[0]
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module file of the repository
// (the benchmark's own directory and build output excluded), so two runs
// can be matched to the same code without git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || p == "go.mod" {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			h.Write([]byte(p))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
