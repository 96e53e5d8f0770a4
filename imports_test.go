package uei_test

import (
	"go/build"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

const modulePath = "github.com/uei-db/uei"

// moduleImports maps every package of this module (path relative to the
// module root, "." for the facade) to the module-relative paths of the
// module packages its non-test sources import.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	graph := make(map[string][]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		// benchmark/ is a module of its own; dot-directories hold build
		// output.
		if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		if _, noGo := err.(*build.NoGoError); noGo {
			return nil
		}
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(path)
		graph[rel] = nil
		for _, imp := range pkg.Imports {
			if imp == modulePath {
				graph[rel] = append(graph[rel], ".")
			} else if strings.HasPrefix(imp, modulePath+"/") {
				graph[rel] = append(graph[rel], strings.TrimPrefix(imp, modulePath+"/"))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return graph
}

// importViolations checks the layering the single data plane relies on:
// leaf packages stay leaves, storage never reaches up into the index, and
// only core (with the facade and the binaries above it) sees both the
// shard and the stream package.
func importViolations(graph map[string][]string) []string {
	in := func(list []string, p string) bool {
		for _, x := range list {
			if x == p {
				return true
			}
		}
		return false
	}
	var bad []string
	deny := func(pkg string, forbidden ...string) {
		for _, imp := range graph["internal/"+pkg] {
			for _, f := range forbidden {
				if imp == "internal/"+f || strings.HasPrefix(imp, "internal/"+f+"/") {
					bad = append(bad, "internal/"+pkg+" imports "+imp)
				}
			}
		}
	}
	// metrics and obs are leaves too: every layer reports through them
	// (obs.Samples is the one latency summary), so neither may reach back.
	for _, leaf := range []string{"vec", "kernel", "metrics", "obs"} {
		for _, imp := range graph["internal/"+leaf] {
			bad = append(bad, "leaf internal/"+leaf+" imports "+imp)
		}
	}
	for _, imp := range graph["internal/grid"] {
		if imp != "internal/vec" && imp != "internal/chunkstore" {
			bad = append(bad, "internal/grid imports "+imp)
		}
	}
	for _, low := range []string{"chunkstore", "blockcache", "memcache", "pool", "learn"} {
		deny(low, "grid", "shard", "stream", "core", "ide", "server")
	}
	deny("shard", "stream", "core")
	// The transport carries rows, never models: the symbolic index is scored
	// in the coordinator's process, so no classifier crosses the wire.
	deny("shard/remote", "stream", "core", "learn")
	deny("stream", "core")
	// Strategies reach models through learn's Classifier only; a strategy
	// that packs blocks itself is a second scoring route.
	deny("al", "kernel")
	for pkg, imps := range graph {
		if pkg == "." || pkg == "internal/core" || strings.HasPrefix(pkg, "cmd/") {
			continue
		}
		if in(imps, "internal/shard") && in(imps, "internal/stream") {
			bad = append(bad, pkg+" imports both internal/shard and internal/stream")
		}
	}
	return bad
}

// TestImportDAG fails when a forbidden import edge appears in the module.
func TestImportDAG(t *testing.T) {
	graph := moduleImports(t)
	for _, must := range []string{".", "internal/vec", "internal/grid", "internal/shard", "internal/stream", "internal/core"} {
		if _, ok := graph[must]; !ok {
			t.Fatalf("package %s not found; the walk is broken", must)
		}
	}
	for _, v := range importViolations(graph) {
		t.Error(v)
	}
	// The checker itself must object to each kind of forbidden edge.
	for _, add := range [][]string{
		{"internal/vec", "internal/obs"},
		{"internal/metrics", "internal/obs"},
		{"internal/grid", "internal/learn"},
		{"internal/chunkstore", "internal/grid"},
		{"internal/shard", "internal/stream"},
		{"internal/shard/remote", "internal/learn"},
		{"internal/stream", "internal/core"},
		{"internal/al", "internal/kernel"},
		{"internal/ide", "internal/stream", "internal/shard"},
	} {
		mutated := make(map[string][]string, len(graph))
		for k, v := range graph {
			mutated[k] = v
		}
		mutated[add[0]] = append(append([]string(nil), graph[add[0]]...), add[1:]...)
		if len(importViolations(mutated)) == 0 {
			t.Errorf("adding %s -> %v is not reported", add[0], add[1:])
		}
	}
}
