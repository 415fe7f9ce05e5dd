package session

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/cdn"
	"vidperf/internal/core"
	"vidperf/internal/timeline"
	"vidperf/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// nonLRUPolicies are the cache policies other than the default LRU. Each
// runs warm through Execute, so warmup's insert-everything path, the
// per-shard warm image and every policy's eviction order reach the trace.
var nonLRUPolicies = []string{"lfu", "perfect-lfu", "gd-size", "gdsf"}

// policyScenario is a warm campaign on a fleet small enough that every
// server slot serves several PoP shards, with caches small enough that
// warmup and the run itself evict, and a cache-shrink phase so resizes
// land on the warm state mid-run.
func policyScenario(policy string, par int) workload.Scenario {
	return workload.Scenario{
		Seed:        23,
		NumSessions: 400,
		NumPrefixes: 150,
		Catalog:     catalog.Config{NumVideos: 600},
		Fleet: cdn.FleetConfig{
			NumPoPs: 3, ServersPerPoP: 3,
			Server: cdn.Config{Policy: policy, RAMBytes: 64 << 20, DiskBytes: 512 << 20},
		},
		Timeline: timeline.Timeline{Phases: []timeline.Phase{
			{Name: "shrink", StartMS: 8 * 60e3, EndMS: 14 * 60e3,
				Effects: timeline.Effects{CacheCapacityFactor: 0.5}},
		}},
		Parallelism: par,
	}
}

// TestNonLRUPoliciesPinned runs each non-LRU policy warm at parallelism
// 1 and 4: the two traces must be byte-identical, and their SHA-256 must
// match testdata/policies.golden, so a change that alters any policy's
// warm state or eviction order fails here even when LRU is untouched.
// Regenerate with: go test ./internal/session -run TestNonLRUPoliciesPinned -update
func TestNonLRUPoliciesPinned(t *testing.T) {
	var got strings.Builder
	for _, policy := range nonLRUPolicies {
		trace := func(par int) []byte {
			ds := mustRun(t, policyScenario(policy, par))
			var buf bytes.Buffer
			if err := core.WriteJSONL(&buf, ds); err != nil {
				t.Fatalf("%s: WriteJSONL: %v", policy, err)
			}
			return buf.Bytes()
		}
		seq, par := trace(1), trace(4)
		if !bytes.Equal(seq, par) {
			t.Errorf("%s: parallelism 4 trace differs from sequential (%d vs %d bytes)", policy, len(par), len(seq))
		}
		sum := sha256.Sum256(seq)
		fmt.Fprintf(&got, "%s %s\n", policy, hex.EncodeToString(sum[:]))
	}
	path := filepath.Join("testdata", "policies.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got.String() != string(want) {
		t.Errorf("trace SHA-256s drifted from %s;\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}
