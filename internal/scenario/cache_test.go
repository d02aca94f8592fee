package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModelPinMatchesGoldens: ModelPin is the head of the benchmark's
// golden records digest, so a change that moves results moves every
// cache key with it.
func TestModelPinMatchesGoldens(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "golden", "records.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	full := ""
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "full" {
			full = f[1]
		}
	}
	if len(full) < len(ModelPin) {
		t.Fatalf("no full digest in records.sha256: %q", b)
	}
	if pin := full[:len(ModelPin)]; pin != ModelPin {
		t.Fatalf("goldens moved: update the cache-key pin (ModelPin %s, goldens %s)", ModelPin, pin)
	}
}

// mapCache is a RecordCache over a map.
type mapCache map[string]Record

func (c mapCache) Get(key string) (Record, bool) { r, ok := c[key]; return r, ok }
func (c mapCache) Put(r Record)                  { c[RecordKey(&r)] = r }

// TestCacheKeyNamesTheModel: a record stored under one model pin is not
// served under another.
func TestCacheKeyNamesTheModel(t *testing.T) {
	spec := &RunSpec{Workload: "radix", Threads: 4, Scale: 1, Seed: 3}
	spec.Config.Tiles = 4
	digest := Digest(&spec.Config)
	c := mapCache{}
	c.Put(Record{ConfigDigest: digest, Workload: "radix", Threads: 4, Scale: 1, Seed: 3, SimCycles: 7})
	if r, ok := CacheLookup(c, spec, ""); !ok || r.SimCycles != 7 {
		t.Fatalf("lookup under the same pin: %v, %+v", ok, r)
	}
	if _, ok := c.Get(cacheKey("0123456789abcdef", digest, "radix", 4, 1, 3)); ok {
		t.Fatal("a record stored under one model pin is served under another")
	}
}
