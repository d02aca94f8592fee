package recordcache

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// The memory-tier property test: a randomized Get/Put sequence is
// mirrored against a map reference model, and after every operation the
// tier's invariants must hold:
//
//   - bytes never exceed MaxBytes;
//   - Stats' byte counter equals the sum of the resident entries' sizes;
//   - a hit always returns exactly the record most recently Put under
//     that key;
//   - a key Put moments ago hits immediately (unless its entry alone
//     exceeds the byte budget — such entries are not retained);
//   - hits+misses equals the number of Gets issued.
//
// Misses beyond that are legal (LRU eviction may forget any key), so the
// model asserts correctness of what IS served, not a full LRU mirror.
func TestMemoryTierProperties(t *testing.T) {
	const (
		ops      = 4000
		keyspace = 40
		maxBytes = 8 << 10
	)
	rng := rand.New(rand.NewSource(7))
	c, err := Open(Options{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type refEntry struct {
		rec  scenario.Record
		size int64
	}
	model := map[int]refEntry{}
	gets := int64(0)

	makeRec := func(k int) (scenario.Record, int64) {
		rec := testRecord(k, rng.Intn(600))
		rec.SimCycles = uint64(rng.Int63n(1 << 40)) // distinguish successive puts
		data, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		return rec, int64(len(data))
	}

	for op := 0; op < ops; op++ {
		k := rng.Intn(keyspace)
		kr := testRecord(k, 0)
		kk := key(&kr)
		switch rng.Intn(4) {
		case 0, 1: // Put
			rec, size := makeRec(k)
			c.Put(rec)
			model[k] = refEntry{rec: rec, size: size}
			if size <= maxBytes {
				if _, ok := c.Get(kk); !ok {
					t.Fatalf("op %d: key %d missing immediately after Put", op, k)
				}
				gets++
			}
		case 2, 3: // Get
			got, ok := c.Get(kk)
			gets++
			if ok {
				ref, known := model[k]
				if !known {
					t.Fatalf("op %d: hit on key %d that was never Put", op, k)
				}
				if got.SimCycles != ref.rec.SimCycles || got.Checksum != ref.rec.Checksum {
					t.Fatalf("op %d: key %d returned stale data: got cycles %d, want %d",
						op, k, got.SimCycles, ref.rec.SimCycles)
				}
			}
		}

		st := c.Stats()
		if st.Bytes > maxBytes {
			t.Fatalf("op %d: %d bytes exceeds budget %d", op, st.Bytes, maxBytes)
		}
		if st.Bytes < 0 || st.Entries < 0 {
			t.Fatalf("op %d: negative accounting: %+v", op, st)
		}
		if resident := residentBytes(c); st.Bytes != resident {
			t.Fatalf("op %d: byte counter %d, resident entries hold %d", op, st.Bytes, resident)
		}
		if st.Hits+st.Misses != gets {
			t.Fatalf("op %d: hits+misses = %d, want %d gets", op, st.Hits+st.Misses, gets)
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("test exercised no evictions (%+v) — budget too loose to mean anything", st)
	}
}

// residentBytes sums the marshaled lengths of the records the memory
// tier holds.
func residentBytes(c *Cache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		n += el.Value.(*memEntry).size
	}
	return n
}

// TestConcurrentReadersUnderWriter hammers one cache with parallel
// readers while a writer churns the same keyspace — run under -race this
// is the memory-tier's concurrency contract. Any record served must be
// internally consistent (the key fields a record derives its identity
// from must match the workload stamped at Put time), and the byte budget
// must hold once the writer stops.
func TestConcurrentReadersUnderWriter(t *testing.T) {
	const maxBytes = 4 << 10 // a fraction of the keyspace: the writer evicts
	c, err := Open(Options{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const keyspace = 24

	keys := make([]string, keyspace)
	for k := 0; k < keyspace; k++ {
		kr := testRecord(k, 0)
		keys[k] = key(&kr)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(keyspace)
				if rec, ok := c.Get(keys[k]); ok {
					if want := fmt.Sprintf("wl-%d", k); rec.Workload != want {
						t.Errorf("key %d served record for %s", k, rec.Workload)
						return
					}
					if !strings.HasPrefix(rec.ConfigDigest, "digest-") {
						t.Errorf("key %d served malformed record %+v", k, rec)
						return
					}
				}
			}
		}(int64(g))
	}
	wrng := rand.New(rand.NewSource(99))
	for op := 0; op < 2000; op++ {
		rec := testRecord(wrng.Intn(keyspace), wrng.Intn(200))
		rec.SimCycles = uint64(op)
		c.Put(rec)
	}
	close(stop)
	wg.Wait()
	if st := c.Stats(); st.Evictions == 0 || st.Bytes > maxBytes || st.Bytes != residentBytes(c) {
		t.Fatalf("byte budget %d: %+v (resident %d)", maxBytes, st, residentBytes(c))
	}
}
