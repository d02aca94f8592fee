package recordcache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// FuzzRecordSegment: any bytes as a segment file. Open and Get never
// panic, and every hit is the record of the key's last line whose
// checksum verifies.
func FuzzRecordSegment(f *testing.F) {
	good := encodeLine("k1", 1, []byte(`{"workload":"radix","sim_cycles":7}`))
	f.Add(good)
	f.Add(append(append([]byte{}, good...), encodeLine("k2", 2, []byte(`{"sim_cycles":8}`))...))
	f.Add(append(append([]byte{}, good...), `{"key":"k2","at":3`...)) // torn tail
	f.Add(bytes.Replace(good, []byte(`"sim_cycles":7`), []byte(`"sim_cycles":9`), 1))
	f.Add([]byte("\n\n{}\n"))
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000000000000000001-1-1"+segExt), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		// What the segment holds: per key, the last line that verifies.
		want, keys := map[string][]byte{}, map[string]bool{}
		for _, line := range bytes.Split(seg, []byte("\n")) {
			var loose struct{ Key string }
			if json.Unmarshal(line, &loose) == nil {
				keys[loose.Key] = true
			}
			if dl, ok := decodeLine(line); ok {
				want[dl.Key] = dl.Record
			}
		}
		c, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for key := range keys {
			rec, ok := c.Get(key)
			if !ok {
				continue
			}
			var exp scenario.Record
			if data, verified := want[key]; !verified || json.Unmarshal(data, &exp) != nil || !reflect.DeepEqual(rec, exp) {
				t.Fatalf("Get(%q) served %+v, which no verified line holds", key, rec)
			}
		}
	})
}
