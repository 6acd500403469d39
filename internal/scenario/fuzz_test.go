package scenario

import (
	"bytes"
	"path/filepath"
	"testing"
)

// FuzzParseScenario is the satellite fuzz target: hostile specs must
// never panic or over-allocate, and any spec that parses must have a
// canonical form that is a re-encode fixpoint.
func FuzzParseScenario(f *testing.F) {
	f.Add([]byte(`{"name":"t","kind":"crash","seed":1,"runs":3}`))
	f.Add([]byte(`{"name":"s","kind":"server","runs":2,"workload":{"name":"hotkey","keys":16,"skew":1.2}}`))
	f.Add([]byte(`{"name":"f","kind":"fleet","runs":5,"topology":{"shards":2,"fleet_faults":["os-crash"]}}`))
	f.Add([]byte(`{"name":"d","kind":"crash","runs":6,"workload":{"name":"scan","segments":2,"batches_per_seg":4},"faults":{"disk_faults":true}}`))
	f.Add([]byte(`{"name":"x","kind":"crash","runs":1,"workload":{"name":"metacache","files":8,"skew":0.9},"schedule":{"warmup_ops":10,"max_ops":50}}`))
	f.Add([]byte(`{"name":"p","kind":"perf","seed":1,"runs":1}`))
	f.Add([]byte(`{"name":"../../x","kind":"crash","runs":1}`))
	f.Add([]byte(`{"name":".x","kind":"fleet","runs":1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"name":"t","kind":"crash","runs":1e9}`))
	f.Add([]byte(`{"name":"t","kind":"crash","runs":1,"seed":18446744073709551615}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data) // must not panic
		if err != nil {
			return
		}
		// Parsed specs are validated: spot-check the bounds that guard
		// allocation downstream.
		if s.Name != filepath.Base(s.Name) || s.Name[0] == '.' {
			t.Fatalf("validated spec has a name that is not a plain file name: %q", s.Name)
		}
		if s.Runs <= 0 || s.Runs > maxRuns {
			t.Fatalf("validated spec has runs out of bounds: %d", s.Runs)
		}
		if s.Workload.Keys < 0 || s.Workload.Keys > maxObjects {
			t.Fatalf("validated spec has keys out of bounds: %d", s.Workload.Keys)
		}
		// Canonical re-encode must be a fixpoint.
		enc1, err := s.Encode()
		if err != nil {
			t.Fatalf("valid spec failed to encode: %v", err)
		}
		s2, err := Parse(enc1)
		if err != nil {
			t.Fatalf("canonical form failed to re-parse: %v\n%s", err, enc1)
		}
		enc2, err := s2.Encode()
		if err != nil {
			t.Fatalf("canonical form failed to re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encode not a fixpoint:\n%q\nvs\n%q", enc1, enc2)
		}
	})
}
