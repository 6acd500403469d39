package scenario

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseMinimalCrashSpec(t *testing.T) {
	s, err := Parse([]byte(`{"name":"t","kind":"crash","seed":1,"runs":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload.Name != "memtest" {
		t.Fatalf("default workload: %q", s.Workload.Name)
	}
	if len(s.Topology.Systems) != 3 {
		t.Fatalf("default systems: %v", s.Topology.Systems)
	}
	if s.Schedule.WarmupOps == 0 || s.Schedule.MaxOps == 0 {
		t.Fatalf("schedule defaults not filled: %+v", s.Schedule)
	}
	if s.Faults.Count == 0 {
		t.Fatal("fault count default not filled")
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ``},
		{"not json", `{{`},
		{"unknown field", `{"name":"t","kind":"crash","runs":1,"bogus":1}`},
		{"unknown kind", `{"name":"t","kind":"chaos","runs":1}`},
		{"missing name", `{"kind":"crash","runs":1}`},
		{"zero runs", `{"name":"t","kind":"crash"}`},
		{"negative runs", `{"name":"t","kind":"crash","runs":-1}`},
		{"huge runs", `{"name":"t","kind":"crash","runs":9999999}`},
		{"unknown workload", `{"name":"t","kind":"crash","runs":1,"workload":{"name":"forkbomb"}}`},
		{"unknown fault", `{"name":"t","kind":"crash","runs":1,"faults":{"types":["lasers"]}}`},
		{"unknown system", `{"name":"t","kind":"crash","runs":1,"topology":{"systems":["ntfs"]}}`},
		{"trailing data", `{"name":"t","kind":"crash","runs":1}{"x":1}`},
		{"fleet zero runs", `{"name":"t","kind":"fleet"}`},
		{"fleet with workload", `{"name":"t","kind":"fleet","runs":1,"workload":{"name":"memtest"}}`},
		{"fleet bad kind", `{"name":"t","kind":"fleet","runs":1,"topology":{"fleet_faults":["meteor"]}}`},
		{"fleet replicas exceed nodes", `{"name":"t","kind":"fleet","runs":1,"topology":{"nodes":2,"replicas":3}}`},
		{"server with systems", `{"name":"t","kind":"server","runs":1,"topology":{"systems":["rio-prot"]}}`},
		{"server workload", `{"name":"t","kind":"server","runs":1,"workload":{"name":"mailspool"}}`},
		{"server outage too long", `{"name":"t","kind":"server","runs":1,"schedule":{"max_ops":100,"crash_at":50,"outage_ops":60}}`},
		{"crash with shards", `{"name":"t","kind":"crash","runs":1,"topology":{"shards":4}}`},
		{"crash with crash_at", `{"name":"t","kind":"crash","runs":1,"schedule":{"crash_at":5}}`},
		{"txntest on disk", `{"name":"t","kind":"crash","runs":1,"workload":{"name":"txntest"},"topology":{"systems":["disk-based"]}}`},
		{"skew out of range", `{"name":"t","kind":"crash","runs":1,"workload":{"name":"hotkey","skew":99}}`},
		{"negative bytes", `{"name":"t","kind":"crash","runs":1,"workload":{"bytes":-5}}`},
		{"faults on fleet", `{"name":"t","kind":"fleet","runs":1,"faults":{"count":5}}`},
		{"long name", `{"name":"` + strings.Repeat("x", 200) + `","kind":"crash","runs":1}`},
		{"name escapes the report dir", `{"name":"../../x","kind":"crash","runs":1}`},
		{"hidden name", `{"name":".x","kind":"crash","runs":1}`},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.in)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestParseRejectsOversized(t *testing.T) {
	big := append([]byte(`{"name":"t"`), bytes.Repeat([]byte(" "), MaxSpecBytes)...)
	if _, err := Parse(big); err == nil {
		t.Fatal("oversized spec accepted")
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	specs := []string{
		`{"name":"a","kind":"crash","seed":7,"runs":12,"workload":{"name":"hotkey","keys":32},"faults":{"types":["kernel text"],"disk_faults":true}}`,
		`{"name":"b","kind":"server","seed":9,"runs":4,"workload":{"name":"hotkey"},"topology":{"shards":2}}`,
		`{"name":"c","kind":"fleet","seed":1,"runs":10,"topology":{"fleet_faults":["kill-primary","partition-pair"]}}`,
		`{"name":"d","kind":"crash","runs":2,"workload":{"name":"txntest","accounts":4}}`,
	}
	for _, in := range specs {
		s, err := Parse([]byte(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		enc1, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Parse(enc1)
		if err != nil {
			t.Fatalf("re-parse of canonical form failed: %v\n%s", err, enc1)
		}
		enc2, err := s2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical encode not a fixpoint:\n%s\nvs\n%s", enc1, enc2)
		}
	}
}

func TestTxnTestDefaultsToRioSystems(t *testing.T) {
	s, err := Parse([]byte(`{"name":"t","kind":"crash","runs":1,"workload":{"name":"txntest"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Topology.Systems) != 2 {
		t.Fatalf("txntest systems: %v", s.Topology.Systems)
	}
	for _, sys := range s.Topology.Systems {
		if sys == "disk-based" {
			t.Fatal("txntest defaulted onto the disk-based column")
		}
	}
}
