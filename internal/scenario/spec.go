// Package scenario is the declarative campaign surface: a small,
// bounds-checked spec describing workload × fault plan × crash/kill
// schedule × topology, compiled into plans of one of three kinds — a
// single-machine crash run, a crash-under-load run against the sharded
// server, a replicated-fleet run — that all issue into the one campaign
// scheduler (crashtest.Scheduler). The spec alone determines the report
// bytes: every seed in the compiled campaign derives from the spec's
// seed via sim.Mix, and the scheduler folds results in plan order — so
// `rioscn -workers 1` and `-workers 8` emit identical JSON, and any
// campaign cell is reproducible from the spec file alone.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"rio/internal/crashtest"
	"rio/internal/fault"
)

// MaxSpecBytes bounds a parseable spec. Specs are hand-written
// configuration; anything larger is hostile or a mistake.
const MaxSpecBytes = 1 << 16

// Kind selects what one plan runs.
const (
	KindCrash  = "crash"  // single-machine fault-injection campaign
	KindServer = "server" // sharded riod crash-under-load
	KindFleet  = "fleet"  // replicated fleet machine-loss campaign
)

// Spec is one scenario. The zero value of every optional field means
// "engine default"; Validate fills defaults in place so a validated
// spec is also the canonical one.
type Spec struct {
	// Name labels the report row and names the report file rioscn writes
	// (-json-dir DIR/<name>.json), so it is required and restricted to
	// [A-Za-z0-9._-] with no leading dot.
	Name string `json:"name"`
	// Kind picks the plan's run: crash, server, or fleet.
	Kind string `json:"kind"`
	// Seed roots every derived stream. 0 is a valid seed.
	Seed uint64 `json:"seed"`
	// Runs is the number of campaign plans (cells × attempts are
	// derived from it per kind).
	Runs int `json:"runs"`

	Workload WorkloadSpec `json:"workload"`
	Faults   FaultSpec    `json:"faults"`
	Schedule ScheduleSpec `json:"schedule"`
	Topology TopologySpec `json:"topology"`
}

// WorkloadSpec names and sizes the workload. Only the fields the named
// workload uses are consulted; Validate rejects mis-sized ones.
type WorkloadSpec struct {
	// Name: memtest, txntest, metacache, mailspool, hotkey, or scan.
	Name string `json:"name"`
	// Bytes is memtest's file-set budget.
	Bytes int `json:"bytes,omitempty"`
	// Accounts is txntest's account count.
	Accounts int `json:"accounts,omitempty"`
	// Files is metacache's source-file count.
	Files int `json:"files,omitempty"`
	// Queue is mailspool's live-message bound.
	Queue int `json:"queue,omitempty"`
	// Keys is hotkey's key-space size (also the server workload's).
	Keys int `json:"keys,omitempty"`
	// Skew is the zipf exponent for metacache/hotkey/server streams.
	Skew float64 `json:"skew,omitempty"`
	// EpochLen is hotkey's steps-per-flash-crowd.
	EpochLen int `json:"epoch_len,omitempty"`
	// Segments and BatchesPerSeg size the scan workload.
	Segments      int `json:"segments,omitempty"`
	BatchesPerSeg int `json:"batches_per_seg,omitempty"`
}

// FaultSpec is the crash kind's fault plan.
type FaultSpec struct {
	// Types restricts the injected fault types (crashtest names, e.g.
	// "kernel text"). Empty = all of fault.AllTypes.
	Types []string `json:"types,omitempty"`
	// Count is faults injected per run (default fault.DefaultCount).
	Count int `json:"count,omitempty"`
	// DiskFaults turns on double-fault mode: recovery runs against a
	// faulty disk and a second crash interrupts the warm reboot.
	DiskFaults bool `json:"disk_faults,omitempty"`
}

// ScheduleSpec shapes the op stream around the fault.
type ScheduleSpec struct {
	// WarmupOps run before fault injection (crash kind).
	WarmupOps int `json:"warmup_ops,omitempty"`
	// MaxOps bounds post-injection ops (crash kind) or total ops per
	// run (server kind).
	MaxOps int `json:"max_ops,omitempty"`
	// CrashAt is the server kind's op index for the shard crash.
	CrashAt int `json:"crash_at,omitempty"`
	// OutageOps is how many ops the server kind runs before the
	// warm reboot of the crashed shard.
	OutageOps int `json:"outage_ops,omitempty"`
}

// TopologySpec places the run on hardware.
type TopologySpec struct {
	// Systems restricts the crash kind's Table 1 columns ("disk-based",
	// "rio-noprot", "rio-prot"). Empty = all three (txntest: the two
	// rio columns).
	Systems []string `json:"systems,omitempty"`
	// Shards is the server/fleet shard count.
	Shards int `json:"shards,omitempty"`
	// Nodes and Replicas size the fleet.
	Nodes    int `json:"nodes,omitempty"`
	Replicas int `json:"replicas,omitempty"`
	// FleetFaults restricts the fleet kind's fault kinds
	// ("kill-primary", "partition-primary", "kill-backup", "os-crash",
	// "partition-pair"). Empty = all five.
	FleetFaults []string `json:"fleet_faults,omitempty"`
}

// nameChars is what a scenario's name may consist of.
const nameChars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-"

// bounds for hand-written configuration; anything past these is a typo
// or an attack, not a bigger experiment.
const (
	maxRuns     = 100_000
	maxOps      = 1_000_000
	maxObjects  = 1 << 20 // files/keys/accounts/segments/queue
	maxBytes    = 1 << 30
	maxSkew     = 8.0
	maxTopology = 64
)

// Parse decodes and validates a spec. Unknown fields, trailing data,
// oversized input, and out-of-bounds values are all errors; the
// returned spec has every default filled in, so Encode(Parse(x)) is
// the canonical form of x.
func Parse(data []byte) (*Spec, error) {
	if len(data) > MaxSpecBytes {
		return nil, fmt.Errorf("scenario: spec is %d bytes, max %d", len(data), MaxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	// Trailing garbage after the spec object is an error, not ignored.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode renders the canonical form: defaults filled, two-space
// indent, trailing newline. Parse(Encode(s)) round-trips exactly.
func (s *Spec) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Validate bounds-checks the spec and fills engine defaults in place.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if len(s.Name) > 128 {
		return fmt.Errorf("scenario: name longer than 128 bytes")
	}
	if strings.Trim(s.Name, nameChars) != "" || s.Name[0] == '.' {
		return fmt.Errorf("scenario: name %q is a file name: only [A-Za-z0-9._-], no leading dot", s.Name)
	}
	switch s.Kind {
	case KindCrash, KindServer, KindFleet:
	default:
		return fmt.Errorf("scenario: unknown kind %q (want crash, server, or fleet)", s.Kind)
	}
	if s.Runs <= 0 {
		return fmt.Errorf("scenario: runs must be positive")
	}
	if s.Runs > maxRuns {
		return fmt.Errorf("scenario: runs %d exceeds %d", s.Runs, maxRuns)
	}
	if err := s.Workload.validate(s.Kind); err != nil {
		return err
	}
	if err := s.Faults.validate(s.Kind); err != nil {
		return err
	}
	if err := s.Schedule.validate(s.Kind); err != nil {
		return err
	}
	return s.Topology.validate(s.Kind, s.Workload.Name)
}

func boundObj(name string, v *int, def, max int) error {
	if *v == 0 {
		*v = def
	}
	if *v < 0 || *v > max {
		return fmt.Errorf("scenario: %s %d out of bounds [1,%d]", name, *v, max)
	}
	return nil
}

func (w *WorkloadSpec) validate(kind string) error {
	if kind == KindFleet {
		if w.Name != "" {
			return fmt.Errorf("scenario: fleet scenarios use the built-in replication workload; workload.name must be empty")
		}
		return nil
	}
	switch w.Name {
	case "memtest", "txntest", "metacache", "mailspool", "hotkey", "scan":
	case "":
		w.Name = "memtest"
	default:
		return fmt.Errorf("scenario: unknown workload %q", w.Name)
	}
	if kind == KindServer && w.Name != "memtest" && w.Name != "hotkey" {
		return fmt.Errorf("scenario: server scenarios drive a key stream; workload must be hotkey (or memtest for defaults), not %q", w.Name)
	}
	if err := boundObj("workload.bytes", &w.Bytes, 1<<21, maxBytes); err != nil {
		return err
	}
	if err := boundObj("workload.accounts", &w.Accounts, 8, maxObjects); err != nil {
		return err
	}
	if err := boundObj("workload.files", &w.Files, 12, maxObjects); err != nil {
		return err
	}
	if err := boundObj("workload.queue", &w.Queue, 24, maxObjects); err != nil {
		return err
	}
	if err := boundObj("workload.keys", &w.Keys, 48, maxObjects); err != nil {
		return err
	}
	if err := boundObj("workload.epoch_len", &w.EpochLen, 100, maxOps); err != nil {
		return err
	}
	if err := boundObj("workload.segments", &w.Segments, 3, 4096); err != nil {
		return err
	}
	if err := boundObj("workload.batches_per_seg", &w.BatchesPerSeg, 8, 4096); err != nil {
		return err
	}
	if w.Skew < 0 || w.Skew > maxSkew {
		return fmt.Errorf("scenario: workload.skew %v out of bounds [0,%v]", w.Skew, maxSkew)
	}
	if w.Skew == 0 && (w.Name == "hotkey" || w.Name == "metacache") {
		w.Skew = 1.1
	}
	return nil
}

func (f *FaultSpec) validate(kind string) error {
	if kind != KindCrash {
		if len(f.Types) > 0 || f.Count != 0 || f.DiskFaults {
			return fmt.Errorf("scenario: faults apply only to crash scenarios")
		}
		return nil
	}
	if f.Count == 0 {
		f.Count = fault.DefaultCount
	}
	if f.Count < 0 || f.Count > 10_000 {
		return fmt.Errorf("scenario: faults.count %d out of bounds [1,10000]", f.Count)
	}
	if len(f.Types) > len(fault.AllTypes) {
		return fmt.Errorf("scenario: faults.types lists %d entries, only %d exist", len(f.Types), len(fault.AllTypes))
	}
	for _, name := range f.Types {
		if _, err := faultByName(name); err != nil {
			return err
		}
	}
	return nil
}

func (sc *ScheduleSpec) validate(kind string) error {
	switch kind {
	case KindCrash:
		if sc.CrashAt != 0 || sc.OutageOps != 0 {
			return fmt.Errorf("scenario: schedule.crash_at/outage_ops apply only to server scenarios")
		}
		if err := boundObj("schedule.warmup_ops", &sc.WarmupOps, 30, maxOps); err != nil {
			return err
		}
		return boundObj("schedule.max_ops", &sc.MaxOps, 250, maxOps)
	case KindServer:
		if sc.WarmupOps != 0 {
			return fmt.Errorf("scenario: schedule.warmup_ops applies only to crash scenarios")
		}
		if err := boundObj("schedule.max_ops", &sc.MaxOps, 200, maxOps); err != nil {
			return err
		}
		if err := boundObj("schedule.crash_at", &sc.CrashAt, sc.MaxOps/4, maxOps); err != nil {
			return err
		}
		if err := boundObj("schedule.outage_ops", &sc.OutageOps, sc.MaxOps/4, maxOps); err != nil {
			return err
		}
		if sc.CrashAt+sc.OutageOps >= sc.MaxOps {
			return fmt.Errorf("scenario: crash_at %d + outage_ops %d must leave ops before max_ops %d",
				sc.CrashAt, sc.OutageOps, sc.MaxOps)
		}
		return nil
	default: // fleet: the campaign derives its own write counts
		if sc.WarmupOps != 0 || sc.MaxOps != 0 || sc.CrashAt != 0 || sc.OutageOps != 0 {
			return fmt.Errorf("scenario: schedule fields apply only to crash/server scenarios")
		}
		return nil
	}
}

func (t *TopologySpec) validate(kind, wl string) error {
	switch kind {
	case KindCrash:
		if t.Shards != 0 || t.Nodes != 0 || t.Replicas != 0 || len(t.FleetFaults) > 0 {
			return fmt.Errorf("scenario: crash scenarios take only topology.systems")
		}
		if len(t.Systems) == 0 {
			if wl == "txntest" {
				t.Systems = []string{"rio-noprot", "rio-prot"}
			} else {
				t.Systems = []string{"disk-based", "rio-noprot", "rio-prot"}
			}
		}
		if len(t.Systems) > len(crashtest.Systems) {
			return fmt.Errorf("scenario: topology.systems lists %d entries, only %d exist",
				len(t.Systems), len(crashtest.Systems))
		}
		for _, name := range t.Systems {
			sys, err := systemByName(name)
			if err != nil {
				return err
			}
			if wl == "txntest" && sys == crashtest.DiskWT {
				return fmt.Errorf("scenario: txntest runs on the rio systems only (transactions live in the protected cache)")
			}
		}
		return nil
	case KindServer:
		if len(t.Systems) > 0 || t.Nodes != 0 || t.Replicas != 0 || len(t.FleetFaults) > 0 {
			return fmt.Errorf("scenario: server scenarios take only topology.shards")
		}
		return boundObj("topology.shards", &t.Shards, 4, maxTopology)
	default: // fleet
		if len(t.Systems) > 0 {
			return fmt.Errorf("scenario: topology.systems applies only to crash scenarios")
		}
		if err := boundObj("topology.nodes", &t.Nodes, 3, maxTopology); err != nil {
			return err
		}
		if err := boundObj("topology.shards", &t.Shards, 2, maxTopology); err != nil {
			return err
		}
		if err := boundObj("topology.replicas", &t.Replicas, 2, maxTopology); err != nil {
			return err
		}
		if t.Replicas > t.Nodes {
			return fmt.Errorf("scenario: replicas %d exceed nodes %d", t.Replicas, t.Nodes)
		}
		if len(t.FleetFaults) > len(fleetFaultNames) {
			return fmt.Errorf("scenario: topology.fleet_faults lists %d entries, only %d exist",
				len(t.FleetFaults), len(fleetFaultNames))
		}
		for _, name := range t.FleetFaults {
			if _, err := fleetFaultByName(name); err != nil {
				return err
			}
		}
		return nil
	}
}

// faultByName resolves a crashtest fault-type name.
func faultByName(name string) (fault.Type, error) {
	for _, ft := range fault.AllTypes {
		if ft.String() == name {
			return ft, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown fault type %q", name)
}

// systemByName resolves a Table 1 column name.
func systemByName(name string) (crashtest.System, error) {
	for _, sys := range crashtest.Systems {
		if sys.String() == name {
			return sys, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown system %q", name)
}
