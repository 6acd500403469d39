package main

import (
	"strings"
	"testing"
	"time"
)

// smoke is a ≈ 300 ms load on small machines: 4 connections × 4 streams,
// the fault at 100 ms, undone 50 ms later.
func smoke() loadConfig {
	return loadConfig{
		Net: "memory", Shards: 4, Clients: 4, Pipeline: 4, Duration: 300 * time.Millisecond,
		Writes: 0.5, Keys: 96, Size: 8192, Seed: 1, Policy: "rio", MemMB: 4, DiskMB: 8,
		Queue: 128, CrashShard: 0, CrashAt: 100 * time.Millisecond, CrashDown: 50 * time.Millisecond,
		Peers: 3, Replicas: 2,
	}
}

// TestCrashUnderLoad drives the one load loop in both modes: a shard
// crashed and warm-booted under load, and a fleet whose shard-0 primary
// is killed and revived. Nothing acknowledged may be lost, and no
// request may fail with anything but a retryable status.
func TestCrashUnderLoad(t *testing.T) {
	check := func(t *testing.T, cfg loadConfig, res *runResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d ops, %d retries, %d unreachable, %d exhausted", res.Ops, res.Retries, res.Unreachable, res.Exhausted)
		if res.Ops == 0 || res.Errors != 0 || res.Lost != 0 || res.Verified != cfg.Keys {
			t.Fatalf("ops %d, errors %d, %d keys byte-equal of %d, %d lost", res.Ops, res.Errors, res.Verified, cfg.Keys, res.Lost)
		}
	}
	t.Run("server", func(t *testing.T) {
		cfg := smoke()
		res, err := runServer(cfg)
		check(t, cfg, res, err)
		// The 50 ms outage is a tenth of RetryClient's backoff budget.
		if res.Unreachable != 0 || res.Exhausted != 0 {
			t.Fatalf("%d unreachable, %d exhausted retries across a 50 ms outage", res.Unreachable, res.Exhausted)
		}
	})
	t.Run("fleet", func(t *testing.T) {
		// The fleet client's budget (16 sends, 1 ms apart) is shorter
		// than the failure detector's three ticks, so requests to the
		// dead primary may run out of it; only loss and errors gate.
		cfg := smoke()
		cfg.Fleet, cfg.Shards = true, 2
		res, err := runFleet(cfg)
		check(t, cfg, res, err)
	})
}

// TestCrashThatDidNotHappenFails: a -crash-shard the server does not
// have is refused before anything is populated, and where that cannot be
// known up front (TCP: the shard count is the server's) the refused
// crash op fails the run instead of passing for a crash survived.
func TestCrashThatDidNotHappenFails(t *testing.T) {
	cfg := smoke()
	cfg.CrashShard = 7
	if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "-crash-shard 7") {
		t.Fatalf("validate accepted -crash-shard 7 on 4 shards: %v", err)
	}
	if res, err := runServer(cfg); err == nil || !strings.Contains(err.Error(), "crash") {
		t.Fatalf("a run whose crash op was refused returned %+v, %v", res, err)
	}
}
