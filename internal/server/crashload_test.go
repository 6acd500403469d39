package server

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rio/internal/wire"
)

// TestCrashUnderLoadNoAckedWriteLost is the serving-layer version of
// the paper's headline claim, run with real concurrency: 8 closed-loop
// clients hammer a 4-shard server through the in-process transport
// while shard 2 is crashed and warm-rebooted mid-workload.
//
// The assertions, in order of importance:
//
//  1. Acknowledged durability (Rio's no-write-behind-loss guarantee):
//     every write a client saw StatusOK for — including writes
//     acknowledged on shard 2 just before its crash — reads back
//     intact after the warm reboot. Zero acknowledged bytes lost.
//  2. Outage isolation: while shard 2 is down, the other shards keep
//     completing requests (their op counters advance during the
//     outage window).
//  3. EAGAIN discipline: requests caught by the outage surface as
//     retryable statuses, and the retry loop rides through them.
func TestCrashUnderLoadNoAckedWriteLost(t *testing.T) {
	const (
		clients    = 8
		shards     = 4
		crashShard = 2
		perClient  = 120 // ops per client, enough to straddle the outage
	)
	s := newTestServer(t, Config{Shards: shards, Seed: 1996, QueueDepth: 64})

	var (
		crashed    atomic.Bool   // controller has issued the crash
		rebooted   atomic.Bool   // controller has issued the warmboot
		opsStarted atomic.Uint64 // trips the controller partway in
	)

	// acked[c] maps path -> last payload client c saw StatusOK for.
	acked := make([]map[string][]byte, clients)
	var retried, exhausted uint64
	var mu sync.Mutex

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &RetryClient{C: MemClient{S: s},
				Pol: RetryPolicy{MaxRetries: 60, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}}
			mine := make(map[string][]byte, perClient)
			for i := 0; i < perClient; i++ {
				opsStarted.Add(1)
				path := fmt.Sprintf("/c%d-f%03d", c, i%40)
				payload := []byte(fmt.Sprintf("client %d op %d", c, i))
				resp, err := cl.Do(&wire.Request{ID: uint64(c)<<32 | uint64(i),
					Op: wire.OpWrite, Shard: -1, Path: path, Data: payload})
				if err != nil {
					t.Errorf("client %d: transport error: %v", c, err)
					return
				}
				switch resp.Status {
				case wire.StatusOK:
					mine[path] = payload
				case wire.StatusAgain:
					// Retries exhausted mid-outage: the write was never
					// applied (the down shard refuses, it does not
					// half-apply), so nothing is recorded.
				default:
					t.Errorf("client %d: write %s: %+v", c, path, resp)
					return
				}
				// Mix in reads so the load is not write-only.
				if i%3 == 0 {
					cl.Do(&wire.Request{ID: 1, Op: wire.OpRead, Shard: -1, Path: path})
				}
			}
			mu.Lock()
			acked[c] = mine
			retried += cl.Stats.Retries
			exhausted += cl.Stats.Exhausted
			mu.Unlock()
		}()
	}

	// Controller: crash shard 2 partway through, hold the outage long
	// enough for clients to slam into it, then warm-reboot.
	wg.Add(1)
	var duringOutage [shards]uint64
	go func() {
		defer wg.Done()
		for opsStarted.Load() < clients*perClient/4 {
			time.Sleep(time.Millisecond)
		}
		if r := s.Do(&wire.Request{ID: 9000, Op: wire.OpCrash, Shard: crashShard}); r.Status != wire.StatusOK {
			t.Errorf("admin crash: %+v", r)
			return
		}
		crashed.Store(true)
		before := s.Metrics()
		time.Sleep(20 * time.Millisecond) // outage window under live load
		after := s.Metrics()
		for i := 0; i < shards; i++ {
			duringOutage[i] = after.Shards[i].Ops - before.Shards[i].Ops
		}
		if r := s.Do(&wire.Request{ID: 9001, Op: wire.OpWarmboot, Shard: crashShard}); r.Status != wire.StatusOK {
			t.Errorf("admin warmboot: %+v", r)
			return
		}
		rebooted.Store(true)
	}()
	wg.Wait()

	if !crashed.Load() || !rebooted.Load() {
		t.Fatal("controller did not complete the crash/warmboot cycle")
	}

	// (2) Outage isolation: the healthy shards made progress while
	// shard 2 was down. (The down shard may also count ops — it is
	// answering EAGAIN — the requirement is that healthy shards never
	// stalled.)
	var healthyProgress uint64
	for i := 0; i < shards; i++ {
		if i != crashShard {
			healthyProgress += duringOutage[i]
		}
	}
	if healthyProgress == 0 {
		t.Fatalf("healthy shards served zero requests during the outage: %v", duringOutage)
	}

	// (3) The outage was actually felt (otherwise the test proved
	// nothing): some requests were retried or exhausted.
	m := s.Metrics()
	if m.Shards[crashShard].Retried == 0 && retried == 0 {
		t.Fatal("no request ever saw the outage; crash window missed the load")
	}

	// (1) Acknowledged durability: every acknowledged write reads back
	// intact, bit for bit. Later acknowledged writes to the same path
	// supersede earlier ones (closed-loop clients, so per client the
	// map already holds the last ack; distinct clients write distinct
	// paths).
	checked, onCrashedShard := 0, 0
	for c := 0; c < clients; c++ {
		if acked[c] == nil {
			t.Fatalf("client %d never reported", c)
		}
		for path, want := range acked[c] {
			r := s.Do(&wire.Request{ID: 8000, Op: wire.OpRead, Shard: -1, Path: path})
			if r.Status != wire.StatusOK {
				t.Fatalf("acked write %s unreadable after warm reboot: %+v", path, r)
			}
			if !bytes.Equal(r.Data, want) {
				t.Fatalf("acked write %s corrupted: got %q, want %q", path, r.Data, want)
			}
			checked++
			if s.ShardOf(path) == crashShard {
				onCrashedShard++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no acknowledged writes to verify")
	}
	if onCrashedShard == 0 {
		t.Fatal("no acknowledged writes landed on the crashed shard; durability across the crash went unexercised")
	}
	// Every metadata update above was atomic: no shard ever ran out of
	// frames for a shadow page and degraded to a plain write.
	for _, sh := range s.shards {
		if n := sh.sys.Machine().Cache.Stats.ShadowFallbacks; n != 0 {
			t.Errorf("shard %d: %d metadata updates fell back to a non-atomic write", sh.id, n)
		}
	}
	t.Logf("verified %d acked writes (%d on crashed shard %d); %d retries, %d exhausted, healthy-shard ops during outage %v",
		checked, onCrashedShard, crashShard, retried, exhausted, duringOutage)
}

// TestFrameReadRacesCrashNeverTorn is the changing-window check for the
// zero-copy read path: served frame reads hammer files on a shard that
// is being crashed and warm-rebooted in a loop. Every read must come
// back either StatusAgain (the shard was down, no frame) or as a
// complete wire frame whose payload is byte-exact — each file is filled
// with its own constant byte, so a buffer torn mid-serialization (half
// one file, half stale pool contents, or a frame released while the
// writer still held it) cannot decode to a uniform payload of the right
// length. A multi-block file rides along to cross block boundaries
// within one reserved data region.
func TestFrameReadRacesCrashNeverTorn(t *testing.T) {
	const (
		crashShard = 1
		readers    = 4
		files      = 4
		fileSize   = 8192        // one full cache block
		bigSize    = 3*8192 + 17 // spans blocks, ragged tail
		cycles     = 8
	)
	s := newTestServer(t, Config{Shards: 2, Seed: 2024, QueueDepth: 64})

	paths := make([]string, files+1)
	fills := make([]byte, files+1)
	sizes := make([]int, files+1)
	for i := 0; i < files; i++ {
		paths[i] = pathOnShard(t, s, crashShard, fmt.Sprintf("zc%d", i))
		fills[i] = byte(0x41 + i)
		sizes[i] = fileSize
	}
	paths[files] = pathOnShard(t, s, crashShard, "zcbig")
	fills[files] = 0x7A
	sizes[files] = bigSize
	for i, p := range paths {
		if r := s.Do(&wire.Request{ID: uint64(i), Op: wire.OpWrite, Path: p,
			Data: bytes.Repeat([]byte{fills[i]}, sizes[i])}); r.Status != wire.StatusOK {
			t.Fatalf("seed %s: %+v", p, r)
		}
	}

	var stop atomic.Bool
	var okReads, againReads atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				fi := (w + i) % len(paths)
				frame, resp := s.DoFrame(&wire.Request{ID: uint64(w)<<32 | uint64(i),
					Op: wire.OpRead, Path: paths[fi]})
				switch resp.Status {
				case wire.StatusOK:
					dec, err := wire.DecodeResponse(frame[4:])
					if err != nil {
						t.Errorf("reader %d: frame undecodable: %v", w, err)
					} else if len(dec.Data) != sizes[fi] {
						t.Errorf("reader %d: %s returned %d bytes, want %d",
							w, paths[fi], len(dec.Data), sizes[fi])
					} else {
						for off, b := range dec.Data {
							if b != fills[fi] {
								t.Errorf("reader %d: %s torn at offset %d: byte %#x, want %#x",
									w, paths[fi], off, b, fills[fi])
								break
							}
						}
					}
					okReads.Add(1)
					s.ReleaseFrame(frame)
				case wire.StatusAgain:
					againReads.Add(1) // shard down: no frame, by contract
				default:
					t.Errorf("reader %d: %s: %+v", w, paths[fi], resp)
				}
			}
		}(w)
	}

	// Crash/warmboot the shard in a loop while the readers run.
	for c := 0; c < cycles; c++ {
		if r := s.Do(&wire.Request{ID: 9100, Op: wire.OpCrash, Shard: crashShard}); r.Status != wire.StatusOK {
			t.Fatalf("cycle %d crash: %+v", c, r)
		}
		time.Sleep(2 * time.Millisecond)
		if r := s.Do(&wire.Request{ID: 9101, Op: wire.OpWarmboot, Shard: crashShard}); r.Status != wire.StatusOK {
			t.Fatalf("cycle %d warmboot: %+v", c, r)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if okReads.Load() == 0 {
		t.Fatal("no frame read ever succeeded; the race never exercised the zero-copy path")
	}
	if againReads.Load() == 0 {
		t.Fatal("no frame read ever hit the outage; the crash window missed the load")
	}
	t.Logf("%d byte-exact frame reads, %d StatusAgain across %d crash/warmboot cycles",
		okReads.Load(), againReads.Load(), cycles)
}
