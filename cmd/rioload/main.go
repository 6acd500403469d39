// Command rioload is a load generator for riod: N client connections
// each issue requests against the server — over TCP or against an
// in-process server (-net memory) — with a configurable read/write
// mix, key count, and key-space skew. Clients follow the EAGAIN
// discipline: retryable statuses are re-submitted with exponential
// backoff, so a shard crash plus warm reboot under load shows up as a
// latency blip, not an error storm.
//
// By default each connection is closed-loop: one request at a time.
// -pipeline P runs P concurrent request streams per connection —
// pipelined over a shared MuxClient in TCP mode, matched to responses
// by tag — so the shard queues see real depth and batch draining
// amortises queue handoffs (watch avg_batch in the per-shard metrics).
//
// Usage:
//
//	rioload [-net memory|tcp] [-addr host:7979] [-clients 8]
//	        [-pipeline 1] [-duration 10s] [-writes 0.5] [-keys 900]
//	        [-size 8192] [-skew 0] [-seed 1]
//	        [-shards 4] [-mem 16] [-disk 32]        (memory mode sizing)
//	        [-crash-shard K -crash-at D -crash-down D]
//	        [-fleet -peers 3 -replicas 2]           (replicated fleet, machine kill mid-run)
//
// The run prints a throughput/latency table and writes no file; it is a
// demonstration and a smoke, not the instrument (bench/ measures). Every
// run ends with a verification sweep — each key read back and compared
// byte for byte with what was written — and exits nonzero on any loss.
//
// -crash-shard K crashes shard K at -crash-at into the measured run
// and warm-reboots it -crash-down later, demonstrating crash-under-
// load recovery: acknowledged writes survive, the other shards never
// stall, and the table counts how many requests the retry loop
// absorbed. A crash or warm reboot the server refuses fails the run.
//
// -fleet runs the load against an in-process replicated fleet
// (internal/fleet) instead of a single server: -peers nodes, each
// shard on -replicas of them, a coordinator ticking in the background.
// At -crash-at the primary of shard 0 is killed outright — the machine,
// not just its OS — and revived -crash-down later. This is
// machine-loss-under-live-load: the promotion, the client redirects,
// and the snapshot repair all happen while the load is running.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"rio"
	"rio/internal/fleet"
	"rio/internal/server"
	"rio/internal/sim"
	"rio/internal/wire"
	"rio/internal/workload"
)

type loadConfig struct {
	Net      string
	Addr     string
	Shards   int
	Clients  int
	Pipeline int
	Duration time.Duration
	Writes   float64
	Keys     int
	Size     int
	Skew     float64
	Seed     uint64
	Policy   string
	MemMB    int
	DiskMB   int
	Queue    int

	CrashShard int
	CrashAt    time.Duration
	CrashDown  time.Duration

	Fleet    bool
	Peers    int
	Replicas int
}

// validate refuses what no run can honour, before anything is populated.
func (cfg loadConfig) validate() error {
	switch {
	case cfg.Writes < 0 || cfg.Writes > 1:
		return fmt.Errorf("-writes must be in [0,1]")
	case cfg.Net != "tcp" && cfg.Net != "memory":
		return fmt.Errorf("unknown -net %q (want tcp or memory)", cfg.Net)
	case cfg.Pipeline < 1:
		return fmt.Errorf("-pipeline must be >= 1")
	case !cfg.Fleet && cfg.Net == "memory" && cfg.CrashShard >= cfg.Shards:
		return fmt.Errorf("-crash-shard %d: the server has shards 0..%d", cfg.CrashShard, cfg.Shards-1)
	}
	return nil
}

// runResult is what one run did, merged over its workers.
type runResult struct {
	Wall        time.Duration
	Ops         uint64
	Bytes       uint64
	Errors      uint64 // responses with a non-retryable failure status
	Unreachable uint64 // requests the transport gave up on
	Exhausted   uint64 // responses still retryable after the stream's whole retry budget
	Retries     uint64
	Redirects   uint64
	Verified    int // keys the end-of-run sweep read back byte-equal
	Lost        int // keys it did not

	hist server.Histogram
}

func main() { os.Exit(run()) }

func run() int {
	var cfg loadConfig
	flag.StringVar(&cfg.Net, "net", "tcp", "transport: tcp or memory (in-process server)")
	flag.StringVar(&cfg.Addr, "addr", "localhost:7979", "riod address (tcp mode)")
	flag.IntVar(&cfg.Clients, "clients", 8, "concurrent client connections")
	flag.IntVar(&cfg.Pipeline, "pipeline", 1, "request streams in flight per connection (1 = closed loop)")
	flag.DurationVar(&cfg.Duration, "duration", 10*time.Second, "measured run length")
	flag.Float64Var(&cfg.Writes, "writes", 0.5, "write fraction of the op mix [0,1]")
	flag.IntVar(&cfg.Keys, "keys", 900, "distinct keys (flat files; each shard holds at most 1024 inodes)")
	flag.IntVar(&cfg.Size, "size", 8192, "bytes per write")
	flag.Float64Var(&cfg.Skew, "skew", 0, "key-space skew exponent (0 = uniform; 1 ≈ zipf)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "load seed (per-client streams derived via sim.Mix)")
	flag.IntVar(&cfg.Shards, "shards", 4, "shards (memory mode)")
	flag.StringVar(&cfg.Policy, "policy", "rio", "file-system policy (memory mode)")
	flag.IntVar(&cfg.MemMB, "mem", 16, "memory per shard, MB (memory mode)")
	flag.IntVar(&cfg.DiskMB, "disk", 32, "disk per shard, MB (memory mode)")
	flag.IntVar(&cfg.Queue, "queue", 128, "per-shard queue depth (memory mode)")
	flag.IntVar(&cfg.CrashShard, "crash-shard", -1, "crash this shard mid-run (-1 = no crash)")
	flag.DurationVar(&cfg.CrashAt, "crash-at", 2*time.Second, "when to crash, measured from run start")
	flag.DurationVar(&cfg.CrashDown, "crash-down", 500*time.Millisecond, "outage length before the warm reboot")
	flag.BoolVar(&cfg.Fleet, "fleet", false, "load an in-process replicated fleet; kill shard 0's primary at -crash-at, revive -crash-down later")
	flag.IntVar(&cfg.Peers, "peers", 3, "fleet mode: node count")
	flag.IntVar(&cfg.Replicas, "replicas", 2, "fleet mode: replicas per shard")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured run")
	flag.Parse()

	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "rioload:", err)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rioload:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rioload:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	mode := runServer
	if cfg.Fleet {
		mode = runFleet
	}
	res, err := mode(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rioload:", err)
		return 1
	}
	if res.Lost != 0 {
		fmt.Fprintln(os.Stderr, "rioload: acknowledged writes lost")
		return 1
	}
	return 0
}

// printRun prints the table row and the sweep's verdict, the two lines
// both modes end with.
func printRun(name string, r *runResult) {
	fmt.Printf("%-20s %9d ops  %9.0f ops/s  %7.1f MB/s  errors %d  unreachable %d  retries %d  exhausted %d  p50 %.0fµs  p95 %.0fµs  p99 %.0fµs\n",
		name, r.Ops, float64(r.Ops)/r.Wall.Seconds(), float64(r.Bytes)/1e6/r.Wall.Seconds(),
		r.Errors, r.Unreachable, r.Retries, r.Exhausted,
		r.hist.Quantile(0.50), r.hist.Quantile(0.95), r.hist.Quantile(0.99))
	fmt.Printf("verification: %d keys byte-equal, %d lost\n", r.Verified, r.Lost)
}

// runServer loads one riod — in-process or over TCP — and, with
// -crash-shard, crashes and warm-reboots a shard under the load.
func runServer(cfg loadConfig) (*runResult, error) {
	var srv *server.Server
	if cfg.Net == "memory" {
		var err error
		srv, err = server.New(server.Config{
			Shards: cfg.Shards, QueueDepth: cfg.Queue,
			Policy: rio.Policy(cfg.Policy), Seed: cfg.Seed,
			MemoryMB: cfg.MemMB, DiskMB: cfg.DiskMB,
		})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
	}
	// A TCP connection is a MuxClient, which multiplexes the -pipeline
	// streams that share it; MemClient is already safe to share.
	dial := func() (server.Client, error) {
		if srv != nil {
			return server.MemClient{S: srv}, nil
		}
		return server.DialMux(cfg.Addr)
	}
	conns := make([]server.Client, cfg.Clients)
	for c := range conns {
		cl, err := dial()
		if err != nil {
			return nil, fmt.Errorf("dial connection %d: %w", c, err)
		}
		defer cl.Close()
		conns[c] = cl
	}
	// Stream w is one of the cfg.Pipeline that share connection
	// w/cfg.Pipeline, each behind its own RetryClient (whose stats are
	// not synchronized) with its own backoff seed, so streams stalled on
	// one shard do not retry in lockstep.
	open := func(w int) stream {
		pol := server.DefaultRetryPolicy()
		pol.Seed = sim.Mix(cfg.Seed, uint64(w))
		return &server.RetryClient{C: conns[w/cfg.Pipeline], Pol: pol}
	}
	var fault func(start time.Time) error
	if cfg.CrashShard >= 0 {
		fault = func(start time.Time) error {
			cl, err := dial()
			if err != nil {
				return fmt.Errorf("crash controller: %w", err)
			}
			defer cl.Close()
			time.Sleep(time.Until(start.Add(cfg.CrashAt)))
			if err := control(cl, wire.OpCrash, cfg.CrashShard); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "rioload: crashed shard %d at +%v\n", cfg.CrashShard, cfg.CrashAt)
			time.Sleep(cfg.CrashDown)
			if err := control(cl, wire.OpWarmboot, cfg.CrashShard); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "rioload: warm-rebooted shard %d after %v down\n", cfg.CrashShard, cfg.CrashDown)
			return nil
		}
	}

	ks := newKeySet(cfg)
	res, err := load(cfg, ks, open, fault)
	if err != nil {
		return nil, err
	}
	verify(open(0), ks, res)
	printRun(fmt.Sprintf("run (%d shard)", cfg.Shards), res)
	if srv != nil {
		m := srv.Metrics()
		fmt.Println("\nper-shard server metrics:")
		fmt.Print(m.Table())
		fmt.Printf("aggregate avg_batch: %.2f requests per drain (pipeline depth %d)\n", m.AvgBatch, cfg.Pipeline)
	}
	return res, nil
}

// control sends one crash or warmboot op and turns anything but OK into
// an error: a fault that did not happen must not pass for one survived.
func control(cl server.Client, op wire.Op, shard int) error {
	resp, err := cl.Do(&wire.Request{ID: 1, Op: op, Shard: int32(shard)})
	if err != nil {
		return fmt.Errorf("%v shard %d: %w", op, shard, err)
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("%v shard %d: %v %s", op, shard, resp.Status, resp.Msg)
	}
	return nil
}

// runFleet loads an in-process replicated fleet while a coordinator
// goroutine ticks and the fault kills, then revives, shard 0's primary.
func runFleet(cfg loadConfig) (*runResult, error) {
	f, err := fleet.New(fleet.Config{
		Nodes: cfg.Peers, Replicas: cfg.Replicas, Shards: cfg.Shards, Seed: cfg.Seed,
		Policy: rio.Policy(cfg.Policy), MemoryMB: cfg.MemMB, DiskMB: cfg.DiskMB,
	})
	if err != nil {
		return nil, err
	}
	// A fleet client routes for itself and is not safe to share, so
	// every stream is its own client and -pipeline only multiplies them.
	open := func(int) stream {
		return f.Client(func() { time.Sleep(time.Millisecond) })
	}

	// Coordinator heartbeat loop: the fleet's failure detector under
	// live load.
	const tick = 20 * time.Millisecond
	stopTick := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		tk := time.NewTicker(tick)
		defer tk.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-tk.C:
				f.Tick()
			}
		}
	}()

	victim := f.Table().Routes[0].Primary
	kill := func(start time.Time) error {
		time.Sleep(time.Until(start.Add(cfg.CrashAt)))
		f.Kill(victim)
		fmt.Fprintf(os.Stderr, "rioload: killed %s at +%v\n", victim, cfg.CrashAt)
		time.Sleep(cfg.CrashDown)
		f.Revive(victim)
		fmt.Fprintf(os.Stderr, "rioload: revived %s after %v down\n", victim, cfg.CrashDown)
		return nil
	}

	ks := newKeySet(cfg)
	res, err := load(cfg, ks, open, kill)
	close(stopTick)
	tickWG.Wait()
	if err != nil {
		return nil, err
	}
	// Let the coordinator finish what the run left half done (the
	// revived machine's snapshot repair) before the sweep judges it.
	for i := 0; i < 8; i++ {
		f.Tick()
	}
	verify(open(0), ks, res)
	printRun(fmt.Sprintf("fleet (%d nodes xR%d)", cfg.Peers, cfg.Replicas), res)
	m, nm := f.Metrics(), f.NodeMetrics()
	fmt.Printf("\nfleet: killed %s mid-run; promotions %d, reconfigs %d, repairs %d, snapshots %d\n",
		victim, m.Promotions, m.Reconfigs, m.Repairs, nm.SnapshotsSent)
	fmt.Printf("replication: sent %d, applied %d, replays %d, fenced %d; client redirects %d\n",
		nm.ReplSent, nm.ReplApplied, nm.Replays, nm.Fenced, res.Redirects)
	return res, nil
}

// stream is one worker's request path: a client with its retry
// discipline applied (*server.RetryClient, *fleet.Client). Neither is
// safe for concurrent use, so every worker opens its own.
type stream interface {
	Do(*wire.Request) (*wire.Response, error)
}

// keySet is what a run writes and reads: flat files, one payload.
type keySet struct {
	keys    []string
	cdf     workload.KeyCDF
	payload []byte
}

func newKeySet(cfg loadConfig) *keySet {
	ks := &keySet{
		keys:    make([]string, cfg.Keys),
		cdf:     workload.NewKeyCDF(cfg.Keys, cfg.Skew),
		payload: make([]byte, cfg.Size),
	}
	for i := range ks.keys {
		ks.keys[i] = fmt.Sprintf("/bench-k%05d", i)
	}
	for i := range ks.payload {
		ks.payload[i] = byte(i)
	}
	return ks
}

// load populates every key, then runs the measured phase: cfg.Clients ×
// cfg.Pipeline closed-loop workers, each on its own stream, until the
// deadline, while fault (if any) does its damage. It returns the
// workers' merged result, or the fault's error: a run whose fault did
// not happen demonstrated nothing.
func load(cfg loadConfig, ks *keySet, open func(w int) stream, fault func(start time.Time) error) (*runResult, error) {
	if err := populate(cfg, ks, open); err != nil {
		return nil, err
	}
	results := make([]runResult, cfg.Clients*cfg.Pipeline)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(cfg, open(w), w, ks, deadline, &results[w])
		}()
	}
	var faultErr error
	if fault != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			faultErr = fault(start)
		}()
	}
	wg.Wait()
	if faultErr != nil {
		return nil, faultErr
	}

	merged := &runResult{Wall: time.Since(start)}
	for w := range results {
		r := &results[w]
		merged.Ops += r.Ops
		merged.Bytes += r.Bytes
		merged.Errors += r.Errors
		merged.Unreachable += r.Unreachable
		merged.Exhausted += r.Exhausted
		merged.Retries += r.Retries
		merged.Redirects += r.Redirects
		merged.hist.Merge(&r.hist)
	}
	return merged, nil
}

// populate writes every key once, split across one stream per
// connection, so measured reads mostly hit and the sweep has a known
// acknowledged value for the whole key space.
func populate(cfg loadConfig, ks *keySet, open func(w int) stream) error {
	var wg sync.WaitGroup
	errs := make([]error, cfg.Clients)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := open(c * cfg.Pipeline)
			for i := c; i < len(ks.keys); i += cfg.Clients {
				resp, err := s.Do(&wire.Request{ID: uint64(i), Op: wire.OpWrite,
					Shard: -1, Path: ks.keys[i], Data: ks.payload})
				if err != nil {
					errs[c] = fmt.Errorf("populate %s: %w", ks.keys[i], err)
					return
				}
				if resp.Status != wire.StatusOK {
					errs[c] = fmt.Errorf("populate %s: %v %s", ks.keys[i], resp.Status, resp.Msg)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// worker is one load stream: a closed loop of reads and overwrites on
// skew-picked keys until the deadline.
func worker(cfg loadConfig, s stream, idx int, ks *keySet, deadline time.Time, out *runResult) {
	rng := sim.NewRand(sim.Mix(cfg.Seed, uint64(idx), 0x10ad))
	id := uint64(idx) << 32
	for time.Now().Before(deadline) {
		id++
		req := &wire.Request{ID: id, Op: wire.OpRead, Shard: -1, Path: ks.keys[ks.cdf.Pick(rng)]}
		if rng.Float64() < cfg.Writes {
			req.Op = wire.OpWrite
			req.Data = ks.payload
		}
		begin := time.Now()
		resp, err := s.Do(req)
		out.hist.Observe(time.Since(begin))
		out.Ops++
		if err != nil {
			// The stream's whole retry budget found nobody to talk to: a
			// fleet's kill window, or a connection that is gone for good
			// and fails at once — so do not spin on it.
			out.Unreachable++
			time.Sleep(time.Millisecond)
			continue
		}
		out.Bytes += uint64(len(req.Data) + len(resp.Data))
		switch {
		case resp.Status.Retryable():
			out.Exhausted++
		case resp.Status != wire.StatusOK:
			out.Errors++
		}
	}
	switch c := s.(type) {
	case *server.RetryClient:
		out.Retries = c.Stats.Retries
	case *fleet.Client:
		out.Retries, out.Redirects = c.Stats.Retries, c.Stats.Redirects
	}
}

// verify is the end-of-run sweep: every key was acknowledged at
// populate, and every later write reuses the payload, so each must read
// back byte-equal whatever crashed in between.
func verify(s stream, ks *keySet, res *runResult) {
	for _, key := range ks.keys {
		resp, err := s.Do(&wire.Request{Op: wire.OpRead, Shard: -1, Path: key})
		if err == nil && resp.Status == wire.StatusOK && bytes.Equal(resp.Data, ks.payload) {
			res.Verified++
		} else {
			res.Lost++
		}
	}
}
