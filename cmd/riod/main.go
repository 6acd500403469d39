// Command riod serves Rio file caches over a wire protocol: S
// independent simulated Rio machines (shards), each on its own
// goroutine, behind bounded per-shard queues with batch draining.
// Requests route to a shard by path hash; writes are durable the
// moment they are acknowledged (Rio's guarantee), and a shard can be
// administratively crashed and warm-rebooted under live load while the
// rest keep serving.
//
// Usage:
//
//	riod [-addr :7979] [-shards 4] [-policy rio] [-seed 1]
//	     [-queue 128] [-batch 32] [-mem MB] [-disk MB] [-pprof host:port]
//
// -pprof serves net/http/pprof on the given address (loopback
// recommended) for profiling the serving path under live load:
//
//	riod -pprof localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// riod listens until SIGINT/SIGTERM, then drains: queued requests are
// answered, new ones refused, and the per-shard metrics table is printed
// on the way out. It serves and does nothing else: the deterministic
// in-process drills (a serialized transcript across a crash and warm
// reboot, a fleet's machine loss) are tests in internal/server and
// internal/fleet and the specs scenarios/server-hotkey.json and
// scenarios/fleet-machine-loss.json.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"rio"
	"rio/internal/server"
)

func main() {
	addr := flag.String("addr", ":7979", "TCP listen address")
	shards := flag.Int("shards", 4, "independent Rio machines")
	policy := flag.String("policy", "rio", "file-system policy per shard")
	seed := flag.Uint64("seed", 1, "base seed (shard i boots with sim.Mix(seed, i))")
	queue := flag.Int("queue", 128, "per-shard queue depth (full queue answers EAGAIN)")
	batch := flag.Int("batch", 32, "max requests per shard drain cycle")
	memMB := flag.Int("mem", 16, "memory per shard, MB")
	diskMB := flag.Int("disk", 32, "disk per shard, MB")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank
			// import above.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "riod: pprof:", err)
			}
		}()
		fmt.Printf("riod: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	srv, err := server.New(server.Config{
		Shards:     *shards,
		QueueDepth: *queue,
		MaxBatch:   *batch,
		Policy:     rio.Policy(*policy),
		Seed:       *seed,
		MemoryMB:   *memMB,
		DiskMB:     *diskMB,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "riod:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "riod:", err)
		os.Exit(1)
	}
	fmt.Printf("riod: %d shards serving on %s (SIGINT drains and stops)\n",
		srv.NumShards(), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ln.Close()
	}()

	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "riod: serve:", err)
	}
	srv.Close()
	fmt.Println("riod: drained")
	fmt.Print(srv.Metrics().Table())
}
