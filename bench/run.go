package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"rio/internal/server"
	"rio/internal/sim"
)

// instance is one workload at one seed: the streams the drivers send and
// the preload that must be in place first. Building one touches no
// server; the live run and each rung of the traced run build their own,
// so all of them see identical request streams.
type instance struct {
	shards  int
	preload []preloadStep
	// streams are the measured request streams, one per connection.
	streams []script
	window  int
	// bystander is recover-warm's paced second connection. It is load on
	// the shards that stay up, not part of the measured stream.
	bystander script
}

type preloadStep struct {
	sc script
	n  int
}

// Workload shapes. The data cache of a 16 MB shard is 682 frames:
// kvKeys 8 KB values spread over four shards are 225 pages per shard and
// fit; on one shard they are 900 pages, 1.32x the cache.
const (
	kvKeys        = 900
	kvValue       = 8192
	serveWindow   = 8
	metaWindow    = 1
	bystanderKeys = 675
	bystanderRate = time.Millisecond // 1000 ops/s
	setupRepeats  = 15
	// tailQuantile is lat_tail_us on the cache-resident serve workloads.
	// Their p99 (lat_p99_us) is the requests a shared host's scheduler
	// preempted and spread 16-27% between runs of one build; the p90 is
	// the steadier tail to read from paired runs.
	tailQuantile = 0.9
	warmUp       = 3 * time.Second
)

func newInstance(workload string, seed uint64) (*instance, error) {
	c := conns()
	rw := func(shards, readPct int) *instance {
		kv := newKVTable(seed, kvKeys, kvValue, nil)
		in := &instance{shards: shards, window: serveWindow,
			preload: []preloadStep{{&seqScript{kv: kv}, kvKeys}}}
		for i := 0; i < c; i++ {
			var own []int
			for k := i; k < kvKeys; k += c {
				own = append(own, k)
			}
			in.streams = append(in.streams,
				newRWScript(kv, own, sim.Mix(seed, tagConn, uint64(i)), readPct, serveWindow))
		}
		return in
	}
	switch workload {
	case wlRW8K:
		return rw(4, 50), nil
	case wlSpill:
		return rw(1, 90), nil
	case wlMeta:
		in := &instance{shards: 4, window: metaWindow}
		for i := 0; i < c; i++ {
			ms := newMetaScript(seed, 4, i, c)
			if i == 0 {
				in.preload = []preloadStep{{&listScript{ops: ms.preload()}, metaDeep}}
			}
			in.streams = append(in.streams, ms)
		}
		return in, nil
	case wlRecover:
		const shards, victim = 4, 0
		vkv := newKVTable(seed, dirtyLarge, kvValue,
			func(p string) bool { return shardOf(p, shards) == victim })
		bkv := newKVTable(seed, bystanderKeys, kvValue,
			func(p string) bool { return shardOf(p, shards) != victim })
		all := make([]int, bystanderKeys)
		for k := range all {
			all[k] = k
		}
		return &instance{shards: shards, window: serveWindow,
			preload:   []preloadStep{{&seqScript{kv: vkv}, dirtyLarge}, {&seqScript{kv: bkv}, bystanderKeys}},
			streams:   []script{&recoverScript{kv: vkv, victim: victim}},
			bystander: newRWScript(bkv, all, sim.Mix(seed, tagBystander), 50, 1)}, nil
	}
	return nil, fmt.Errorf("bench: no request streams for workload %q", workload)
}

// streamHash digests the first hashOps requests of each of a workload's
// streams, in connection order. It generates them afresh rather than
// hashing what a run sent, so it covers the same requests however short
// the run; the generators depend on the seed alone, so they are the same
// requests.
func streamHash(workload string, seed uint64) (uint64, error) {
	in, err := newInstance(workload, seed)
	if err != nil {
		return 0, err
	}
	streams := in.streams
	if in.bystander != nil {
		streams = append(streams, in.bystander)
	}
	parts := make([]uint64, len(streams))
	for i, sc := range streams {
		d := streamDigest(14695981039346656037)
		for n := 0; n < hashOps; n++ {
			o := sc.next()
			d.absorb(&o)
		}
		parts[i] = uint64(d)
	}
	return sim.Mix(parts...), nil
}

// setUp boots a server and preloads it over one connection. It returns
// the time from boot to the last preload ack.
func setUp(in *instance, seed uint64) (*bed, time.Duration, error) {
	start := time.Now()
	b, err := newBed(in.shards, seed)
	if err != nil {
		return nil, 0, err
	}
	cl, err := b.dial()
	if err != nil {
		b.close()
		return nil, 0, err
	}
	var phase atomic.Int32
	phase.Store(phaseMeasure)
	rec := &recorder{phase: &phase, t0: start}
	for _, p := range in.preload {
		if err = pump(cl, p.sc, pumpConfig{window: serveWindow, limit: p.n}, rec); err != nil {
			break
		}
	}
	took := time.Since(start)
	cl.c.Close()
	if err == nil && rec.failed > 0 {
		err = fmt.Errorf("bench: %d of %d preload requests failed", rec.failed, rec.attempted)
	}
	if err != nil {
		b.close()
		return nil, 0, err
	}
	return b, took, nil
}

// live is what one measured run of a served workload yields.
type live struct {
	main, side recorder // measured streams merged; the bystander
	u0, u1     usage
	m0, m1     server.Metrics
	setupS     []float64
	hash       uint64
}

// runLive sets the workload up setupRepeats times (keeping the last),
// drives it through warm-up and the measured phase, and tears it down.
func runLive(workload string, seed uint64, warm, measure time.Duration, setups int) (*live, error) {
	res := &live{}
	var b *bed
	var in *instance
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC() // the next server reuses the last one's memory instead of raising the peak
		}
		var err error
		if in, err = newInstance(workload, seed); err != nil {
			return nil, err
		}
		var took time.Duration
		if b, took, err = setUp(in, seed); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, took.Seconds())
	}
	defer b.close()
	runtime.GC()
	resetPeakRSS()

	var phase atomic.Int32
	type driver struct {
		rec *recorder
		cl  *client
		run func(*client, *recorder) error
	}
	var drivers []*driver
	add := func(run func(*client, *recorder) error) error {
		cl, err := b.dial()
		if err != nil {
			return err
		}
		drivers = append(drivers, &driver{rec: &recorder{phase: &phase}, cl: cl, run: run})
		return nil
	}
	defer func() {
		for _, d := range drivers {
			d.cl.c.Close()
		}
	}()
	for _, sc := range in.streams {
		sc := sc
		err := add(func(cl *client, rec *recorder) error {
			return pump(cl, sc, pumpConfig{window: in.window}, rec)
		})
		if err != nil {
			return nil, err
		}
	}
	if in.bystander != nil {
		err := add(func(cl *client, rec *recorder) error {
			return pump(cl, in.bystander, pumpConfig{window: 1, interval: bystanderRate}, rec)
		})
		if err != nil {
			return nil, err
		}
	}

	errs := make(chan error, len(drivers))
	for _, d := range drivers {
		d := d
		go func() { errs <- d.run(d.cl, d.rec) }()
	}
	time.Sleep(warm)
	res.u0, res.m0 = snapUsage(), b.srv.Metrics()
	for _, d := range drivers {
		d.rec.t0 = res.u0.at
	}
	phase.Store(phaseMeasure)
	time.Sleep(measure)
	phase.Store(phaseStop)
	res.u1, res.m1 = snapUsage(), b.srv.Metrics()
	var firstErr error
	for range drivers {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
			// A dead stream must not leave the others waiting on a server
			// that is still fine: they stop at the phase flip above.
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	for i, d := range drivers {
		if in.bystander != nil && i == len(drivers)-1 {
			res.side = *d.rec
			continue
		}
		res.main.merge(d.rec)
	}
	var err error
	if res.hash, err = streamHash(workload, seed); err != nil {
		return nil, err
	}
	return res, nil
}

// serverCounters turns two Metrics snapshots into the queue and writev
// figures of the phase between them.
func serverCounters(m0, m1 server.Metrics) map[string]float64 {
	var batches, batchSum, queueSum, yields, rejected, retried float64
	var p99 float64
	for i, s1 := range m1.Shards {
		var s0 server.ShardMetrics
		if i < len(m0.Shards) {
			s0 = m0.Shards[i]
		}
		batches += float64(s1.Batches - s0.Batches)
		batchSum += s1.AvgBatch*float64(s1.Batches) - s0.AvgBatch*float64(s0.Batches)
		queueSum += s1.AvgQueue*float64(s1.Batches) - s0.AvgQueue*float64(s0.Batches)
		yields += float64(s1.Yields - s0.Yields)
		rejected += float64(s1.Rejected - s0.Rejected)
		retried += float64(s1.Retried - s0.Retried)
		if s1.P99us > p99 {
			p99 = s1.P99us
		}
	}
	out := map[string]float64{
		"server.rejected":     rejected,
		"server.retried":      retried,
		"server.shard_p99_us": p99,
	}
	if batches > 0 {
		out["server.avg_batch"] = batchSum / batches
		out["server.avg_queue"] = queueSum / batches
	}
	if ops := float64(m1.Ops - m0.Ops); ops > 0 {
		out["server.yields_per_kop"] = 1000 * yields / ops
	}
	if m1.Writev != nil {
		calls, frames := m1.Writev.Calls, m1.Writev.Frames
		if m0.Writev != nil {
			calls -= m0.Writev.Calls
			frames -= m0.Writev.Frames
		}
		if calls > 0 {
			out["server.writev_avg_frames"] = float64(frames) / float64(calls)
		}
	}
	return out
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t / float64(len(vs))
}

// median returns the median of vs (sorting it), 0 when empty.
func median(vs []float64) float64 { return quantileOf(vs, 0.5) }

// outcome is a run's verdict and numbers, before they are shaped into
// the result file.
type outcome struct {
	attempted, failed, lost uint64
	hash                    uint64
	e2e, extra              map[string]float64
	samples                 map[string]uint64
	counters                map[string]float64 // server.* for the traced run
}

// liveOutcome computes the end-to-end metrics of a served workload.
func liveOutcome(workload string, l *live, measure time.Duration) *outcome {
	m := &l.main
	out := &outcome{
		attempted: m.attempted + l.side.attempted,
		failed:    m.failed + l.side.failed,
		lost:      m.lost,
		hash:      l.hash,
		e2e:       map[string]float64{},
		extra:     map[string]float64{},
		samples:   map[string]uint64{},
		counters:  serverCounters(l.m0, l.m1),
	}
	phaseS := l.u1.at.Sub(l.u0.at).Seconds()
	var ops float64 // units of work in the phase
	if workload == wlRecover {
		if span := m.lastEnd.Sub(m.firstStart).Seconds(); m.cycles > 0 && span > 0 {
			out.extra["ops_per_s"] = float64(m.cycles) / span
			ops = out.extra["ops_per_s"] * phaseS
		}
		large := m.recoverUS[1]
		out.samples["recover_cycles_d512"] = uint64(len(large))
		out.samples["recover_cycles_d32"] = uint64(len(m.recoverUS[0]))
		// A recovery is 20 ms of one core's work, and the shared host runs
		// a core at either of two speeds a factor of 1.5 apart, for stretches
		// longer than that. So the cycles of a run pile up at two places, how
		// many at which is the host's weather, and the median and the p90
		// jump from one pile to the other between runs of one build. The
		// lower quartile stays on the undisturbed pile; the mean of the
		// slowest quarter moves with the weather but does not jump.
		out.e2e["lat_p50_us"] = quantileOf(large, 0.25)
		if len(large) >= 4 {
			out.extra["lat_tail_us"] = mean(large[len(large)-len(large)/4:]) // quantileOf sorted it
		}
		out.extra["recover_ms_p50"] = quantileOf(large, 0.5) / 1e3
		out.extra["recover_ms_p90"] = quantileOf(large, 0.9) / 1e3
		out.extra["recover_ms_p50_d32"] = median(m.recoverUS[0]) / 1e3
		out.counters["server.bystander_p99_us"] = l.side.all.us(0.99)
	} else {
		ops = float64(m.attempted)
		full := int(measure / time.Second)
		var perS []float64
		for i, c := range m.windows {
			if i < full {
				perS = append(perS, float64(c))
			}
		}
		if len(perS) > 0 {
			out.extra["ops_per_s"] = median(perS)
		} else if phaseS > 0 {
			out.extra["ops_per_s"] = float64(m.all.n) / phaseS
		}
		out.e2e["lat_p50_us"] = m.all.us(0.5)
		out.extra["lat_p99_us"] = m.all.us(0.99)
		out.extra["lat_tail_us"] = m.all.us(tailQuantile)
		if workload == wlSpill {
			// The p99 here is a request that waited for the disk model,
			// which is the workload's point and does not move with the
			// host; the p90 sits among the cache misses and does.
			out.extra["lat_tail_us"] = out.extra["lat_p99_us"]
		}
	}
	out.samples["latency"] = m.all.n
	out.extra["read_p50_us"] = m.read.us(0.5)
	out.extra["write_p50_us"] = m.write.us(0.5)
	if l.side.late.n > 0 {
		out.extra["gen_late_p99_us"] = l.side.late.us(0.99)
		out.extra["late_sends"] = float64(l.side.tooLate)
	}
	if ops > 0 {
		out.extra["cpu_us_per_op"] = float64(l.u1.cpu-l.u0.cpu) / 1e3 / ops
		out.e2e["allocs_per_op"] = float64(l.u1.mallocs-l.u0.mallocs) / ops
		out.e2e["alloc_bytes_per_op"] = float64(l.u1.bytes-l.u0.bytes) / ops
	}
	out.e2e["setup_s"] = median(l.setupS)
	out.e2e["rss_mb"] = peakRSSMB()
	return out
}
