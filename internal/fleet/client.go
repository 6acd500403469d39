package fleet

import (
	"fmt"
	"time"

	"rio/internal/server"
	"rio/internal/txn"
	"rio/internal/wire"
)

// ClientStats counts what the routing loop absorbed.
type ClientStats struct {
	Redirects uint64 // StatusMoved hops followed
	Retries   uint64 // re-sends after unreachable / StatusAgain
	Refreshes uint64 // routing-table refreshes from the coordinator
}

// Client routes requests to shard primaries and rides out fleet churn:
// StatusMoved redirects are followed (and remembered), unreachable
// primaries and StatusAgain trigger a routing refresh and a bounded
// retry. The zero value is unusable; Fleet.Client builds one.
//
// Not safe for concurrent use — one client per load goroutine, like the
// server-side TCPClient.
type Client struct {
	tr      Transport
	shards  int
	view    map[int]string // shard -> primary address
	refresh func() *Table  // coordinator's current table
	sleep   func(time.Duration)

	// MaxAttempts bounds the whole retry loop per Do (default 16).
	MaxAttempts int
	// RetryDelay spaces attempts when sleep is set.
	RetryDelay time.Duration

	Stats ClientStats
}

// Client returns a routing client bootstrapped from the fleet's current
// table. sleep may be nil (no backoff — the in-process campaign wants
// attempt-bounded, wall-clock-free retries).
func (f *Fleet) Client(sleep func(time.Duration)) *Client {
	c := &Client{
		tr:          f.tr,
		shards:      f.cfg.Shards,
		view:        make(map[int]string),
		refresh:     f.Table,
		sleep:       sleep,
		MaxAttempts: 16,
	}
	c.adopt(f.Table())
	return c
}

func (c *Client) adopt(t *Table) {
	for _, r := range t.Routes {
		c.view[r.Shard] = r.Primary
	}
}

// Do routes one request and rides out redirects, dead primaries, and
// reconfiguration windows, up to MaxAttempts sends. The response a
// caller finally sees is either terminal or the last retryable status
// when the budget ran out — mirroring server.RetryClient's contract.
func (c *Client) Do(req *wire.Request) (*wire.Response, error) {
	p, ok := txn.CanonicalPath(req.Path)
	if !ok {
		return nil, fmt.Errorf("fleet: malformed path %q", req.Path)
	}
	// Resolve append offsets here, once, before the first send, and pin
	// the result into the caller's request. From then on every retry —
	// this loop's or a caller re-submitting the same request — rewrites
	// the same absolute offset instead of appending again, which is what
	// makes a degraded write ("applied but unacked", StatusAgain) safe
	// to re-send. Fleet nodes refuse Offset < 0 outright for the same
	// reason. The price: two clients appending to one path concurrently
	// may resolve the same offset and overwrite rather than interleave.
	if req.Op == wire.OpWrite && req.Offset < 0 {
		st, err := c.Do(&wire.Request{Op: wire.OpStat, Shard: req.Shard, Path: p})
		if err != nil {
			return nil, err
		}
		switch st.Status {
		case wire.StatusOK:
			req.Offset = st.Size
		case wire.StatusNotFound:
			req.Offset = 0
		default:
			return st, nil
		}
	}
	shard := server.ShardOf(p, c.shards)
	var last *wire.Response
	var lastErr error
	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.Stats.Retries++
			if c.sleep != nil && c.RetryDelay > 0 {
				c.sleep(c.RetryDelay)
			}
		}
		addr := c.view[shard]
		if addr == "" {
			c.Stats.Refreshes++
			c.adopt(c.refresh())
			addr = c.view[shard]
			if addr == "" {
				lastErr = fmt.Errorf("fleet: no route for shard %d", shard)
				continue
			}
		}
		resp, err := c.tr.Send(ClientName, addr, req)
		if err != nil {
			// The primary's machine is gone or the link is cut. Ask the
			// coordinator where the shard lives now.
			lastErr = err
			c.Stats.Refreshes++
			c.adopt(c.refresh())
			continue
		}
		last, lastErr = resp, nil
		switch resp.Status {
		case wire.StatusMoved:
			c.Stats.Redirects++
			if resp.Msg != "" {
				c.view[shard] = resp.Msg
			} else {
				c.Stats.Refreshes++
				c.adopt(c.refresh())
			}
		case wire.StatusAgain:
			// Replication degraded or a replica mid-warmboot; the
			// coordinator's next tick reconfigures. Refresh and retry.
			c.Stats.Refreshes++
			c.adopt(c.refresh())
		default:
			return resp, nil
		}
	}
	if last != nil {
		return last, nil
	}
	return nil, lastErr
}
