package fleet

import (
	"fmt"
	"sync"

	"rio/internal/wire"
)

// ErrUnreachable is the transport's typed send failure: the peer's
// machine is dead or the link is partitioned. Callers retry or reroute;
// only the coordinator's own missed heartbeats judge the peer.
var ErrUnreachable = fmt.Errorf("fleet: peer unreachable")

// Coordinator and client participate in the transport under fixed
// names, so a partition plan can isolate a node from the control plane
// (heartbeats stop, promotion triggers) as easily as from its peers.
const (
	CoordName  = "!coord"
	ClientName = "!client"
)

// MemTransport is the in-process fabric: every node in one process,
// sends delivered synchronously by direct call. Machine kills and link
// partitions are flags checked on every send — which makes fault
// injection exact and replayable, the property the campaign gates on.
type MemTransport struct {
	mu     sync.Mutex
	nodes  map[string]*Node
	killed map[string]bool
	cut    map[string]map[string]bool
}

// NewMemTransport returns an empty fabric; nodes attach as they boot.
func NewMemTransport() *MemTransport {
	return &MemTransport{
		nodes:  make(map[string]*Node),
		killed: make(map[string]bool),
		cut:    make(map[string]map[string]bool),
	}
}

// Attach registers a node under its id.
func (t *MemTransport) Attach(n *Node) {
	t.mu.Lock()
	t.nodes[n.ID()] = n
	t.mu.Unlock()
}

// Kill marks a node's machine dead: every send to it fails until
// Revive. The node's in-memory state is the caller's to discard — a
// machine loss loses the protected cache too, which is the entire
// reason the fleet exists.
func (t *MemTransport) Kill(node string) {
	t.mu.Lock()
	t.killed[node] = true
	t.mu.Unlock()
}

// Revive clears a kill.
func (t *MemTransport) Revive(node string) {
	t.mu.Lock()
	delete(t.killed, node)
	t.mu.Unlock()
}

// Cut severs the link between a and b in both directions.
func (t *MemTransport) Cut(a, b string) {
	t.mu.Lock()
	t.cutLocked(a, b)
	t.mu.Unlock()
}

func (t *MemTransport) cutLocked(a, b string) {
	if t.cut[a] == nil {
		t.cut[a] = make(map[string]bool)
	}
	if t.cut[b] == nil {
		t.cut[b] = make(map[string]bool)
	}
	t.cut[a][b] = true
	t.cut[b][a] = true
}

// Isolate cuts node off from every other participant, the coordinator
// and clients included — a full network partition of one machine.
func (t *MemTransport) Isolate(node string) {
	t.mu.Lock()
	//riolint:ordered cutLocked inserts the pair into a set; the cut set is the same in any order
	for id := range t.nodes {
		if id != node {
			t.cutLocked(node, id)
		}
	}
	t.cutLocked(node, CoordName)
	t.cutLocked(node, ClientName)
	t.mu.Unlock()
}

// Rejoin heals every link cut by Isolate (and any pairwise cuts
// touching node).
func (t *MemTransport) Rejoin(node string) {
	t.mu.Lock()
	for other := range t.cut[node] {
		delete(t.cut[other], node)
	}
	delete(t.cut, node)
	t.mu.Unlock()
}

// Send carries one request from one fleet participant to another and
// returns the response. The target serves the request synchronously on
// the caller's goroutine. "from" matters: partitions are between pairs
// of participants, and a link that is down fails the send with
// ErrUnreachable — the caller's bounded retry and the coordinator's
// failure detection are built on exactly that signal. Reachability is
// evaluated per send, so a kill or cut lands between any two requests
// exactly.
func (t *MemTransport) Send(from, to string, req *wire.Request) (*wire.Response, error) {
	t.mu.Lock()
	n, ok := t.nodes[to]
	dead := t.killed[to] || t.killed[from]
	cut := t.cut[from][to]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: no node %q", ErrUnreachable, to)
	}
	if dead || cut {
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	return n.Serve(from, req), nil
}
