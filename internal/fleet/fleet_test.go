package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"rio/internal/server"
	"rio/internal/wire"
)

func testFleet(t *testing.T, nodes, shards, replicas int) *Fleet {
	t.Helper()
	f, err := New(Config{Nodes: nodes, Shards: shards, Replicas: replicas, Seed: 1996})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustWrite(t *testing.T, c *Client, path string, data []byte) {
	t.Helper()
	resp, err := c.Do(&wire.Request{Op: wire.OpWrite, Shard: -1, Offset: 0, Path: path, Data: data})
	if err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("write %s: %v (%s)", path, resp.Status, resp.Msg)
	}
}

func mustRead(t *testing.T, c *Client, path string, want []byte) {
	t.Helper()
	resp, err := c.Do(&wire.Request{Op: wire.OpRead, Shard: -1, Path: path})
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("read %s: %v (%s)", path, resp.Status, resp.Msg)
	}
	if !bytes.Equal(resp.Data, want) {
		t.Fatalf("read %s: got %d bytes, want %d (content mismatch)", path, len(resp.Data), len(want))
	}
}

// mustWriteKeys acks n keys under dir through c and returns them.
func mustWriteKeys(t *testing.T, c *Client, dir string, n int) map[string][]byte {
	t.Helper()
	acked := map[string][]byte{}
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("%s/k%02d", dir, i)
		acked[p] = fill(48+i, byte(i))
		mustWrite(t, c, p, acked[p])
	}
	return acked
}

// mustReadAll requires every acked key to read back byte-equal.
func mustReadAll(t *testing.T, c *Client, acked map[string][]byte) {
	t.Helper()
	for p, want := range acked {
		mustRead(t, c, p, want)
	}
}

func fill(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

func TestBatchRoundTrip(t *testing.T) {
	b := &Batch{Epoch: 3, Seq: 41, Op: &wire.Request{ID: 1, Op: wire.OpWrite, Shard: -1, Offset: 128, Path: "/a/b", Data: []byte("payload")}}
	frame, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.Seq != 41 || got.Op == nil {
		t.Fatalf("decoded %+v", got)
	}
	if got.Op.Path != "/a/b" || got.Op.Offset != 128 || !bytes.Equal(got.Op.Data, []byte("payload")) {
		t.Fatalf("op mangled: %+v", got.Op)
	}
	// Any flipped byte must fail the checksum (or a structural check) —
	// replication crosses machines and damaged frames must never apply.
	for i := 0; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		if _, err := DecodeBatch(mut); err == nil {
			t.Fatalf("corrupted byte %d decoded without error", i)
		}
	}
	for n := 0; n < len(frame); n++ {
		if _, err := DecodeBatch(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

// A zero-op batch is the read-fence probe: it must round-trip like any
// frame, carrying only (epoch, seq).
func TestFenceFrameRoundTrip(t *testing.T) {
	frame, err := EncodeBatch(&Batch{Epoch: 9, Seq: 1234})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 9 || got.Seq != 1234 || got.Op != nil {
		t.Fatalf("fence frame round trip: %+v", got)
	}
	for i := 0; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		if _, err := DecodeBatch(mut); err == nil {
			t.Fatalf("corrupted fence byte %d decoded without error", i)
		}
	}
}

// A frame op that declares more bytes than wire.MaxData must be refused
// by the protocol-maximum check before any slice is sized from the wire
// — even when the frame's checksum is valid, so this is not corruption
// but a malicious or buggy peer. Regression test for a decoder that
// checked the bytes left but had no maximum.
func TestBatchRejectsOversizedOpLength(t *testing.T) {
	body := binary.BigEndian.AppendUint32(nil, frameMagic)
	body = binary.BigEndian.AppendUint64(body, 3)  // epoch
	body = binary.BigEndian.AppendUint64(body, 41) // seq
	body = binary.BigEndian.AppendUint32(body, 1)  // nops
	body = binary.BigEndian.AppendUint32(body, uint32(wire.MaxData+1))
	h := fnv.New64a()
	h.Write(body)
	frame := binary.BigEndian.AppendUint64(body, h.Sum64())
	_, err := DecodeBatch(frame)
	if err == nil {
		t.Fatal("op declaring more than wire.MaxData bytes decoded without error")
	}
	if !errors.Is(err, wire.ErrTooLong) {
		t.Fatalf("want the protocol-maximum error, got: %v", err)
	}
}

// A frame carries one op at most. One that declares two, each a valid
// request behind a valid checksum, is refused.
func TestBatchRejectsTwoOps(t *testing.T) {
	enc := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpMkdir, Shard: -1, Path: "/dir"})
	body := binary.BigEndian.AppendUint32(nil, frameMagic)
	body = binary.BigEndian.AppendUint64(body, 3)  // epoch
	body = binary.BigEndian.AppendUint64(body, 41) // seq
	body = binary.BigEndian.AppendUint32(body, 2)  // nops
	for i := 0; i < 2; i++ {
		body = binary.BigEndian.AppendUint32(body, uint32(len(enc)))
		body = append(body, enc...)
	}
	h := fnv.New64a()
	h.Write(body)
	if _, err := DecodeBatch(binary.BigEndian.AppendUint64(body, h.Sum64())); err == nil || !strings.Contains(err.Error(), "declares 2 ops") {
		t.Fatalf("two-op frame: %v, want it refused", err)
	}
}

func TestTableAndStatusRoundTrip(t *testing.T) {
	tab := &Table{Routes: []Route{
		{Shard: 0, Epoch: 7, Primary: "node2", Backups: []string{"node0", "node1"}},
		{Shard: 1, Epoch: 1, Primary: "node0", Backups: nil},
	}}
	got, err := DecodeTable(EncodeTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tab) {
		t.Fatalf("table round trip:\n got %+v\nwant %+v", got, tab)
	}
	sts := []ReplicaStatus{
		{Shard: 0, Role: RolePrimary, Epoch: 7, Seq: 99},
		{Shard: 1, Role: RoleBackup, Epoch: 1, Seq: 3},
	}
	gotSts, err := DecodeStatus(EncodeStatus(sts))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSts, sts) {
		t.Fatalf("status round trip:\n got %+v\nwant %+v", gotSts, sts)
	}
}

// Placement must be a pure function of (seed, node set, shard) and must
// move only the lost node's shards when a node disappears.
func TestPlaceDeterministicAndStable(t *testing.T) {
	nodes := []string{"node0", "node1", "node2", "node3"}
	for shard := 0; shard < 16; shard++ {
		a := Place(42, nodes, shard, 2)
		b := Place(42, []string{"node3", "node1", "node0", "node2"}, shard, 2)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shard %d: placement depends on input order: %v vs %v", shard, a, b)
		}
		if a[0] == a[1] {
			t.Fatalf("shard %d: duplicate replica %v", shard, a)
		}
		// Removing a node not in the set must not move the shard.
		for _, gone := range nodes {
			if gone == a[0] || gone == a[1] {
				continue
			}
			var rest []string
			for _, n := range nodes {
				if n != gone {
					rest = append(rest, n)
				}
			}
			c := Place(42, rest, shard, 2)
			if !reflect.DeepEqual(a, c) {
				t.Fatalf("shard %d: removing bystander %s moved placement %v -> %v", shard, gone, a, c)
			}
		}
	}
}

// The basic loop: writes ack, reads see them, and each acked write is
// on every replica (snapshot the backup and check).
func TestFleetWriteReplicates(t *testing.T) {
	f := testFleet(t, 3, 2, 2)
	cl := f.Client(nil)
	for i := 0; i < 8; i++ {
		mustWrite(t, cl, fmt.Sprintf("/data/k%02d", i), fill(100+i, byte(i)))
	}
	for i := 0; i < 8; i++ {
		mustRead(t, cl, fmt.Sprintf("/data/k%02d", i), fill(100+i, byte(i)))
	}
	nm := f.NodeMetrics()
	if nm.ReplSent == 0 || nm.ReplApplied != nm.ReplSent {
		t.Fatalf("replication did not run: %+v", nm)
	}
	replicasAgree(t, f)
}

// replicasAgree fails unless every backup of every route holds exactly
// what its primary holds: the same tree at the same (epoch, seq).
func replicasAgree(t *testing.T, f *Fleet) {
	t.Helper()
	for _, rt := range f.Table().Routes {
		snaps := snapshotsOf(t, f, rt)
		for i, b := range rt.Backups {
			if !bytes.Equal(snaps[i+1], snaps[0]) {
				t.Fatalf("shard %d: backup %s diverged from primary %s", rt.Shard, b, rt.Primary)
			}
		}
	}
}

// Machine loss of a primary: the coordinator notices via missed
// heartbeats, promotes the backup, clients follow the redirect, and
// every previously acked write reads back byte-equal.
func TestFleetSurvivesPrimaryKill(t *testing.T) {
	f := testFleet(t, 3, 2, 2)
	cl := f.Client(nil)
	acked := map[string][]byte{}
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("/pre/k%02d", i)
		acked[p] = fill(64+i, byte(i))
		mustWrite(t, cl, p, acked[p])
	}
	victim := f.Table().Routes[0].Primary
	f.Kill(victim)
	for i := 0; i < 4; i++ { // missThreshold=3 to declare, one more to repair
		f.Tick()
	}
	if got := f.Table().Routes[0].Primary; got == victim {
		t.Fatalf("shard 0 primary still the killed node %s", victim)
	}
	if f.Metrics().Promotions == 0 {
		t.Fatal("no promotion recorded")
	}
	// Every acked write survives the machine loss.
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("/pre/k%02d", i)
		mustRead(t, cl, p, acked[p])
	}
	// And the fleet takes new writes (repair restored R=2 from the spare).
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("/post/k%02d", i)
		mustWrite(t, cl, p, fill(32+i, byte(i)))
		mustRead(t, cl, p, fill(32+i, byte(i)))
	}
	if cl.Stats.Redirects+cl.Stats.Refreshes == 0 {
		t.Fatal("client never rerouted — the kill was invisible?")
	}
}

// A fully partitioned primary is indistinguishable from a dead one
// until the partition heals: promotion happens, and on heal the old
// primary is fenced by the new epoch — its replication frames get
// StatusMoved and it serves only redirects.
func TestFleetPartitionFencesOldPrimary(t *testing.T) {
	f := testFleet(t, 3, 2, 2)
	cl := f.Client(nil)
	mustWrite(t, cl, "/a", fill(50, 1))
	old := f.Table().Routes[0].Primary
	f.Isolate(old)
	for i := 0; i < 4; i++ {
		f.Tick()
	}
	next := f.Table().Routes[0].Primary
	if next == old {
		t.Fatalf("no promotion away from isolated %s", old)
	}
	mustWrite(t, cl, "/b", fill(51, 2))

	f.Rejoin(old)
	// The old primary still believes it owns shard 0. Its next
	// replication attempt must be fenced, after which it redirects.
	shard0 := f.Table().Routes[0]
	var pathOnShard0 string
	for i := 0; ; i++ {
		p := fmt.Sprintf("/fence/k%02d", i)
		if server.ShardOf(p, 2) == 0 {
			pathOnShard0 = p
			break
		}
	}
	resp := f.Node(old).Serve(ClientName,
		&wire.Request{Op: wire.OpWrite, Shard: -1, Offset: 0, Path: pathOnShard0, Data: []byte("stale")})
	if resp.Status != wire.StatusMoved && resp.Status != wire.StatusAgain {
		t.Fatalf("stale primary accepted a write: %v (%s)", resp.Status, resp.Msg)
	}
	f.Tick() // heartbeat reconciles the rejoined node's view
	resp = f.Node(old).Serve(ClientName,
		&wire.Request{Op: wire.OpWrite, Shard: -1, Offset: 0, Path: pathOnShard0, Data: []byte("stale")})
	if resp.Status != wire.StatusMoved {
		t.Fatalf("deposed primary did not redirect: %v (%s)", resp.Status, resp.Msg)
	}
	if resp.Msg != shard0.Primary {
		t.Fatalf("redirect to %q, want current primary %q", resp.Msg, shard0.Primary)
	}
	// Acked writes from before and during the partition both survive.
	mustRead(t, cl, "/a", fill(50, 1))
	mustRead(t, cl, "/b", fill(51, 2))
}

// Losing a backup degrades writes (ack-after-replicate refuses to lie)
// until the coordinator evicts the dead peer and re-replicates onto a
// spare; no acked write is lost and service resumes.
func TestFleetSurvivesBackupKill(t *testing.T) {
	f := testFleet(t, 3, 2, 2)
	cl := f.Client(nil)
	mustWrite(t, cl, "/pre", fill(40, 9))
	rt := f.Table().Routes[0]
	victim := rt.Backups[0]
	f.Kill(victim)

	// The very next write to shard 0 cannot ack (its backup is gone):
	// a direct, attempt-bounded client send sees StatusAgain.
	one := f.Client(nil)
	one.MaxAttempts = 1
	var p0 string
	for i := 0; ; i++ {
		p := fmt.Sprintf("/deg/k%02d", i)
		if server.ShardOf(p, 2) == 0 {
			p0 = p
			break
		}
	}
	resp, err := one.Do(&wire.Request{Op: wire.OpWrite, Shard: -1, Offset: 0, Path: p0, Data: fill(8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusAgain {
		t.Fatalf("write acked with a dead backup: %v (%s)", resp.Status, resp.Msg)
	}

	// The primary does not speak for its backup, so eviction waits for
	// the coordinator's own missThreshold missed heartbeats; repair
	// (snapshot onto the spare) follows in the same tick. Then the same
	// write acks.
	for i := 0; i < missThreshold; i++ {
		f.Tick()
	}
	mustWrite(t, cl, p0, fill(8, 3))
	mustRead(t, cl, "/pre", fill(40, 9))
	mustRead(t, cl, p0, fill(8, 3))
	if f.Metrics().Reconfigs == 0 {
		t.Fatal("dead backup never evicted")
	}
}

// Window 1: the coordinator must not evict a backup on its primary's
// word. A cut link makes one write degrade; after the link heals and a
// round passes, the primary's machine dies. The backup holds every acked
// write and must be promoted — it used to be evicted on the primary's
// stale report that it was unreachable, leaving nobody to promote.
func TestFleetPrimaryKillAfterHealedCutPromotesBackup(t *testing.T) {
	f := testFleet(t, 3, 1, 2)
	cl := f.Client(nil)
	acked := mustWriteKeys(t, cl, "/pre", 4)
	rt := f.Table().Routes[0]
	f.Transport().Cut(rt.Primary, rt.Backups[0])
	one := f.Client(nil)
	one.MaxAttempts = 1
	resp, err := one.Do(&wire.Request{Op: wire.OpWrite, Shard: -1, Path: "/cut", Data: fill(8, 1)})
	if err != nil || resp.Status != wire.StatusAgain {
		t.Fatalf("write across a cut link: %v, %+v; want StatusAgain", err, resp)
	}
	f.Rejoin(rt.Primary)
	f.Tick()
	f.Kill(rt.Primary)
	for i := 0; i < 4; i++ {
		f.Tick()
	}
	if got := f.Table().Routes[0].Primary; got != rt.Backups[0] {
		t.Fatalf("shard 0 primary is %s, want the backup %s promoted", got, rt.Backups[0])
	}
	mustReadAll(t, cl, acked)
}

// Window 2: a machine revived empty inside the failure detector's window
// answers heartbeats again before it is declared dead. Its report holds
// no replica of the shard it is primary for, so the backup is promoted
// over it — it used to stay primary of a shard it no longer had.
func TestFleetRevivedEmptyPrimaryPromotesBackup(t *testing.T) {
	f := testFleet(t, 3, 1, 2)
	cl := f.Client(nil)
	acked := mustWriteKeys(t, cl, "/pre", 4)
	rt := f.Table().Routes[0]
	f.Kill(rt.Primary)
	for i := 0; i < missThreshold-1; i++ {
		f.Tick()
	}
	f.Revive(rt.Primary)
	// Until the coordinator reads its report, the empty machine answers
	// "retry" — it must not redirect clients to itself.
	resp := f.Node(rt.Primary).Serve(ClientName, &wire.Request{Op: wire.OpRead, Shard: -1, Path: "/pre/k00"})
	if resp.Status != wire.StatusAgain {
		t.Fatalf("revived empty primary answered %v (%s), want StatusAgain", resp.Status, resp.Msg)
	}
	for i := 0; i < 4; i++ {
		f.Tick()
	}
	if got := f.Table().Routes[0].Primary; got != rt.Backups[0] {
		t.Fatalf("shard 0 primary is %s, want the backup %s promoted", got, rt.Backups[0])
	}
	mustReadAll(t, cl, acked)
	replicasAgree(t, f)
}

// repairedWithin ticks missThreshold+2 times and then requires that the
// fleet evicted and repaired a backup by snapshot, that the degraded
// write now acks, and that every acked write reads back from both
// replicas.
func repairedWithin(t *testing.T, f *Fleet, cl *Client, degraded *wire.Request, acked map[string][]byte) {
	t.Helper()
	for i := 0; i < missThreshold+2; i++ {
		f.Tick()
	}
	if m := f.Metrics(); m.Reconfigs == 0 || m.Repairs == 0 {
		t.Fatalf("backup not evicted and repaired: %+v", m)
	}
	if resp, err := cl.Do(degraded); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("degraded write after repair: %v, %+v", err, resp)
	}
	acked[degraded.Path] = degraded.Data
	mustReadAll(t, cl, acked)
	replicasAgree(t, f)
}

// A backup whose tree refuses a frame its primary executed has
// diverged. It drops its replica; the coordinator reads the missing
// shard in its report, evicts it and repairs it by snapshot.
func TestFleetDivergedBackupRepaired(t *testing.T) {
	f := testFleet(t, 3, 1, 2)
	cl := f.Client(nil)
	acked := mustWriteKeys(t, cl, "/pre", 2)
	// Diverge the backup behind replication's back: a directory where
	// the primary is about to write a file.
	b := f.Node(f.Table().Routes[0].Backups[0]).replicaFor(0)
	b.mu.Lock()
	err := server.MkdirAll(b.sys, "/x")
	b.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	one := f.Client(nil)
	one.MaxAttempts = 1
	req := &wire.Request{Op: wire.OpWrite, Shard: -1, Path: "/x", Data: fill(30, 2)}
	if resp, err := one.Do(req); err != nil || resp.Status != wire.StatusAgain {
		t.Fatalf("write refused by a diverged backup: %v, %+v; want StatusAgain", err, resp)
	}
	repairedWithin(t, f, cl, req, acked)
}

// A backup OS-crashed through more degraded writes than the primary's
// tail holds cannot be replayed forward after its warm reboot. Its own
// reported seq shows the coordinator how far behind it is; it is
// evicted and repaired by snapshot.
func TestFleetLaggingBackupRepaired(t *testing.T) {
	const tail = defaultTailLen
	f, err := New(Config{Nodes: 3, Shards: 1, Replicas: 2, Seed: 1996})
	if err != nil {
		t.Fatal(err)
	}
	cl := f.Client(nil)
	acked := mustWriteKeys(t, cl, "/pre", 2)
	b := f.Node(f.Table().Routes[0].Backups[0])
	b.CrashNode()
	one := f.Client(nil)
	one.MaxAttempts = 1
	var req *wire.Request
	for i := 0; i < tail+2; i++ {
		req = &wire.Request{Op: wire.OpWrite, Shard: -1, Path: fmt.Sprintf("/lag/k%02d", i), Data: fill(20+i, byte(i))}
		if resp, err := one.Do(req); err != nil || resp.Status != wire.StatusAgain {
			t.Fatalf("write %d with the backup down: %v, %+v; want StatusAgain", i, err, resp)
		}
	}
	if err := b.WarmbootNode(); err != nil {
		t.Fatal(err)
	}
	repairedWithin(t, f, cl, req, acked)
}

// An OS crash is not a machine loss: the protected cache survives, warm
// reboot restores the tree and the replication position, and no
// promotion or snapshot is needed.
func TestFleetOSCrashWarmboots(t *testing.T) {
	f := testFleet(t, 3, 2, 2)
	cl := f.Client(nil)
	acked := map[string][]byte{}
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/os/k%02d", i)
		acked[p] = fill(90+i, byte(i))
		mustWrite(t, cl, p, acked[p])
	}
	victim := f.Table().Routes[0].Primary
	n := f.Node(victim)
	st := n.Status()
	n.CrashNode()
	if err := n.WarmbootNode(); err != nil {
		t.Fatalf("warmboot: %v", err)
	}
	if got := n.Status(); !reflect.DeepEqual(got, st) {
		t.Fatalf("replica positions changed across warm reboot:\n got %+v\nwant %+v", got, st)
	}
	for p, want := range map[string][]byte{"/os/k00": acked["/os/k00"]} {
		mustRead(t, cl, p, want)
	}
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/os/k%02d", i)
		mustRead(t, cl, p, acked[p])
	}
	if f.Table().Routes[0].Primary != victim {
		t.Fatal("warm reboot triggered a promotion; it must not")
	}
	mustWrite(t, cl, "/os/after", fill(10, 1))
	mustRead(t, cl, "/os/after", fill(10, 1))
}

// Snapshot + install must reproduce the tree byte-for-byte, and a
// revived (empty) machine must be repaired back into the replica set.
// R=3 on 3 nodes, so the killed node's capacity cannot be replaced by
// a spare — the revived machine itself must be recruited back.
func TestFleetReviveRepairsBySnapshot(t *testing.T) {
	f := testFleet(t, 3, 2, 3)
	cl := f.Client(nil)
	for i := 0; i < 6; i++ {
		mustWrite(t, cl, fmt.Sprintf("/sn/k%02d", i), fill(70+i, byte(i)))
	}
	victim := f.Table().Routes[0].Primary
	f.Kill(victim)
	for i := 0; i < 4; i++ {
		f.Tick()
	}
	f.Revive(victim)
	f.Tick()
	// The revived machine must hold a fresh replica of every shard it
	// was recruited for, byte-identical to the primary.
	reinstalled := 0
	for _, rt := range f.Table().Routes {
		if !contains(rt.Backups, victim) && rt.Primary != victim {
			continue
		}
		reinstalled++
		prim := f.Node(rt.Primary).replicaFor(rt.Shard)
		prim.mu.Lock()
		want, err := buildSnapshot(prim)
		prim.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		rep := f.Node(victim).replicaFor(rt.Shard)
		if rep == nil {
			t.Fatalf("revived node recruited for shard %d but holds no replica", rt.Shard)
		}
		rep.mu.Lock()
		got, err := buildSnapshot(rep)
		rep.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shard %d: reinstalled replica diverges from primary", rt.Shard)
		}
	}
	if reinstalled == 0 {
		t.Fatal("revived node never recruited back into any replica set")
	}
	if f.Metrics().Repairs == 0 {
		t.Fatal("no snapshot repair recorded")
	}
	for i := 0; i < 6; i++ {
		mustRead(t, cl, fmt.Sprintf("/sn/k%02d", i), fill(70+i, byte(i)))
	}
}

// Append retries must be idempotent end to end: the node refuses
// relative offsets outright, the client resolves the append offset once
// and pins it into the request, and a caller re-sending that same
// request across a degraded window ("applied but unacked") rewrites the
// same bytes instead of appending them again.
func TestFleetAppendRetryIdempotent(t *testing.T) {
	f := testFleet(t, 3, 1, 2) // one shard: every path lands on it
	cl := f.Client(nil)
	head := fill(40, 1)
	tail := fill(24, 2)
	mustWrite(t, cl, "/log", head)

	// A raw relative offset never reaches execution — re-resolving it on
	// retry is exactly how appends used to duplicate.
	prim := f.Table().Routes[0].Primary
	raw := f.Node(prim).Serve(ClientName,
		&wire.Request{Op: wire.OpWrite, Shard: -1, Offset: -1, Path: "/log", Data: tail})
	if raw.Status != wire.StatusInvalid {
		t.Fatalf("relative offset accepted by the node: %v (%s)", raw.Status, raw.Msg)
	}

	// The client resolves the offset once and writes it back into the
	// request, so the request itself becomes retry-safe.
	req := &wire.Request{Op: wire.OpWrite, Shard: -1, Offset: -1, Path: "/log", Data: tail}
	resp, err := cl.Do(req)
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("append: %v %v", err, resp)
	}
	if req.Offset != int64(len(head)) {
		t.Fatalf("append offset not pinned: %d, want %d", req.Offset, len(head))
	}
	want := append(append([]byte(nil), head...), tail...)
	mustRead(t, cl, "/log", want)

	// Kill the backup and re-send the very same request: the primary
	// applies it (at the pinned offset) but cannot ack — the degraded
	// window. The caller's retry after reconfiguration must leave the
	// file byte-identical, not longer.
	f.Kill(f.Table().Routes[0].Backups[0])
	one := f.Client(nil)
	one.MaxAttempts = 1
	resp, err = one.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusAgain {
		t.Fatalf("degraded append: got %v (%s), want StatusAgain", resp.Status, resp.Msg)
	}
	// Eviction waits for the coordinator's own missThreshold missed
	// heartbeats (the primary does not speak for its backup); repair onto
	// the spare follows in the same tick.
	for i := 0; i < missThreshold; i++ {
		f.Tick()
	}
	resp, err = cl.Do(req)
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("append retry after reconfiguration: %v %v", err, resp)
	}
	mustRead(t, cl, "/log", want)
}

// A pairwise partition leaves the old primary reachable by clients but
// blind to its peers and the coordinator. After the promotion it never
// heard about, it must refuse reads (the read fence) rather than serve
// stale bytes, and after healing it must redirect.
func TestFleetPairwiseCutReadFenced(t *testing.T) {
	f := testFleet(t, 3, 1, 2)
	cl := f.Client(nil)
	v1 := fill(64, 3)
	mustWrite(t, cl, "/a", v1)

	old := f.Table().Routes[0].Primary
	tr := f.Transport()
	for _, id := range f.NodeIDs() {
		if id != old {
			tr.Cut(old, id)
		}
	}
	tr.Cut(old, CoordName) // clients still reach old
	for i := 0; i < 4; i++ {
		f.Tick()
	}
	if f.Table().Routes[0].Primary == old {
		t.Fatalf("no promotion away from pair-partitioned %s", old)
	}

	// Rewrite /a through the new primary; same length, different bytes.
	v2 := append([]byte(nil), v1...)
	for i := range v2 {
		v2[i] ^= 0x5A
	}
	fresh := f.Client(nil)
	mustWrite(t, fresh, "/a", v2)

	// The old primary still believes it owns the shard and clients can
	// still reach it. Serving this read would return v1 — stale.
	resp := f.Node(old).Serve(ClientName, &wire.Request{Op: wire.OpRead, Shard: -1, Path: "/a"})
	if resp.Status == wire.StatusOK {
		t.Fatalf("deposed primary served a read: %d bytes (stale=%v)",
			len(resp.Data), !bytes.Equal(resp.Data, v2))
	}

	// After healing, the heartbeat reconciles it and reads redirect.
	f.Rejoin(old)
	f.Tick()
	resp = f.Node(old).Serve(ClientName, &wire.Request{Op: wire.OpRead, Shard: -1, Path: "/a"})
	if resp.Status != wire.StatusMoved {
		t.Fatalf("healed deposed primary: got %v (%s), want StatusMoved", resp.Status, resp.Msg)
	}
	mustRead(t, cl, "/a", v2)
}

// An epoch adopted on promotion must be persisted immediately, not on
// the next write: a promoted primary that warm-reboots before writing
// must come back at the promoted epoch, or its frames would be fenced
// and the shard would blip unavailable until the next heartbeat.
func TestFleetPromotedEpochSurvivesWarmboot(t *testing.T) {
	f := testFleet(t, 3, 1, 2)
	cl := f.Client(nil)
	mustWrite(t, cl, "/pre", fill(32, 7))

	old := f.Table().Routes[0].Primary
	f.Kill(old)
	for i := 0; i < 4; i++ {
		f.Tick()
	}
	next := f.Table().Routes[0].Primary
	if next == old {
		t.Fatal("no promotion happened")
	}
	n := f.Node(next)
	before := n.Status()
	n.CrashNode()
	if err := n.WarmbootNode(); err != nil {
		t.Fatalf("warmboot: %v", err)
	}
	after := n.Status()
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("promoted epoch regressed across warm reboot:\n got %+v\nwant %+v", after, before)
	}
	// No deposition blip: the rebooted primary serves immediately.
	mustWrite(t, cl, "/post", fill(16, 8))
	mustRead(t, cl, "/pre", fill(32, 7))
	mustRead(t, cl, "/post", fill(16, 8))
}

// Fleet nodes refuse the transaction ops — transactions are the
// single-node server's feature, and silently accepting them without
// replicating staged state would be a lie.
func TestFleetRefusesTxnOps(t *testing.T) {
	f := testFleet(t, 2, 1, 2)
	prim := f.Table().Routes[0].Primary
	for _, op := range []wire.Op{wire.OpTxnBegin, wire.OpTxnCommit, wire.OpTxnAbort} {
		resp := f.Node(prim).Serve(ClientName, &wire.Request{Op: op, Shard: -1, Path: "/x", Txn: 1})
		if resp.Status != wire.StatusInvalid {
			t.Fatalf("%v: got %v, want StatusInvalid", op, resp.Status)
		}
	}
}

// The reserved metadata prefix is unreachable from clients.
func TestFleetReservedPath(t *testing.T) {
	f := testFleet(t, 2, 1, 2)
	cl := f.Client(nil)
	for _, p := range []string{"/.fleet/seq", "/.fleet", ".fleet/seq", "/.fleet/seq/"} {
		resp, err := cl.Do(&wire.Request{Op: wire.OpWrite, Shard: -1, Offset: 0, Path: p, Data: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusInvalid {
			t.Fatalf("write to %q: got %v, want StatusInvalid", p, resp.Status)
		}
	}
	// A path with an empty component never reaches the reservation
	// check: it is refused as malformed at routing time.
	if _, err := cl.Do(&wire.Request{Op: wire.OpWrite, Shard: -1, Path: "//.fleet//seq", Data: []byte("x")}); err == nil {
		t.Fatal("malformed alias of the reserved path was routed")
	}
}

// snapshotsOf returns the snapshot of shard's replica on every node of
// its route, primary first.
func snapshotsOf(t *testing.T, f *Fleet, rt Route) [][]byte {
	t.Helper()
	var out [][]byte
	for _, id := range append([]string{rt.Primary}, rt.Backups...) {
		r := f.Node(id).replicaFor(rt.Shard)
		r.mu.Lock()
		snap, err := buildSnapshot(r)
		r.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, snap)
	}
	return out
}

// A write that is legal on the wire but cannot ride a replication frame
// (MaxData bytes plus the batch header) is refused before anything
// mutates. It used to execute, bump and persist seq, and only then fail
// to encode: the primary held a file its backup never got, no tail entry
// existed for the seq, and every later write answered "backup
// unreachable" until the coordinator repaired by snapshot.
func TestFleetRefusesUnreplicableWriteBeforeExec(t *testing.T) {
	f := testFleet(t, 3, 1, 2)
	rt := f.Table().Routes[0]
	prim := f.Node(rt.Primary)
	mustWrite(t, f.Client(nil), "/data/small", fill(100, 1))
	before := snapshotsOf(t, f, rt)
	seq := prim.replicaFor(0).seq

	big := &wire.Request{Op: wire.OpWrite, Shard: -1, Path: "/data/big", Data: make([]byte, wire.MaxData)}
	if resp := prim.Serve(ClientName, big); resp.Status != wire.StatusInvalid {
		t.Fatalf("unreplicable write: got %v (%s), want StatusInvalid", resp.Status, resp.Msg)
	}
	after := snapshotsOf(t, f, rt)
	for i := range after {
		if !bytes.Equal(after[i], before[i]) || !bytes.Equal(after[i], after[0]) {
			t.Fatalf("replica %d of the route changed or diverged across a refused write", i)
		}
	}
	if got := prim.replicaFor(0).seq; got != seq {
		t.Fatalf("refused write moved seq %d -> %d", seq, got)
	}
	next := &wire.Request{Op: wire.OpWrite, Shard: -1, Path: "/data/next", Data: fill(64, 2)}
	if resp := prim.Serve(ClientName, next); resp.Status != wire.StatusOK {
		t.Fatalf("write after the refusal: got %v (%s), want an ack first try", resp.Status, resp.Msg)
	}
	if m := f.NodeMetrics(); m.Degraded != 0 {
		t.Fatalf("replication degraded after a refused write: %+v", m)
	}

	// The bounds Server.route enforces hold at this front door too.
	for _, req := range []*wire.Request{
		{Op: wire.OpWrite, Shard: -1, Path: "/data/over", Data: make([]byte, wire.MaxData+1)},
		{Op: wire.OpStat, Shard: -1, Path: "/" + strings.Repeat("p", wire.MaxPath)},
		{Op: wire.OpMv, Shard: -1, Path: "/data/small"},
	} {
		if resp := prim.Serve(ClientName, req); resp.Status != wire.StatusInvalid {
			t.Fatalf("%v with %d data bytes, %d-byte path: got %v, want StatusInvalid",
				req.Op, len(req.Data), len(req.Path), resp.Status)
		}
	}
}

// Every op a client can send a node obeys its row in wire's op table: a
// mutating op is replicated before it is acknowledged, anything else is
// served behind the read fence, and transaction control is refused.
func TestFleetObeysOpTable(t *testing.T) {
	f := testFleet(t, 2, 1, 2)
	prim := f.Node(f.Table().Routes[0].Primary)
	samples := map[wire.Op]*wire.Request{
		wire.OpOpen:  {Path: "/t/f"},
		wire.OpWrite: {Path: "/t/f", Data: []byte("x")},
		wire.OpMkdir: {Path: "/t/d"},
		wire.OpRm:    {Path: "/t/d"},
		wire.OpMv:    {Path: "/t/f", Path2: "/t/g"},
	}
	for op := wire.OpInvalid + 1; op.Valid(); op++ {
		if op.Admin() {
			continue // Node.Serve hands these to serveAdmin
		}
		req := &wire.Request{Op: op, Shard: -1, Path: "/t/x"}
		if sample := samples[op]; sample != nil {
			req.Path, req.Path2, req.Data = sample.Path, sample.Path2, sample.Data
		}
		before := f.NodeMetrics()
		resp := prim.serveClient(req)
		after := f.NodeMetrics()
		sent, fences := after.ReplSent-before.ReplSent, after.ReadFences-before.ReadFences
		switch {
		case op.TxnControl():
			if resp.Status != wire.StatusInvalid || sent != 0 || fences != 0 {
				t.Fatalf("%v: got %v, %d frames, %d fences; want refused untouched", op, resp.Status, sent, fences)
			}
		case op.Mutates():
			if resp.Status != wire.StatusOK || sent != 1 || fences != 0 {
				t.Fatalf("%v: got %v (%s), %d frames, %d fences; want acked after one replicated frame",
					op, resp.Status, resp.Msg, sent, fences)
			}
		default:
			if sent != 0 || fences != 1 {
				t.Fatalf("%v: %d frames, %d fences; want served behind one read fence", op, sent, fences)
			}
		}
	}
}

// seal appends the FNV-1a 64 the batch and snapshot frames end with, so a
// damaged body reaches the decoder behind the checksum.
func seal(body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	return binary.BigEndian.AppendUint64(append([]byte(nil), body...), h.Sum64())
}

// TestDecodersRefuseHostileInput runs every fleet decoder over input a
// peer could forge — each truncation point, a trailing byte, a count far
// past what the bytes hold — behind a valid checksum where the format has
// one. All must be refused with an error: no panic, and no allocation
// sized by a count nothing backs.
func TestDecodersRefuseHostileInput(t *testing.T) {
	frame, err := EncodeBatch(&Batch{Epoch: 3, Seq: 41, Op: &wire.Request{ID: 1, Op: wire.OpWrite, Shard: -1, Path: "/a/b", Data: []byte("payload")}})
	if err != nil {
		t.Fatal(err)
	}
	table := EncodeTable(&Table{Routes: []Route{
		{Shard: 0, Epoch: 7, Primary: "node2", Backups: []string{"node0", "node1"}},
		{Shard: 1, Epoch: 1, Primary: "node0"},
	}})
	status := EncodeStatus([]ReplicaStatus{
		{Shard: 0, Role: RolePrimary, Epoch: 7, Seq: 99},
		{Shard: 1, Role: RoleBackup, Epoch: 1, Seq: 3},
	})
	tail := binary.BigEndian.AppendUint32(nil, uint32(len(frame)))
	tail = append(tail, frame...)
	splitTail := func(b []byte) error { return eachTailFrame(b, func([]byte) error { return nil }) }

	f := testFleet(t, 2, 1, 2)
	mustWrite(t, f.Client(nil), "/d/file", []byte("snap"))
	route := f.Table().Routes[0]
	src := f.Node(route.Primary).replicaFor(0)
	src.mu.Lock()
	snap, err := buildSnapshot(src)
	src.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	dst := f.Node(route.Backups[0])
	if err := dst.InstallSnapshot(0, snap); err != nil {
		t.Fatalf("intact snapshot refused: %v", err)
	}

	decoders := []struct {
		name   string
		good   []byte
		sealed bool
		decode func([]byte) error
	}{
		{"batch", frame[:len(frame)-8], true, func(b []byte) error { _, err := DecodeBatch(b); return err }},
		{"snapshot", snap[:len(snap)-8], true, func(b []byte) error { return dst.InstallSnapshot(0, b) }},
		{"table", table, false, func(b []byte) error { _, err := DecodeTable(b); return err }},
		{"status", status, false, func(b []byte) error { _, err := DecodeStatus(b); return err }},
		{"tail", tail, false, splitTail},
	}
	for _, d := range decoders {
		wrap := func(b []byte) []byte {
			if d.sealed {
				return seal(b)
			}
			return b
		}
		if err := d.decode(wrap(d.good)); err != nil {
			t.Fatalf("%s: intact input refused: %v", d.name, err)
		}
		for n := 0; n < len(d.good); n++ {
			if err := d.decode(wrap(d.good[:n])); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes decoded", d.name, n, len(d.good))
			}
		}
		if err := d.decode(wrap(append(append([]byte(nil), d.good...), 0))); err == nil {
			t.Fatalf("%s: trailing byte decoded", d.name)
		}
	}

	// A count with nothing behind it: the largest the decoder admits, and
	// one past it. Both refused; the first without building 65 536 entries.
	for _, d := range decoders[2:4] {
		lying := binary.BigEndian.AppendUint32(nil, 1<<16)
		if err := d.decode(lying); err == nil {
			t.Fatalf("%s: %d entries decoded from 4 bytes", d.name, 1<<16)
		}
		if n := testing.AllocsPerRun(10, func() { d.decode(lying) }); n > 8 {
			t.Fatalf("%s: %.0f allocations refusing a 4-byte blob", d.name, n)
		}
		if err := d.decode(binary.BigEndian.AppendUint32(nil, 1<<16+1)); err == nil || !strings.Contains(err.Error(), "declares") {
			t.Fatalf("%s: over-long count: %v", d.name, err)
		}
	}
	// A snapshot record whose declared length overruns the blob.
	over := append([]byte(nil), snap[:24]...)
	over = append(over, snapFile)
	over = appendStr(over, "/x")
	over = binary.BigEndian.AppendUint32(over, 1<<31)
	binary.BigEndian.PutUint32(over[20:], 1)
	if err := dst.InstallSnapshot(0, seal(over)); err == nil {
		t.Fatal("snapshot record declaring 2 GB decoded")
	}
	// A tail frame one past wire.MaxData: refused by the maximum, whatever
	// bytes follow.
	if err := splitTail(binary.BigEndian.AppendUint32(nil, wire.MaxData+1)); !errors.Is(err, wire.ErrTooLong) {
		t.Fatalf("tail frame declaring wire.MaxData+1 bytes: %v, want wire.ErrTooLong", err)
	}
}
