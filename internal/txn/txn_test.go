package txn

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rio/internal/fs"
	"rio/internal/machine"
)

func rioMachine(t *testing.T) *machine.Machine {
	t.Helper()
	pol := fs.DefaultPolicy(fs.PolicyRio)
	pol.Protect = true
	opt := machine.DefaultOptions(pol)
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sampleRecords() []Record {
	return []Record{
		{ID: 1, Ops: []Op{
			{Kind: OpMkdir, Path: "/t"},
			{Kind: OpWrite, Path: "/t/a", Off: 0, Data: []byte("alpha-content")},
		}},
		{ID: 2, Ops: []Op{
			{Kind: OpWrite, Path: "/t/b", Off: 4096, Data: bytes.Repeat([]byte{0x5a}, 1000)},
			{Kind: OpRename, Path: "/t/a", Path2: "/t/a2"},
		}},
		{ID: 3, Ops: []Op{
			{Kind: OpRemove, Path: "/t/b"},
		}},
	}
}

func encodeAll(recs []Record) []byte {
	var buf []byte
	for i := range recs {
		buf = AppendRecord(buf, &recs[i])
	}
	return buf
}

func TestRecordRoundTrip(t *testing.T) {
	want := sampleRecords()
	got := ParseAll(encodeAll(want))
	if len(got) != len(want) {
		t.Fatalf("parsed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		// nil vs empty Data both encode to length 0.
		for j := range want[i].Ops {
			if want[i].Ops[j].Data == nil {
				want[i].Ops[j].Data = got[i].Ops[j].Data
			}
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// A log truncated at any byte offset must parse to an exact prefix of
// the original records — a torn trailing frame is discarded, never
// mis-parsed into a record no one sealed.
func TestParseTornTailAtEveryOffset(t *testing.T) {
	want := sampleRecords()
	full := encodeAll(want)
	// Frame boundaries, for deciding how many complete records a
	// truncation retains.
	bounds := make([]int, 0, len(want)+1)
	n := 0
	bounds = append(bounds, 0)
	for i := range want {
		n = len(AppendRecord(make([]byte, 0, n), &want[i])) + bounds[i]
		bounds = append(bounds, n)
	}
	for cut := 0; cut <= len(full); cut++ {
		got := ParseAll(full[:cut])
		complete := 0
		for _, b := range bounds[1:] {
			if cut >= b {
				complete++
			}
		}
		if len(got) != complete {
			t.Fatalf("cut at %d: parsed %d records, want %d complete frames",
				cut, len(got), complete)
		}
		for i := range got {
			if got[i].ID != want[i].ID || len(got[i].Ops) != len(want[i].Ops) {
				t.Fatalf("cut at %d: record %d mangled: %+v", cut, i, got[i])
			}
		}
	}
}

// A single flipped bit anywhere in a frame must fail that frame's
// checksum: the parse never surfaces altered content as a valid record.
func TestParseDetectsCorruption(t *testing.T) {
	want := sampleRecords()
	full := encodeAll(want)
	for off := 0; off < len(full); off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x01
		for i, rec := range ParseAll(mut) {
			// Any record the parse does return must be byte-identical to
			// an original: the flip either killed its frame or landed in
			// a later one.
			if i >= len(want) || !reflect.DeepEqual(rec.Ops, ParseAll(full)[i].Ops) || rec.ID != want[i].ID {
				t.Fatalf("flip at %d: surfaced altered record %d: %+v", off, i, rec)
			}
		}
	}
}

func readBack(t *testing.T, fsys *fs.FS, path string) []byte {
	t.Helper()
	st, err := fsys.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	buf := make([]byte, st.Size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return buf
}

// checkFinal asserts the state sampleRecords converges to: /t/a renamed
// to /t/a2 with its content, /t/b removed.
func checkFinal(t *testing.T, fsys *fs.FS) {
	t.Helper()
	if got := readBack(t, fsys, "/t/a2"); !bytes.Equal(got, []byte("alpha-content")) {
		t.Fatalf("/t/a2 content %q", got)
	}
	if _, err := fsys.Stat("/t/a"); err != fs.ErrNotFound {
		t.Fatalf("/t/a should be renamed away: %v", err)
	}
	if _, err := fsys.Stat("/t/b"); err != fs.ErrNotFound {
		t.Fatalf("/t/b should be removed: %v", err)
	}
}

func TestApplyIdempotent(t *testing.T) {
	m := rioMachine(t)
	l := NewLog(m.FS)
	recs := sampleRecords()
	for round := 0; round < 3; round++ {
		for i := range recs {
			if err := l.Apply(&recs[i]); err != nil {
				t.Fatalf("round %d record %d: %v", round, i, err)
			}
		}
		checkFinal(t, m.FS)
	}
	// Partial re-application converges too: replay just the first
	// record, then the rest.
	if err := l.Apply(&recs[0]); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := l.Apply(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkFinal(t, m.FS)
}

func TestPublishRecoverErase(t *testing.T) {
	m := rioMachine(t)
	l := NewLog(m.FS)
	if err := l.Publish(sampleRecords()); err != nil {
		t.Fatal(err)
	}
	st, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 || st.Applied != 3 {
		t.Fatalf("stats %+v", st)
	}
	checkFinal(t, m.FS)
	if _, err := m.FS.Stat(LogPath); err != fs.ErrNotFound {
		t.Fatalf("log not erased: %v", err)
	}
	// Recovery after erase is a no-op.
	st, err = l.Recover()
	if err != nil || st.Records != 0 {
		t.Fatalf("second recover: %+v, %v", st, err)
	}
}

// A log torn at any byte offset (crash mid-publish) must recover to a
// consistent prefix of the group, and recovery must never error.
func TestRecoverTornLogAtEveryOffset(t *testing.T) {
	recs := sampleRecords()
	full := encodeAll(recs)
	for cut := 0; cut <= len(full); cut++ {
		m := rioMachine(t)
		l := NewLog(m.FS)
		if err := m.FS.Mkdir(Dir); err != nil {
			t.Fatal(err)
		}
		f, err := m.FS.Create(LogPath)
		if err != nil {
			t.Fatal(err)
		}
		if cut > 0 {
			if _, err := f.WriteAt(full[:cut], 0); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		st, err := l.Recover()
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if st.Applied != st.Records {
			t.Fatalf("cut at %d: applied %d of %d", cut, st.Applied, st.Records)
		}
		if cut == len(full) {
			checkFinal(t, m.FS)
		}
		if _, err := m.FS.Stat(LogPath); err != fs.ErrNotFound {
			t.Fatalf("cut at %d: log not erased", cut)
		}
	}
}

// Recovery interrupted before every step and then restarted from
// scratch must converge to the same final state — the crash-at-every-
// step idempotency test, mirroring warmreboot's restart protocol.
func TestRecoverCrashAtEveryStep(t *testing.T) {
	for step := 1; step <= 8; step++ {
		m := rioMachine(t)
		l := NewLog(m.FS)
		if err := l.Publish(sampleRecords()); err != nil {
			t.Fatal(err)
		}
		_, err := l.RecoverOpts(Options{CrashAtStep: step})
		if err != nil && err != ErrInterrupted {
			t.Fatalf("step %d: %v", step, err)
		}
		interrupted := err == ErrInterrupted
		// Restart: the full recovery must complete and converge.
		if _, err := l.Recover(); err != nil {
			t.Fatalf("step %d: restarted recovery: %v", step, err)
		}
		checkFinal(t, m.FS)
		if _, err := m.FS.Stat(LogPath); err != fs.ErrNotFound {
			t.Fatalf("step %d: log not erased", step)
		}
		if step > 8 && interrupted {
			t.Fatalf("step %d still interrupts; widen the loop", step)
		}
	}
}

// If a crash costs the log file its metadata, warm reboot salvages the
// orphaned pages into /lost+found; recovery must find the frames there,
// roll them forward, and consume the salvage file.
func TestRecoverFromSalvage(t *testing.T) {
	m := rioMachine(t)
	l := NewLog(m.FS)
	if err := m.FS.Mkdir("/lost+found"); err != nil {
		t.Fatal(err)
	}
	f, err := m.FS.Create("/lost+found/ino-42")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(encodeAll(sampleRecords()), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// A non-log salvage file must be left alone.
	g, err := m.FS.Create("/lost+found/ino-7")
	if err != nil {
		t.Fatal(err)
	}
	g.WriteAt([]byte("ordinary orphaned user data"), 0)
	g.Close()

	st, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.SalvageLogs != 1 || st.Applied != 3 {
		t.Fatalf("stats %+v", st)
	}
	checkFinal(t, m.FS)
	if _, err := m.FS.Stat("/lost+found/ino-42"); err != fs.ErrNotFound {
		t.Fatal("consumed salvage log not removed")
	}
	if got := readBack(t, m.FS, "/lost+found/ino-7"); string(got) != "ordinary orphaned user data" {
		t.Fatal("non-log salvage file disturbed")
	}
}

// Oversize declared lengths must be rejected before allocation, and
// bytes after the last sealed frame are a torn tail, not a record.
func TestParseRejectsOversize(t *testing.T) {
	rec := Record{ID: 9, Ops: []Op{{Kind: OpWrite, Path: "/x", Data: []byte("d")}}}
	buf := AppendRecord(nil, &rec)
	// The body starts after magic(8)+cksum(8): id(8), nops(4), then the
	// op's kind(1), off(8), path length(2), path(2), path2 length(2),
	// data length(4).
	for _, c := range []struct {
		name string
		at   int
		put  []byte
	}{
		{"nops", 24, []byte{0xff, 0xff, 0xff, 0xff}},
		{"path length", 37, []byte{0xff, 0xff}},
		{"path2 length", 41, []byte{0xff, 0xff}},
		{"data length", 43, []byte{0xff, 0xff, 0xff, 0xff}},
	} {
		mut := append([]byte(nil), buf...)
		copy(mut[c.at:], c.put)
		if got := ParseAll(mut); len(got) != 0 {
			t.Fatalf("oversize %s parsed: %+v", c.name, got)
		}
		if n := testing.AllocsPerRun(10, func() { ParseAll(mut) }); n > 4 {
			t.Fatalf("oversize %s: %.0f allocations before the refusal", c.name, n)
		}
	}
	for _, tail := range [][]byte{{0}, buf[:8], bytes.Repeat([]byte{0xff}, 64)} {
		got := ParseAll(append(append([]byte(nil), buf...), tail...))
		if len(got) != 1 || got[0].ID != 9 {
			t.Fatalf("%d trailing bytes: parsed %+v, want the one sealed record", len(tail), got)
		}
	}
}

func TestCanonicalPath(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"/a", "/a", true},
		{"/a/b/c", "/a/b/c", true},
		{"a", "/a", true},
		{"//a", "/a", true},
		{"/a/", "/a", true},
		{"//a/b//", "/a/b", true},
		{"/a//b", "", false}, // inner empty component: the fs refuses it too
		{".txn/log", "/.txn/log", true},
		{"/", "/", true},
		{"///", "/", true},
		{"", "", false},
		{"/.", "", false},
		{"/..", "", false},
		{"/a/./b", "", false},
		{"/a/../b", "", false},
		{"..", "", false},
	}
	for _, c := range cases {
		got, ok := CanonicalPath(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("CanonicalPath(%q) = (%q, %v), want (%q, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestEncodedSizeMatchesAppendRecord(t *testing.T) {
	for i, rec := range sampleRecords() {
		if got, want := rec.EncodedSize(), len(AppendRecord(nil, &rec)); got != want {
			t.Errorf("record %d: EncodedSize = %d, encoded length = %d", i, got, want)
		}
	}
}

// Publish must refuse any record parseRecord would reject: such a frame
// applies at commit time but vanishes from crash recovery as a "torn
// tail" — so it can never be allowed into the log.
func TestPublishRejectsInvalidRecords(t *testing.T) {
	m := rioMachine(t)
	l := NewLog(m.FS)
	longPath := "/" + strings.Repeat("x", MaxPathLen)
	bad := []struct {
		name string
		rec  Record
	}{
		{"too many ops", Record{ID: 1, Ops: make([]Op, MaxOps+1)}},
		{"unknown kind", Record{ID: 1, Ops: []Op{{Kind: 0, Path: "/a"}}}},
		{"oversize data", Record{ID: 1, Ops: []Op{{Kind: OpWrite, Path: "/a", Data: make([]byte, MaxDataLen+1)}}}},
		{"oversize path", Record{ID: 1, Ops: []Op{{Kind: OpMkdir, Path: longPath}}}},
		{"non-canonical path", Record{ID: 1, Ops: []Op{{Kind: OpMkdir, Path: "a/b"}}}},
		{"doubled slash", Record{ID: 1, Ops: []Op{{Kind: OpMkdir, Path: "/a//b"}}}},
		{"dot component", Record{ID: 1, Ops: []Op{{Kind: OpMkdir, Path: "/a/../b"}}}},
		{"negative offset", Record{ID: 1, Ops: []Op{{Kind: OpWrite, Path: "/a", Off: -1}}}},
		{"path2 on write", Record{ID: 1, Ops: []Op{{Kind: OpWrite, Path: "/a", Path2: "/b"}}}},
		{"data on remove", Record{ID: 1, Ops: []Op{{Kind: OpRemove, Path: "/a", Data: []byte("x")}}}},
		{"non-canonical rename dst", Record{ID: 1, Ops: []Op{{Kind: OpRename, Path: "/a", Path2: "b//c"}}}},
	}
	for _, c := range bad {
		if err := l.Publish([]Record{c.rec}); err == nil {
			t.Errorf("%s: Publish accepted an unrecoverable record", c.name)
		}
		if _, err := m.FS.Stat(LogPath); err != fs.ErrNotFound {
			t.Fatalf("%s: log exists after refused publish (stat err %v)", c.name, err)
		}
	}
	// The group size is bounded by the log file's capacity.
	big := Record{ID: 9}
	for i := 0; i < 8; i++ {
		big.Ops = append(big.Ops, Op{Kind: OpWrite, Path: fmt.Sprintf("/big/%d", i), Data: make([]byte, MaxDataLen)})
	}
	group := make([]Record, 0, 4)
	for len(group) < 4 {
		r := big
		r.ID = uint64(len(group) + 1)
		group = append(group, r)
	}
	if err := l.Publish(group); err == nil {
		t.Fatalf("Publish accepted a %d-byte group over MaxPublishBytes=%d",
			4*big.EncodedSize(), MaxPublishBytes)
	}
	if _, err := m.FS.Stat(LogPath); err != fs.ErrNotFound {
		t.Fatalf("log exists after refused oversize group (stat err %v)", err)
	}
}

// A record the tree's shape rejects must fail before any of its ops
// run: Apply's precheck refuses it atomically with a CheckError.
func TestApplyPrecheckAtomic(t *testing.T) {
	m := rioMachine(t)
	l := NewLog(m.FS)
	// /d is non-empty, so the record's second op can never succeed.
	if err := l.Apply(&Record{ID: 1, Ops: []Op{
		{Kind: OpWrite, Path: "/d/keep", Data: []byte("x")},
	}}); err != nil {
		t.Fatal(err)
	}
	err := l.Apply(&Record{ID: 2, Ops: []Op{
		{Kind: OpWrite, Path: "/fresh", Data: []byte("partial")},
		{Kind: OpRemove, Path: "/d"},
	}})
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("Apply = %v, want *CheckError", err)
	}
	if ce.RecID != 2 || ce.OpIndex != 1 || !errors.Is(ce, fs.ErrNotEmpty) {
		t.Fatalf("CheckError = %+v (err %v), want rec 2 op 1 ErrNotEmpty", ce, ce.Err)
	}
	// Atomic: the first op must not have run.
	if _, err := m.FS.Stat("/fresh"); err != fs.ErrNotFound {
		t.Fatalf("refused record leaked its first op: stat /fresh = %v", err)
	}
	if got := readBack(t, m.FS, "/d/keep"); string(got) != "x" {
		t.Fatalf("/d/keep = %q, want %q", got, "x")
	}
}

// Recovery must not let one deterministically unappliable record wedge
// the log forever: it is quarantined (never replayed, never salvaged)
// and the rest of the log rolls forward.
func TestRecoverQuarantinesUnappliable(t *testing.T) {
	m := rioMachine(t)
	l := NewLog(m.FS)
	good := Record{ID: 1, Ops: []Op{{Kind: OpWrite, Path: "/d/f", Data: []byte("applied")}}}
	bad := Record{ID: 2, Ops: []Op{{Kind: OpRemove, Path: "/d"}}} // /d non-empty once good applies
	if err := l.Publish([]Record{good, bad}); err != nil {
		t.Fatal(err)
	}
	st, err := l.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st.Records != 2 || st.Applied != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want Records=2 Applied=1 Quarantined=1", st)
	}
	if got := readBack(t, m.FS, "/d/f"); string(got) != "applied" {
		t.Fatalf("/d/f = %q, want %q", got, "applied")
	}
	if _, err := m.FS.Stat(LogPath); err != fs.ErrNotFound {
		t.Fatalf("log survives recovery: stat err %v", err)
	}
	qst, err := m.FS.Stat(QuarantinePath)
	if err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if qst.Size <= 8 {
		t.Fatalf("quarantine file too small: %d bytes", qst.Size)
	}
	// The quarantine file must never parse as a log: its leading magic
	// differs, so ParseAll sees a torn head and yields nothing.
	qdata := readBack(t, m.FS, QuarantinePath)
	if recs := ParseAll(qdata); len(recs) != 0 {
		t.Fatalf("quarantine file parsed as %d log records", len(recs))
	}
	// Nor may salvage resurrect it: plant its bytes in /lost+found and
	// check recovery both ignores and preserves the file.
	if err := m.FS.Mkdir("/lost+found"); err != nil && err != fs.ErrExists {
		t.Fatal(err)
	}
	f, err := m.FS.Create("/lost+found/ino-42")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(qdata, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := l.Recover()
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if st2.Records != 0 || st2.SalvageLogs != 0 || st2.Quarantined != 0 {
		t.Fatalf("second recovery stats = %+v, want all zero", st2)
	}
	if _, err := m.FS.Stat("/lost+found/ino-42"); err != nil {
		t.Fatalf("salvage sweep disturbed the quarantined bytes: %v", err)
	}
}

// An unreadable log must abort recovery, never be treated as empty and
// erased — erasing it would silently discard published records.
func TestRecoverRefusesUnreadableLog(t *testing.T) {
	t.Run("log is a directory", func(t *testing.T) {
		m := rioMachine(t)
		l := NewLog(m.FS)
		if err := m.FS.Mkdir(Dir); err != nil {
			t.Fatal(err)
		}
		if err := m.FS.Mkdir(LogPath); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Recover(); err == nil {
			t.Fatal("Recover succeeded over an unreadable log")
		}
		if st, err := m.FS.Stat(LogPath); err != nil || !st.IsDir {
			t.Fatalf("unreadable log was disturbed: stat %v %+v", err, st)
		}
	})
	t.Run("log over size cap", func(t *testing.T) {
		m := rioMachine(t)
		l := NewLog(m.FS)
		if err := l.Publish(sampleRecords()); err != nil {
			t.Fatal(err)
		}
		old := maxLogBytes
		maxLogBytes = 4
		defer func() { maxLogBytes = old }()
		if _, err := l.Recover(); err == nil {
			t.Fatal("Recover succeeded over an implausibly large log")
		}
		if _, err := m.FS.Stat(LogPath); err != nil {
			t.Fatalf("oversize log was erased: stat err %v", err)
		}
		maxLogBytes = old
		st, err := l.Recover()
		if err != nil {
			t.Fatalf("Recover after restoring cap: %v", err)
		}
		if st.Applied != len(sampleRecords()) {
			t.Fatalf("Applied = %d, want %d", st.Applied, len(sampleRecords()))
		}
		checkFinal(t, m.FS)
	})
}

// A crash probe reporting true must keep recovery from quarantining:
// crash fallout can look exactly like a deterministic refusal.
func TestRecoverCrashProbeSuppressesQuarantine(t *testing.T) {
	m := rioMachine(t)
	l := NewLog(m.FS)
	if err := l.Apply(&Record{ID: 1, Ops: []Op{{Kind: OpWrite, Path: "/d/f", Data: []byte("x")}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Publish([]Record{{ID: 2, Ops: []Op{{Kind: OpRemove, Path: "/d"}}}}); err != nil {
		t.Fatal(err)
	}
	st, err := l.RecoverOpts(Options{Crashed: func() bool { return true }})
	if err == nil {
		t.Fatal("Recover succeeded though the crash probe fired")
	}
	if st.Quarantined != 0 {
		t.Fatalf("quarantined %d records under a reported crash", st.Quarantined)
	}
	if _, err := m.FS.Stat(LogPath); err != nil {
		t.Fatalf("log erased under a reported crash: stat err %v", err)
	}
}

// A transactional remove takes the link, not what it points at, and
// precheck agrees with apply about it: a link to a non-empty directory
// is not "directory not empty", a dangling link is not "already gone".
// Applying the record twice — the replay after a crash — converges.
func TestApplyRemoveTakesTheLink(t *testing.T) {
	m := rioMachine(t)
	fsys, l := m.FS, NewLog(m.FS)
	if err := fsys.MkdirAll("/full/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Mkdir("/empty"); err != nil {
		t.Fatal(err)
	}
	rec := Record{ID: 7}
	for _, lt := range [][2]string{{"/l-full", "/full"}, {"/l-empty", "/empty"}, {"/l-dangling", "/nowhere"}} {
		link, target := lt[0], lt[1]
		if err := fsys.Symlink(target, link); err != nil {
			t.Fatal(err)
		}
		rec.Ops = append(rec.Ops, Op{Kind: OpRemove, Path: link})
	}
	// The link's name is free again within the same record.
	rec.Ops = append(rec.Ops, Op{Kind: OpWrite, Path: "/l-full", Data: []byte("now a file")})
	for round := 1; round <= 2; round++ {
		if err := l.Apply(&rec); err != nil {
			t.Fatalf("apply %d: %v", round, err)
		}
		for _, link := range []string{"/l-empty", "/l-dangling"} {
			if _, err := fsys.Lstat(link); err != fs.ErrNotFound {
				t.Fatalf("apply %d: %s still there: %v", round, link, err)
			}
		}
		if st, err := fsys.Lstat("/l-full"); err != nil || st.IsSymlink || st.IsDir {
			t.Fatalf("apply %d: /l-full should be the record's file: %+v %v", round, st, err)
		}
		for _, dir := range []string{"/full/sub", "/empty"} {
			if st, err := fsys.Stat(dir); err != nil || !st.IsDir {
				t.Fatalf("apply %d: %s, which a removed link pointed at: %+v %v", round, dir, st, err)
			}
		}
	}
}
