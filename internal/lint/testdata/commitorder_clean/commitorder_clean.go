// Package commitclean holds commit-protocol shapes the commitorder
// analyzer must accept: the canonical ordering, functions that touch
// only one verb, an unrelated type that happens to share method names,
// and a reasoned suppression.
package commitclean

type Record struct{ ID uint64 }

type Log struct{}

func (l *Log) Publish(recs []Record) error { return nil }
func (l *Log) Apply(rec *Record) error     { return nil }
func (l *Log) Erase() error                { return nil }

type task struct{}
type response struct{}

type shard struct{ log Log }

func (sh *shard) ackCommit(t task, r *response) {}

// serve is the canonical group-commit shape: publish the batch, apply
// every record, erase, and only then ack.
func (sh *shard) serve(t task, recs []Record) {
	sh.log.Publish(recs)
	for i := range recs {
		sh.log.Apply(&recs[i])
	}
	sh.log.Erase()
	sh.ackCommit(t, &response{})
}

// applyOnly touches a single verb; there is no ordering to violate.
func (sh *shard) applyOnly(rec *Record) {
	sh.log.Apply(rec)
}

// ackOnly is the delivery seam itself: no record handling in sight.
func (sh *shard) ackOnly(t task) {
	sh.ackCommit(t, &response{})
}

// journal is not the commit log; its same-named methods are free to
// run in any order.
type journal struct{}

func (j *journal) Publish(recs []Record) error { return nil }
func (j *journal) Erase() error                { return nil }

func rotate(j *journal, recs []Record) {
	j.Erase()
	j.Publish(recs)
}

// resetForTest wipes a scratch log before seeding it; the reversed
// order is deliberate and carries a reason.
func resetForTest(l *Log, recs []Record) {
	//riolint:commitorder test scaffolding wipes a scratch log nothing committed to
	l.Erase()
	l.Publish(recs)
	for i := range recs {
		l.Apply(&recs[i])
	}
}

// recoverLog is the roll-forward: it applies and erases, a whole
// sub-protocol checked here in its own body. A call to it is no single
// verb, so it contributes nothing to its caller's ordering.
func (sh *shard) recoverLog(recs []Record) {
	for i := range recs {
		sh.log.Apply(&recs[i])
	}
	sh.log.Erase()
}

// applyCommit is the one-verb helper serveGroup applies through.
func (sh *shard) applyCommit(rec *Record) error { return sh.log.Apply(rec) }

// handle answers a non-commit op; a warmboot op rolls the log forward.
func (sh *shard) handle(warmboot bool, recs []Record) {
	if warmboot {
		sh.recoverLog(recs)
	}
}

// serveGroup is server.serve's real shape: a record an earlier batch left
// behind is rolled forward before Publish replaces the log — that is not
// "applied before published" — commits apply through a helper, and a
// non-commit op in the same loop can itself roll forward.
func (sh *shard) serveGroup(t task, recs []Record, dirty bool) {
	if dirty {
		sh.recoverLog(recs)
	}
	sh.log.Publish(recs)
	for i := range recs {
		if i%2 == 0 {
			sh.applyCommit(&recs[i])
		} else {
			sh.handle(i == 1, recs)
		}
	}
	sh.log.Erase()
	sh.ackCommit(t, &response{})
}
