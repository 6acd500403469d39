// Package commitfix is a commitorder violating fixture: every shape of
// commit-protocol misordering the analyzer must catch, each a
// reconstruction of a torn-commit window — acking a transaction the
// crash can still un-do, or erasing a record the crash can still need.
package commitfix

type Record struct{ ID uint64 }

type Log struct{}

func (l *Log) Publish(recs []Record) error { return nil }
func (l *Log) Apply(rec *Record) error     { return nil }
func (l *Log) Erase() error                { return nil }

type task struct{}
type response struct{}

type shard struct{ log Log }

func (sh *shard) ackCommit(t task, r *response) {}

// ackFirst answers the client before the record exists anywhere
// durable: a crash after the ack tears the transaction.
func (sh *shard) ackFirst(t task, recs []Record) {
	sh.ackCommit(t, &response{}) // want commitorder "acked before its record was published"
	sh.log.Publish(recs)
	for i := range recs {
		sh.log.Apply(&recs[i])
	}
	sh.log.Erase()
}

// ackBetween publishes first but acks before the apply: the ack
// promises a state the cache does not hold yet.
func (sh *shard) ackBetween(t task, recs []Record) {
	sh.log.Publish(recs)
	sh.ackCommit(t, &response{}) // want commitorder "acked before its record was applied"
	for i := range recs {
		sh.log.Apply(&recs[i])
	}
	sh.log.Erase()
}

// eraseEarly drops the log before the record has been applied: a crash
// in between loses a committed transaction.
func (sh *shard) eraseEarly(t task, recs []Record) {
	sh.log.Publish(recs)
	sh.log.Erase() // want commitorder "erased before its record was applied"
	for i := range recs {
		sh.log.Apply(&recs[i])
	}
	sh.ackCommit(t, &response{})
}

// applyUnpublished mutates the tree before the record is durable: a
// crash mid-apply leaves a partial state no recovery can complete.
func (sh *shard) applyUnpublished(recs []Record) {
	for i := range recs {
		sh.log.Apply(&recs[i]) // want commitorder "applied before it was published"
	}
	sh.log.Publish(recs)
	sh.log.Erase()
}

// eraseThenPublish erases by hand before publishing; Publish replaces
// the log itself, so the explicit erase can only drop a record some
// other path still needed.
func (sh *shard) eraseThenPublish(recs []Record) {
	sh.log.Erase() // want commitorder "erased before the batch was published"
	sh.log.Publish(recs)
	for i := range recs {
		sh.log.Apply(&recs[i])
	}
}

// applyOne is a one-verb helper: it reaches Apply and nothing else of
// the protocol, so a call to it is an apply wherever it is made.
func (sh *shard) applyOne(rec *Record) error { return sh.log.Apply(rec) }

// ackBeforeHelperApply is ackBetween with the apply moved into a helper
// (server.serve's real shape): the ack is just as early.
func (sh *shard) ackBeforeHelperApply(t task, recs []Record) {
	sh.log.Publish(recs)
	sh.ackCommit(t, &response{}) // want commitorder "acked before its record was applied"
	for i := range recs {
		sh.applyOne(&recs[i])
	}
	sh.log.Erase()
}

// eraseBeforeHelperApply is eraseEarly with the apply in the helper.
func (sh *shard) eraseBeforeHelperApply(t task, recs []Record) {
	sh.log.Publish(recs)
	sh.log.Erase() // want commitorder "erased before its record was applied"
	for i := range recs {
		sh.applyOne(&recs[i])
	}
	sh.ackCommit(t, &response{})
}
