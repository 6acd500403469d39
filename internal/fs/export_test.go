package fs

// JournalHead returns the block the next journal append writes.
func (f *FS) JournalHead() int64 { return f.journalHead }
