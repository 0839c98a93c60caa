package ssb

// Test-only views of tables and threads.

// Entries returns the number of log entries (for bags: total elements).
func (t *Table) Entries() int {
	if t.bag != nil {
		return t.bag.n
	}
	return t.idx.len()
}

// BagLen returns the number of elements in key's bag.
func (t *Table) BagLen(key uint64) int {
	if t.bag == nil || t.bag.n == 0 {
		return 0
	}
	t.bag.group()
	gid, ok := t.bag.g.idx.get(key)
	if !ok {
		return 0
	}
	return int(t.bag.g.counts[gid])
}

// StateBytes returns the total log bytes held by this thread's fragments.
func (ts *ThreadState) StateBytes() int {
	total := 0
	for _, t := range ts.tables {
		total += t.LogBytes()
	}
	return total
}

// logBytes returns a copy of t's raw log, its segments concatenated.
func logBytes(t *Table) []byte {
	var out []byte
	for _, r := range t.appendLog(nil) {
		out = append(out, r...)
	}
	return out
}
