package recovery

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindCheckpoint, Seq: 1, Gen: 1, Clock: []int64{10, 20, 30}, Payload: []byte("ckpt-a")},
		{Kind: KindTrigger, Seq: 2, Gen: 1, Payload: []byte{1, 0, 0, 0, 0, 0, 0, 0}},
		{Kind: KindSource, Seq: 3, Gen: 1, Payload: []byte("src")},
		{Kind: KindCheckpoint, Seq: 4, Gen: 2, Clock: []int64{40, 50, 60}, Payload: []byte("ckpt-b")},
	}
}

func recordsEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Seq != w.Seq || g.Gen != w.Gen {
			t.Fatalf("record %d header mismatch: got %+v want %+v", i, g, w)
		}
		if string(g.Payload) != string(w.Payload) {
			t.Fatalf("record %d payload mismatch: %q vs %q", i, g.Payload, w.Payload)
		}
		if len(g.Clock) != len(w.Clock) {
			t.Fatalf("record %d clock length mismatch", i)
		}
		for j := range w.Clock {
			if g.Clock[j] != w.Clock[j] {
				t.Fatalf("record %d clock[%d] mismatch", i, j)
			}
		}
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	want := sampleRecords()
	for i := range want {
		if err := s.Append(7, &want[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got, err := s.Load(7)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	recordsEqual(t, got, want)
	if s.Records() != len(want) {
		t.Fatalf("Records() = %d, want %d", s.Records(), len(want))
	}
	// The store must not alias caller memory: mutating the original record
	// after Append must not change the journal.
	want[0].Payload[0] = 'X'
	got2, _ := s.Load(7)
	if got2[0].Payload[0] == 'X' {
		t.Fatal("MemStore aliased the appended payload")
	}
	// An untouched node loads empty.
	if recs, err := s.Load(99); err != nil || len(recs) != 0 {
		t.Fatalf("empty journal: %v records, err %v", len(recs), err)
	}
}

func TestDirStoreRoundTrip(t *testing.T) {
	s, err := NewDirStore(filepath.Join(t.TempDir(), "journals"))
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	defer s.Close()
	want := sampleRecords()
	for i := range want {
		if err := s.Append(3, &want[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got, err := s.Load(3)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	recordsEqual(t, got, want)
	if recs, err := s.Load(8); err != nil || recs != nil {
		t.Fatalf("missing journal: %v records, err %v", len(recs), err)
	}
}

func TestDirStoreReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journals")
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	want := sampleRecords()
	if err := s.Append(0, &want[0]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen and keep appending: the journal continues, no magic rewrite.
	s2, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for i := 1; i < len(want); i++ {
		if err := s2.Append(0, &want[i]); err != nil {
			t.Fatalf("Append after reopen: %v", err)
		}
	}
	got, err := s2.Load(0)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	recordsEqual(t, got, want)
}

// TestDirStoreTornTail is the "failure during a checkpoint" contract: a
// journal whose last frame was torn mid-write (the node died while the
// checkpoint record was going to disk) loads its intact prefix.
func TestDirStoreTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journals")
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	want := sampleRecords()
	for i := range want {
		if err := s.Append(1, &want[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	s.Close()

	path := filepath.Join(dir, "node001.journal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	for cut := 1; cut < 40; cut += 7 {
		torn := raw[:len(raw)-cut]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatalf("write torn journal: %v", err)
		}
		s2, err := NewDirStore(dir)
		if err != nil {
			t.Fatalf("reopen torn: %v", err)
		}
		got, err := s2.Load(1)
		s2.Close()
		if err != nil {
			t.Fatalf("Load torn(-%d): %v", cut, err)
		}
		// The torn record is the last one; everything before it survives.
		recordsEqual(t, got, want[:len(want)-1])
	}
}

// TestDirStoreCorruptTail flips a byte in the last frame's body: the
// checksum catches it and the restore stops at the intact prefix.
func TestDirStoreCorruptTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journals")
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	want := sampleRecords()
	for i := range want {
		if err := s.Append(1, &want[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	s.Close()
	path := filepath.Join(dir, "node001.journal")
	raw, _ := os.ReadFile(path)
	raw[len(raw)-3] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write corrupt journal: %v", err)
	}
	s2, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got, err := s2.Load(1)
	if err != nil {
		t.Fatalf("Load corrupt: %v", err)
	}
	recordsEqual(t, got, want[:len(want)-1])
}

func TestDirStoreBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "node000.journal"), []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	defer s.Close()
	if _, err := s.Load(0); !errors.Is(err, ErrJournalFormat) {
		t.Fatalf("Load bad magic: %v, want ErrJournalFormat", err)
	}
}

func TestDirStoreConcurrentAppend(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	const writers, per = 4, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := Record{Kind: KindSource, Seq: uint64(w*per + i), Payload: []byte{byte(w)}}
				if err := s.Append(2, &rec); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := s.Load(2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got) != writers*per {
		t.Fatalf("got %d records, want %d", len(got), writers*per)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCheckpoint: "checkpoint",
		KindTrigger:    "trigger",
		KindSource:     "source",
		Kind(9):        "kind(9)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestStoresCopyRegions: a record whose payload is given as regions stores
// and loads exactly as the same record with the flat payload — the DirStore
// file is byte-identical — and neither store aliases the regions.
func TestStoresCopyRegions(t *testing.T) {
	regions := [][]byte{[]byte("tracker"), {}, []byte("-seg-0-"), []byte("seg-1")}
	flat := []byte("tracker-seg-0-seg-1")
	rec := func(regions [][]byte, payload []byte) *Record {
		return &Record{Kind: KindCheckpoint, Seq: 9, Gen: 2, Clock: []int64{4, 5}, Payload: payload, Regions: regions}
	}
	want := []Record{*rec(nil, flat)}

	mem := NewMemStore()
	if err := mem.Append(1, rec(regions, nil)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ds, err := NewDirStore(filepath.Join(dir, "regions"))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ref, err := NewDirStore(filepath.Join(dir, "flat"))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ds.Append(1, rec(regions, nil)); err != nil {
		t.Fatal(err)
	}
	if err := ref.Append(1, rec(nil, flat)); err != nil {
		t.Fatal(err)
	}
	regions[0][0] = 'X' // a writer reuses its regions once Append returns
	for name, s := range map[string]Store{"MemStore": mem, "DirStore": ds} {
		got, err := s.Load(1)
		if err != nil {
			t.Fatal(err)
		}
		recordsEqual(t, got, want)
		if got[0].Regions != nil {
			t.Fatalf("%s: loaded record carries regions", name)
		}
	}
	if got := mem.journals[1][0].Payload; cap(got) != len(flat) {
		t.Fatalf("MemStore holds a payload of cap %d, want one exact-size copy of %d bytes", cap(got), len(flat))
	}
	a, err := os.ReadFile(ds.path(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ref.path(1))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("journal file of the regions record differs from the flat record's")
	}
}
