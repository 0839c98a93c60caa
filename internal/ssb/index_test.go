package ssb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIndexSetGet(t *testing.T) {
	ix := newIndex()
	if _, ok := ix.get(42); ok {
		t.Fatal("empty index returned a hit")
	}
	ix.set(42, 7)
	if off, ok := ix.get(42); !ok || off != 7 {
		t.Fatalf("get = %d,%v", off, ok)
	}
	ix.set(42, 9) // update
	if off, _ := ix.get(42); off != 9 {
		t.Fatalf("update lost: off = %d", off)
	}
	if ix.len() != 1 {
		t.Fatalf("len = %d", ix.len())
	}
	// Key 0 is a valid key, distinct from a free slot.
	if _, ok := ix.get(0); ok {
		t.Fatal("free slot read as key 0")
	}
	ix.set(0, 3)
	if off, ok := ix.get(0); !ok || off != 3 || ix.len() != 2 {
		t.Fatalf("key 0: off=%d ok=%v len=%d", off, ok, ix.len())
	}
}

func TestIndexGrowthAndOverflow(t *testing.T) {
	ix := newIndex()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		ix.set(i, int32(i))
	}
	if ix.len() != n {
		t.Fatalf("len = %d, want %d", ix.len(), n)
	}
	if 2*ix.len() > len(ix.slots) {
		t.Fatalf("%d keys in %d slots: more than half full", ix.len(), len(ix.slots))
	}
	for i := uint64(0); i < n; i++ {
		off, ok := ix.get(i)
		if !ok || off != int32(i) {
			t.Fatalf("key %d: off=%d ok=%v", i, off, ok)
		}
	}
	seen := 0
	ix.forEach(func(key uint64, off int32) {
		if off != int32(key) {
			t.Fatalf("forEach key %d off %d", key, off)
		}
		seen++
	})
	if seen != n {
		t.Fatalf("forEach visited %d", seen)
	}
	ix.reset()
	if ix.len() != 0 {
		t.Fatal("reset did not clear")
	}
	if _, ok := ix.get(5); ok {
		t.Fatal("reset index returned a hit")
	}
}

// homeKeys returns n keys, key 0 first if it qualifies, whose home slot in
// a table of size slots is home.
func homeKeys(n, size int, home uint64) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if Mix64(k)&uint64(size-1) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestIndexSharedHomeSlotWraps drives the longest probe the table allows:
// 24 keys that share the last home slot of the minimum-sized table, so
// their run wraps past the end of the array to its start. Every key must be
// found by get, visited once by forEach, and kept across reserve's rehash;
// set and lookupOrReserve must both claim slots along the wrapped run. The
// keys' hashes end in eleven 1 bits, so they share the last home slot of
// the 2048-slot table that reserve(1000) rehashes into as well, and the
// rehash wraps too. (The FASTER-style bucket chain this index replaced lost
// keys exactly here: an overflow append that moved the pool orphaned the
// new bucket.)
func TestIndexSharedHomeSlotWraps(t *testing.T) {
	const grown = 2048
	keys := homeKeys(24, grown, grown-1)
	for name, insert := range map[string]func(ix *index, key uint64, off int32){
		"set": func(ix *index, key uint64, off int32) { ix.set(key, off) },
		"lookupOrReserve": func(ix *index, key uint64, off int32) {
			slot, found := ix.lookupOrReserve(key)
			if found {
				t.Fatalf("key %d already present", key)
			}
			*slot = off
		},
	} {
		ix := newIndex()
		for i, k := range keys {
			insert(ix, k, int32(i))
		}
		if len(ix.slots) != minSlots {
			t.Fatalf("%s: table grew to %d slots; the collision set assumes %d", name, len(ix.slots), minSlots)
		}
		wrapped := func(stage string) {
			t.Helper()
			if s := ix.slots[0]; s.used == 0 || Mix64(s.key)&uint64(len(ix.slots)-1) != uint64(len(ix.slots)-1) {
				t.Fatalf("%s %s: the probe run did not wrap to slot 0", name, stage)
			}
		}
		wrapped("inserted")
		check := func(stage string) {
			t.Helper()
			if ix.len() != len(keys) {
				t.Fatalf("%s %s: len = %d, want %d", name, stage, ix.len(), len(keys))
			}
			for i, k := range keys {
				off, ok := ix.get(k)
				if !ok || off != int32(i) {
					t.Fatalf("%s %s: key %d: off=%d ok=%v, want %d", name, stage, k, off, ok, i)
				}
			}
			visits := map[uint64]int{}
			ix.forEach(func(key uint64, _ int32) { visits[key]++ })
			for _, k := range keys {
				if visits[k] != 1 {
					t.Fatalf("%s %s: forEach visited key %d %d times", name, stage, k, visits[k])
				}
			}
			if len(visits) != len(keys) {
				t.Fatalf("%s %s: forEach visited %d keys, want %d", name, stage, len(visits), len(keys))
			}
		}
		check("wrapped")
		ix.reserve(1000)
		if len(ix.slots) != grown {
			t.Fatalf("%s: reserve(1000) grew the table to %d slots, want %d", name, len(ix.slots), grown)
		}
		wrapped("after reserve")
		check("after reserve")
	}
}

func TestIndexQuickMapEquivalence(t *testing.T) {
	prop := func(ops []struct {
		Key uint64
		Off int32
	}) bool {
		ix := newIndex()
		ref := map[uint64]int32{}
		for _, op := range ops {
			ix.set(op.Key, op.Off)
			ref[op.Key] = op.Off
		}
		if ix.len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := ix.get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// indexOpKeys is the key pool of checkIndexOps: key 0 and 23 other keys
// sharing its home slot at the minimum size (so they also collide after
// every doubling with probability ½ each), then 128 spread keys.
var indexOpKeys = func() []uint64 {
	keys := homeKeys(24, minSlots, Mix64(0)&(minSlots-1))
	for i := uint64(1); i <= 128; i++ {
		keys = append(keys, i*0x9E3779B97F4A7C15)
	}
	return keys
}()

// checkIndexOps interprets data as a sequence of 4-byte index operations
// (opcode, key selector, two bytes of argument) and checks every result
// against a Go map. The returned string describes the first divergence,
// or is empty.
func checkIndexOps(data []byte) string {
	ix := newIndex()
	ref := map[uint64]int32{}
	for n := 0; len(data) >= 4; n, data = n+1, data[4:] {
		key := indexOpKeys[int(data[1])%len(indexOpKeys)]
		arg := int32(binary.LittleEndian.Uint16(data[2:]))
		want, present := ref[key]
		switch op := data[0] % 16; {
		case op < 6: // the merge and update paths' upsert
			slot, found := ix.lookupOrReserve(key)
			if found != present || found && *slot != want {
				return opFailure(n, "lookupOrReserve", key, *slot, found, want, present)
			}
			if !found {
				*slot = arg
				ref[key] = arg
			}
		case op < 10:
			off, ok := ix.get(key)
			if ok != present || ok && off != want {
				return opFailure(n, "get", key, off, ok, want, present)
			}
		case op < 14:
			ix.set(key, arg)
			ref[key] = arg
		case op < 15:
			ix.reserve(int(arg % 512))
		default:
			ix.reset()
			clear(ref)
		}
		if ix.len() != len(ref) {
			return opFailure(n, "len", key, int32(ix.len()), true, int32(len(ref)), true)
		}
	}
	seen := map[uint64]bool{}
	bad := ""
	ix.forEach(func(key uint64, off int32) {
		if want, ok := ref[key]; bad == "" && (!ok || seen[key] || off != want) {
			bad = opFailure(-1, "forEach", key, off, true, want, ok && !seen[key])
		}
		seen[key] = true
	})
	if bad == "" && len(seen) != len(ref) {
		bad = opFailure(-1, "forEach count", 0, int32(len(seen)), true, int32(len(ref)), true)
	}
	return bad
}

func opFailure(n int, op string, key uint64, got int32, gotOK bool, want int32, wantOK bool) string {
	return fmt.Sprintf("op %d %s key %d: got (%d, %v), want (%d, %v)", n, op, key, got, gotOK, want, wantOK)
}

// TestIndexOpsMatchMap runs random lookupOrReserve/get/set/reserve/reset
// sequences over key 0, keys that collide under Mix64, and spread keys, and
// checks the index against a Go map after every operation.
func TestIndexOpsMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for run := 0; run < 300; run++ {
		data := make([]byte, 4*(1+rng.Intn(2000)))
		rng.Read(data)
		if msg := checkIndexOps(data); msg != "" {
			t.Fatalf("run %d: %s", run, msg)
		}
	}
}

func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2, 0, 6, 0, 0, 0, 10, 1, 3, 0})
	f.Add([]byte{0, 0, 5, 0, 14, 0, 255, 1, 6, 0, 0, 0, 15, 0, 0, 0, 6, 0, 0, 0})
	collide := make([]byte, 0, 4*48)
	for k := 0; k < 24; k++ {
		collide = append(collide, 0, byte(k), byte(k), 0)
	}
	for k := 0; k < 24; k++ {
		collide = append(collide, 6, byte(k), 0, 0)
	}
	f.Add(collide)
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg := checkIndexOps(data); msg != "" {
			t.Fatal(msg)
		}
	})
}
