package stm

// Table is an open-addressed hash table keyed by Addr, purpose-built for
// transaction write sets and orec-ownership sets. It replaces the Go maps the
// engines used before: a map allocates buckets on first insert and again as
// it grows, which put several allocations on every transaction's hot path and
// made the abort/retry loop GC-noisy — exactly the metadata-management cost
// Ravi identifies as a first-order term in TM throughput.
//
// Layout: a small fixed-size table lives inline in the descriptor (no pointer
// chase, no allocation); when a transaction exceeds tableSmallMax distinct
// keys the table spills to a growable heap-allocated table that doubles as
// needed. The spill table is retained across Reset, so a descriptor reaches a
// steady state where Begin/insert/lookup/Reset allocate nothing at all.
//
// Reset is O(1): slots carry a generation stamp and emptiness is "stamp does
// not match the table's current generation". On the (once per 2^32 resets)
// generation wrap the slots are scrubbed so stale stamps cannot alias.
//
// Deletion is intentionally unsupported — transactions only add entries
// between Begin and Commit/Abort — which keeps probing tombstone-free: a
// probe chain ends at the first empty slot.
//
// The value type V must not hold pointers that need timely release: stale
// values persist in dead slots until overwritten (engines store uint64 words
// and orec metadata, both scalar).
//
// A Table must be confined to one goroutine, like the descriptor it lives in.
// The zero value is ready to use.
type Table[V any] struct {
	n   int
	gen uint32
	big []tslot[V] // spill table (power of two); nil until first spill
	// keys is a dense journal of the live keys in insertion order, so commit
	// write-back and rollback iterate O(n) entries rather than scanning every
	// slot of a possibly-spilled table. Its backing array is retained across
	// Reset for the same steady-state-zero-allocation reason the spill table
	// is.
	keys  []Addr
	small [tableSmallSlots]tslot[V]
}

type tslot[V any] struct {
	key Addr
	gen uint32 // slot is live iff gen == Table.gen
	val V
}

const (
	// tableSmallSlots is the inline table size (power of two). At 16 bytes
	// per uint64-valued slot the inline table is 512 B — cheap enough to
	// embed in every descriptor, large enough that the common short
	// transaction never spills.
	tableSmallSlots = 32
	// tableSmallMax is the spill threshold (75% load): beyond this many
	// distinct keys the table moves to the growable spill table.
	tableSmallMax = 24
	// tableSpillSlots is the initial spill-table size.
	tableSpillSlots = 128
)

// tableHash is Knuth multiplicative hashing; the high bits are folded in by
// the mask because slot counts are powers of two and Addr keys are typically
// small dense integers.
func tableHash(a Addr) uint32 {
	h := uint32(a) * 2654435761
	return h ^ h>>16
}

func (t *Table[V]) slots() []tslot[V] {
	if t.big != nil {
		return t.big
	}
	return t.small[:]
}

// Len returns the number of live entries.
func (t *Table[V]) Len() int { return t.n }

// Get returns the value stored for a.
func (t *Table[V]) Get(a Addr) (V, bool) {
	if t.n == 0 {
		// Fast miss without hashing: the dominant case on read paths (a
		// read-only transaction probes an always-empty write set per Load).
		var zero V
		return zero, false
	}
	slots := t.slots()
	mask := uint32(len(slots) - 1)
	for i := tableHash(a) & mask; ; i = (i + 1) & mask {
		s := &slots[i]
		if s.gen != t.gen {
			var zero V
			return zero, false
		}
		if s.key == a {
			return s.val, true
		}
	}
}

// Put inserts or updates the value for a.
func (t *Table[V]) Put(a Addr, v V) {
	if t.gen == 0 {
		t.gen = 1
	}
	for {
		slots := t.slots()
		mask := uint32(len(slots) - 1)
		i := tableHash(a) & mask
		for {
			s := &slots[i]
			if s.gen != t.gen {
				if t.needGrow() {
					t.grow()
					break // re-probe against the new table
				}
				s.key, s.gen, s.val = a, t.gen, v
				if t.keys == nil {
					t.keys = make([]Addr, 0, tableSmallSlots)
				}
				t.keys = append(t.keys, a)
				t.n++
				return
			}
			if s.key == a {
				s.val = v
				return
			}
			i = (i + 1) & mask
		}
	}
}

// needGrow reports whether one more insert would push the current table past
// 75% load. Staying under that bound guarantees every probe chain ends at an
// empty slot, so lookups need no tombstone or wrap-count logic.
func (t *Table[V]) needGrow() bool {
	if t.big == nil {
		return t.n >= tableSmallMax
	}
	return 4*(t.n+1) > 3*len(t.big)
}

// grow spills the inline table to the heap or doubles the spill table,
// rehashing live entries. Dead (stale-generation) slots are not carried over.
func (t *Table[V]) grow() {
	newCap := tableSpillSlots
	if t.big != nil {
		newCap = len(t.big) * 2
	}
	next := make([]tslot[V], newCap)
	mask := uint32(newCap - 1)
	old := t.slots()
	for idx := range old {
		s := &old[idx]
		if s.gen != t.gen {
			continue
		}
		for i := tableHash(s.key) & mask; ; i = (i + 1) & mask {
			d := &next[i]
			if d.gen != t.gen {
				*d = *s
				break
			}
		}
	}
	t.big = next
}

// Reset empties the table in O(1), retaining the spill table's and key
// journal's capacity so a recycled or retried descriptor allocates nothing on
// its next attempt.
func (t *Table[V]) Reset() {
	t.n = 0
	t.keys = t.keys[:0]
	t.gen++
	if t.gen == 0 {
		// Generation wrapped: stamps from 2^32 resets ago would alias as
		// live. Scrub every slot and restart the generation counter.
		clear(t.small[:])
		clear(t.big)
		t.gen = 1
	}
}

// Cap returns the table's slot capacity — at most 32 slots until a
// transaction spills, and at most ~2.7x the largest entry count the
// descriptor has ever held after that. Exposed for load-factor tests.
func (t *Table[V]) Cap() int {
	if t.big != nil {
		return len(t.big)
	}
	return tableSmallSlots
}

// Entry returns the i'th live entry in insertion order (0 <= i < Len()). The
// Len/Entry pair is the allocation-free iteration protocol used by the
// engines' commit write-back and rollback loops; cost is one probe per live
// entry, independent of slot capacity:
//
//	for i := 0; i < t.Len(); i++ {
//		a, v := t.Entry(i)
//		...
//	}
func (t *Table[V]) Entry(i int) (Addr, V) {
	a := t.keys[i]
	v, _ := t.Get(a)
	return a, v
}

// Range calls fn for each live entry in insertion order until fn returns
// false. Hot paths use Len/Entry instead; Range is for tests and diagnostics.
func (t *Table[V]) Range(fn func(Addr, V) bool) {
	for i := 0; i < t.n; i++ {
		if a, v := t.Entry(i); !fn(a, v) {
			return
		}
	}
}
