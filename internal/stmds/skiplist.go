package stmds

import (
	"votm/internal/core"
	"votm/internal/stm"
)

// SkipList is a transactional ordered map in view memory — the ordered
// counterpart of HashMap, with the same Put/Swap/Get/Delete surface plus
// in-order iteration (First/Seek/Next/ForEach). votmd's shards use it as
// their key index so wire-level SCAN can serve ordered, consistent pages.
//
// Layout: header [maxLevel, level, dir, mask, head_0 .. head_{maxLevel-1}]
// where level is the highest tower height ever linked (searches descend from
// it, not from maxLevel, so a small list costs a few loads rather than a
// full-height descent); each node is [key, val, hnext, next_0 .. next_{h-1}]
// where h is the node's tower height.
//
// A hash directory is threaded through the same nodes: dir names mask+1
// bucket words and hnext chains a node into its key's bucket (push-front on
// insert; a doubling, NewDir then GrowDir, rebuilds the chains from level 0),
// so Get, Delete and Swap's overwrite find a key in about three loads, not a
// tower descent; only an insert walks the tower, to link the new node.
//
// Towers are DETERMINISTIC: a key's height is a pure function of the key
// (trailing one-bits of a dedicated 64-bit mix, p = 1/2 per level), not of
// an RNG. That keeps the memory discipline honest — NewNode(key) is called
// outside the transaction and the insert body never needs randomness, so
// retried bodies stay side-effect free — and it makes whole-server replay
// byte-deterministic: the same operation sequence rebuilds the same towers.
type SkipList struct {
	v        view
	heap     *stm.Heap
	base     stm.Addr
	maxLevel int
}

const (
	// slMaxTower caps tower heights; 2^24 expected keys per level-capped
	// list is far beyond a shard's capacity.
	slMaxTower = 24

	slKey   = 0 // node word 0: the key
	slVal   = 1 // node word 1: the value
	slHnext = 2 // node word 2: the next node in the key's bucket chain
	slNext  = 3 // node words 3..: forward pointers, level 0 first

	slHdrLevel = 1 // header word 1: current highest linked level
	slHdrDir   = 2 // header word 2: the bucket array
	slHdrMask  = 3 // header word 3: bucket count - 1 (a power of two - 1)
	slHdrHeads = 4 // header words 4..: per-level head pointers

	// The first directory has a bucket per slDirHeapWords free words of the
	// view's heap (about one per small-valued key it holds), and at least
	// slDirMin.
	slDirHeapWords = 16
	slDirMin       = 16
)

// slHeadRef is the internal "predecessor is the header" sentinel used while
// searching. It can never collide with a real node: NilRef-1 is not a valid
// allocation address in any practically-sized heap.
const slHeadRef Ref = NilRef - 1

// NewSkipList allocates a skip list with the given maximum tower height in
// v. maxLevel <= 0 selects the default (16); values above the cap (24) are
// clamped. Beside the header it allocates the first directory up front: a
// bucket word per slDirHeapWords of v's free words, at least slDirMin, so a
// view without room for the header and slDirMin words is ErrOutOfMemory.
func NewSkipList(v *core.View, maxLevel int) (*SkipList, error) {
	if maxLevel <= 0 {
		maxLevel = 16
	}
	if maxLevel > slMaxTower {
		maxLevel = slMaxTower
	}
	buckets := slDirMin
	for buckets*slDirHeapWords < v.Size()-v.AllocatedWords() {
		buckets <<= 1
	}
	blocks, err := v.AllocBatch([]int{slHdrHeads + maxLevel, buckets}, nil)
	if err != nil {
		return nil, err
	}
	base, dir := blocks[0], blocks[1]
	h := v.Heap()
	h.Store(base, uint64(maxLevel))
	h.Store(base+slHdrLevel, 1)
	h.Store(base+slHdrDir, uint64(dir))
	h.Store(base+slHdrMask, uint64(buckets-1))
	for i := 0; i < maxLevel; i++ {
		h.Store(base+slHdrHeads+stm.Addr(i), NilRef)
	}
	for i := 0; i < buckets; i++ {
		h.Store(dir+stm.Addr(i), NilRef)
	}
	return &SkipList{v: v, heap: h, base: base, maxLevel: maxLevel}, nil
}

// slMix is the tower-height and bucket hash: heights take its low bits,
// buckets its high half. Its constants deliberately differ from every other
// key mix in the tree (shard placement, sub-shard routing, HashMap buckets),
// so neither heights nor buckets correlate with key placement — a split
// child's keys share subMix's low bits and must not share buckets.
func slMix(key uint64) uint64 {
	h := key
	h ^= h >> 31
	h *= 0x7fb5d329728ea185
	h ^= h >> 27
	h *= 0x81dadef4bc2dd44d
	h ^= h >> 33
	return h
}

// height returns key's deterministic tower height in [1, maxLevel].
func (sl *SkipList) height(key uint64) int {
	h, m := 1, slMix(key)
	for m&1 == 1 && h < sl.maxLevel {
		h++
		m >>= 1
	}
	return h
}

// NodeWords is the allocation size of key's node — key-dependent, because
// the tower height is a function of the key. Callers that pre-allocate in
// bulk through the view's AllocBatch size each slot with this.
func (sl *SkipList) NodeWords(key uint64) int { return slNext + sl.height(key) }

// NewNode allocates key's node (outside any transaction). The node links
// only under key itself: its tower is sized for that key.
func (sl *SkipList) NewNode(key uint64) (Ref, error) {
	n, err := sl.v.Alloc(sl.NodeWords(key))
	if err != nil {
		return NilRef, err
	}
	return Ref(n), nil
}

// FreeNode returns a node to the view allocator.
func (sl *SkipList) FreeNode(n Ref) error { return sl.v.Free(addr(n)) }

// nextWord is the address of pred's forward pointer at lvl (the header's
// when pred is the sentinel).
func (sl *SkipList) nextWord(pred Ref, lvl int) stm.Addr {
	if pred == slHeadRef {
		return sl.base + slHdrHeads + stm.Addr(lvl)
	}
	return addr(pred) + slNext + stm.Addr(lvl)
}

// level reads the current highest linked level, clamped to [1, maxLevel].
// It only ever grows (Delete does not lower it): lowering would make every
// removal revalidate head pointers, and the residual cost of a historic
// peak is a few extra loads, bounded by maxLevel.
func (sl *SkipList) level(tx core.Tx) int {
	l := int(tx.Load(sl.base + slHdrLevel))
	if l < 1 {
		return 1
	}
	if l > sl.maxLevel {
		return sl.maxLevel
	}
	return l
}

// findPreds descends the tower from the current level filling update[lvl]
// with the address of the forward-pointer word to rewrite at each level
// (header words above the current level — nothing is linked there): the
// word that points at the first node with key >= the probe. update is
// caller-stack scratch so searches allocate nothing.
func (sl *SkipList) findPreds(tx core.Tx, key uint64, update *[slMaxTower]stm.Addr) {
	top := sl.level(tx)
	for lvl := sl.maxLevel - 1; lvl >= top; lvl-- {
		update[lvl] = sl.nextWord(slHeadRef, lvl)
	}
	pred := slHeadRef
	for lvl := top - 1; lvl >= 0; lvl-- {
		w := sl.nextWord(pred, lvl)
		for {
			nxt := tx.Load(w)
			if nxt == NilRef || tx.Load(addr(nxt)+slKey) >= key {
				break
			}
			pred = nxt
			w = sl.nextWord(pred, lvl)
		}
		update[lvl] = w
	}
}

// seek is findPreds without recording the update path (read-only walks).
func (sl *SkipList) seek(tx core.Tx, key uint64) Ref {
	pred := slHeadRef
	for lvl := sl.level(tx) - 1; lvl >= 0; lvl-- {
		for {
			nxt := tx.Load(sl.nextWord(pred, lvl))
			if nxt == NilRef || tx.Load(addr(nxt)+slKey) >= key {
				break
			}
			pred = nxt
		}
	}
	return tx.Load(sl.nextWord(pred, 0))
}

// bucket is the address of key's bucket word in a directory of mask+1 words.
func bucket(dir Ref, mask, key uint64) stm.Addr {
	return addr(dir) + stm.Addr(slMix(key)>>32&mask)
}

// chain walks key's bucket chain and returns key's node (NilRef if absent)
// and the word that points at it — the bucket word or a predecessor's hnext.
func (sl *SkipList) chain(tx core.Tx, key uint64) (w stm.Addr, n Ref) {
	w = bucket(tx.Load(sl.base+slHdrDir), tx.Load(sl.base+slHdrMask), key)
	for n = tx.Load(w); n != NilRef && tx.Load(addr(n)+slKey) != key; n = tx.Load(w) {
		w = addr(n) + slHnext
	}
	return w, n
}

// Put sets key to val. If the key is absent it links the pre-allocated
// spare node (which MUST have been allocated with NewNode(key) — its tower
// is sized for that key) and returns used=true; the caller must then not
// reuse spare. If the key exists the value is updated in place.
func (sl *SkipList) Put(tx core.Tx, key, val uint64, spare Ref) (used bool) {
	_, _, used = sl.Swap(tx, key, val, spare)
	return used
}

// Swap sets key to val and reports what it displaced: if the key existed —
// found through its bucket chain, without a tower walk — prev is its previous
// value (existed=true) and the entry is updated in place; otherwise the
// pre-allocated spare node — sized by NewNode(key) for this same key — is
// linked into the tower and pushed onto its bucket chain (used=true). The
// caller must not reuse spare when used, and frees whatever prev referenced
// only after the transaction commits.
func (sl *SkipList) Swap(tx core.Tx, key, val uint64, spare Ref) (prev uint64, existed, used bool) {
	if _, n := sl.chain(tx, key); n != NilRef {
		prev = tx.Load(addr(n) + slVal)
		tx.Store(addr(n)+slVal, val)
		return prev, true, false
	}
	var update [slMaxTower]stm.Addr
	sl.findPreds(tx, key, &update)
	tx.Store(addr(spare)+slKey, key)
	tx.Store(addr(spare)+slVal, val)
	h := sl.height(key)
	for lvl := 0; lvl < h; lvl++ {
		tx.Store(addr(spare)+slNext+stm.Addr(lvl), tx.Load(update[lvl]))
		tx.Store(update[lvl], spare)
	}
	if h > sl.level(tx) {
		tx.Store(sl.base+slHdrLevel, uint64(h))
	}
	b := bucket(tx.Load(sl.base+slHdrDir), tx.Load(sl.base+slHdrMask), key)
	tx.Store(addr(spare)+slHnext, tx.Load(b))
	tx.Store(b, spare)
	return 0, false, true
}

// Get returns the value stored under key.
func (sl *SkipList) Get(tx core.Tx, key uint64) (uint64, bool) {
	if _, n := sl.chain(tx, key); n != NilRef {
		return tx.Load(addr(n) + slVal), true
	}
	return 0, false
}

// Delete unlinks key's node from its bucket chain and at every level of its
// tower, returning it for freeing after commit.
func (sl *SkipList) Delete(tx core.Tx, key uint64) (Ref, bool) {
	w, n := sl.chain(tx, key)
	if n == NilRef {
		return NilRef, false
	}
	tx.Store(w, tx.Load(addr(n)+slHnext))
	var update [slMaxTower]stm.Addr
	sl.findPreds(tx, key, &update)
	h := sl.height(key)
	for lvl := 0; lvl < h; lvl++ {
		// Keys are unique and n is linked at every level < h, so the
		// recorded pointer word necessarily targets n here.
		tx.Store(update[lvl], tx.Load(addr(n)+slNext+stm.Addr(lvl)))
	}
	return n, true
}

// NewDir returns the words of the directory a list of keys entries needs —
// the bucket count doubled until it covers keys — or 0 if the current one
// does. It reads the header outside any transaction: a hint for the caller to
// allocate by, as it allocates nodes; GrowDir decides inside the transaction.
func (sl *SkipList) NewDir(keys int) int {
	b := int(sl.heap.Load(sl.base+slHdrMask)) + 1
	if keys <= b {
		return 0
	}
	for b < keys {
		b <<= 1
	}
	return b
}

// GrowDir installs dir, words words sized by NewDir, as the directory and
// rebuilds every chain from level 0, returning the array it replaced for
// freeing after commit (used=true). If the directory is already as large (a
// concurrent grower committed first) it changes nothing; the caller frees dir.
func (sl *SkipList) GrowDir(tx core.Tx, dir Ref, words int) (old Ref, used bool) {
	if uint64(words) <= tx.Load(sl.base+slHdrMask)+1 {
		return NilRef, false
	}
	mask := uint64(words - 1)
	for i := 0; i < words; i++ {
		tx.Store(addr(dir)+stm.Addr(i), NilRef)
	}
	for n := sl.First(tx); n != NilRef; n = sl.Next(tx, n) {
		b := bucket(dir, mask, tx.Load(addr(n)+slKey))
		tx.Store(addr(n)+slHnext, tx.Load(b))
		tx.Store(b, n)
	}
	old = tx.Load(sl.base + slHdrDir)
	tx.Store(sl.base+slHdrDir, dir)
	tx.Store(sl.base+slHdrMask, mask)
	return old, true
}

// First returns the least-keyed node, NilRef when empty.
func (sl *SkipList) First(tx core.Tx) Ref { return tx.Load(sl.base + slHdrHeads) }

// Seek returns the first node with key >= from, NilRef when none.
func (sl *SkipList) Seek(tx core.Tx, from uint64) Ref { return sl.seek(tx, from) }

// Next returns n's level-0 successor, NilRef at the end.
func (sl *SkipList) Next(tx core.Tx, n Ref) Ref { return tx.Load(addr(n) + slNext) }

// NodeKey returns n's key.
func (sl *SkipList) NodeKey(tx core.Tx, n Ref) uint64 { return tx.Load(addr(n) + slKey) }

// NodeVal returns n's value.
func (sl *SkipList) NodeVal(tx core.Tx, n Ref) uint64 { return tx.Load(addr(n) + slVal) }

// ForEach calls fn for every (key, value) entry in ascending key order. fn
// must not modify the list; collect first, then mutate in a second pass.
func (sl *SkipList) ForEach(tx core.Tx, fn func(key, val uint64)) {
	for n := sl.First(tx); n != NilRef; n = sl.Next(tx, n) {
		fn(tx.Load(addr(n)+slKey), tx.Load(addr(n)+slVal))
	}
}

// Len counts entries (O(n); test/diagnostic use).
func (sl *SkipList) Len(tx core.Tx) int {
	n := 0
	for c := sl.First(tx); c != NilRef; c = sl.Next(tx, c) {
		n++
	}
	return n
}
