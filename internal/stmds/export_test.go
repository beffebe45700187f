package stmds

import (
	"fmt"

	"votm/internal/core"
	"votm/internal/stm"
)

// Buckets returns the directory's current bucket count.
func (sl *SkipList) Buckets(tx core.Tx) int { return int(tx.Load(sl.base+slHdrMask)) + 1 }

// CheckChains holds the hash directory to the level-0 list it indexes: every
// node on a chain sits in its key's bucket and is linked at level 0 (no dead
// node is chained), no node is chained twice (which also ends a cyclic
// chain), and the chains hold exactly the level-0 nodes, so their lengths sum
// to Len and every live key is reachable through its bucket exactly once.
func (sl *SkipList) CheckChains(tx core.Tx) error {
	live := map[Ref]uint64{}
	for n := sl.First(tx); n != NilRef; n = sl.Next(tx, n) {
		live[n] = sl.NodeKey(tx, n)
	}
	dir, mask := tx.Load(sl.base+slHdrDir), tx.Load(sl.base+slHdrMask)
	chained := map[Ref]bool{}
	for b := uint64(0); b <= mask; b++ {
		w := addr(dir) + stm.Addr(b)
		for n := tx.Load(w); n != NilRef; n = tx.Load(addr(n) + slHnext) {
			key, ok := live[n]
			switch {
			case !ok:
				return fmt.Errorf("bucket %d chains node %d, which is not linked at level 0", b, n)
			case chained[n]:
				return fmt.Errorf("node %d (key %d) is chained twice", n, key)
			case bucket(dir, mask, key) != w:
				return fmt.Errorf("key %d is chained in bucket %d, not its own", key, b)
			}
			chained[n] = true
		}
	}
	if len(chained) != len(live) {
		return fmt.Errorf("the chains hold %d nodes, level 0 holds %d", len(chained), len(live))
	}
	return nil
}
