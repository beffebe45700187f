package client

import (
	"context"

	"votm/wire"
)

// ScanOptions tunes a Scan. The zero value selects the defaults.
type ScanOptions struct {
	// PageSize is the per-page entry limit. It is clamped to
	// [1, wire.MaxScanKeys]; 0 selects wire.MaxScanKeys. The server may
	// return shorter pages than requested (it also bounds pages by value
	// bytes), so PageSize shapes round trips, not the result.
	PageSize int
}

// Scan iterates the ordered key range [start, end) in ascending key order.
// Pages are fetched lazily as Next is called; each page is an atomic,
// consistent snapshot of the whole keyspace, but the scan as a whole is
// not one snapshot — writes committed between pages appear or not
// according to where the cursor stands, exactly like iterating any shared
// ordered map under concurrent writers.
//
// Page fetches go through the client's normal request path, so BUSY
// responses (a saturated queue)
// are retried transparently under Options.BusyRetries; the continuation
// cursor names a key, not server state, so a retried or resumed page is
// always well-defined.
//
//	sc := c.Scan(lo, hi, client.ScanOptions{})
//	for sc.Next(ctx) {
//	    e := sc.Entry()
//	    use(e.Key, e.Value)
//	}
//	if err := sc.Err(); err != nil { ... }
func (c *Client) Scan(start, end uint64, opts ScanOptions) *Scanner {
	limit := opts.PageSize
	if limit <= 0 || limit > wire.MaxScanKeys {
		limit = wire.MaxScanKeys
	}
	return &Scanner{c: c, start: start, end: end, limit: uint32(limit)}
}

// Scanner is a lazy, paging iterator over an ordered key range. Not safe
// for concurrent use.
type Scanner struct {
	c          *Client
	start, end uint64
	limit      uint32

	cursor    uint64
	hasCursor bool
	done      bool // no further pages after the buffered one

	entries []wire.ScanEntry
	i       int // index of the CURRENT entry (Entry); advanced by Next
	primed  bool
	err     error
}

// Next fetches the next entry, pulling the next page from the server when
// the buffered one is exhausted. It returns false at the end of the range
// or on error; check Err to tell the two apart.
func (s *Scanner) Next(ctx context.Context) bool {
	if s.err != nil {
		return false
	}
	if s.primed {
		s.i++
	}
	s.primed = true
	for s.i >= len(s.entries) {
		if s.done {
			return false
		}
		if !s.fetch(ctx) {
			return false
		}
	}
	return true
}

// fetch loads the next page into the buffer, reporting success.
func (s *Scanner) fetch(ctx context.Context) bool {
	resp, err := s.c.do(ctx, &wire.Request{
		Op:        wire.OpScan,
		Key:       s.start,
		End:       s.end,
		Limit:     s.limit,
		Cursor:    s.cursor,
		HasCursor: s.hasCursor,
	})
	if err != nil {
		s.err = err
		return false
	}
	s.entries, s.i = resp.Entries, 0
	s.done = !resp.More
	if resp.More {
		s.cursor, s.hasCursor = resp.Cursor, true
	}
	return true
}

// Entry returns the current entry. Valid only after a true Next; the
// returned slices remain valid across further Next calls.
func (s *Scanner) Entry() wire.ScanEntry { return s.entries[s.i] }

// Err returns the error that stopped the scan, nil after a clean end.
func (s *Scanner) Err() error { return s.err }
