package server

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"votm"
	"votm/wire"
)

// tornValueLen is the self-checking values' size: 32 words, so a copy that
// races a writer has room to tear.
const tornValueLen = 256

// chainValue is key's value at version ver: the first word packs both, every
// later one chains from it, so a torn or misplaced value fails chainKey.
func chainValue(key uint64, ver uint32) []byte {
	v := make([]byte, tornValueLen)
	x := key<<32 | uint64(ver)
	for i := 0; i < len(v); i += 8 {
		binary.LittleEndian.PutUint64(v[i:], x)
		x = x*0x9E3779B97F4A7C15 + 1
	}
	return v
}

// chainKey returns the key a chainValue names, or false for any other bytes.
func chainKey(v []byte) (uint64, bool) {
	if len(v) != tornValueLen {
		return 0, false
	}
	x := binary.LittleEndian.Uint64(v)
	for i := 8; i < len(v); i += 8 {
		x = x*0x9E3779B97F4A7C15 + 1
		if binary.LittleEndian.Uint64(v[i:]) != x {
			return 0, false
		}
	}
	return binary.LittleEndian.Uint64(v) >> 32, true
}

// roundTrip writes reqs as one burst on cli and reads their answers.
func roundTrip(cli net.Conn, reqs []wire.Request) (map[uint32]*wire.Response, error) {
	var buf []byte
	for i := range reqs {
		var err error
		if buf, err = wire.AppendRequest(buf, &reqs[i]); err != nil {
			return nil, err
		}
	}
	if _, err := cli.Write(buf); err != nil {
		return nil, err
	}
	got := make(map[uint32]*wire.Response, len(reqs))
	for len(got) < len(reqs) {
		r, err := wire.ReadResponse(cli)
		if err != nil {
			return nil, err
		}
		got[r.ID] = r
	}
	return got, nil
}

// TestReaderGetsNeverTorn races GETs answered on the connection readers
// against PUTs that overwrite the same preloaded keys with self-checking
// values, on a lock-mode shard (one token, Q = 1) and on TM shards under
// each engine. Every GET must answer OK with a value that parses and names its
// own key: a torn read or a read trusted after its validation failed shows as
// a broken chain or a foreign key.
func TestReaderGetsNeverTorn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		engine  votm.EngineKind
		workers int
	}{
		{"lock-mode", votm.NOrec, 1},
		{"NOrec", votm.NOrec, 2},
		{"OrecEagerRedo", votm.OrecEagerRedo, 2},
		{"TL2", votm.TL2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testReaderGets(t, Config{Shards: 1, WorkersPerShard: tc.workers, Engine: tc.engine})
		})
	}
}

func testReaderGets(t *testing.T, cfg Config) {
	const (
		keys    = 256
		readers = 2
		writers = 2
		bursts  = 150 // per reader
		burst   = 16
	)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	shutdownServer(t, s)
	cli := pipeServe(t, s)
	for k := uint64(0); k < keys; k++ {
		got, err := roundTrip(cli, []wire.Request{{Op: wire.OpPut, ID: 1, Key: k, Value: chainValue(k, 0)}})
		if err != nil {
			t.Fatal(err)
		}
		if r := got[1]; r.Status != wire.StatusOK {
			t.Fatalf("preload PUT %d: %v", k, r.Status)
		}
	}

	var (
		stop     atomic.Bool
		readDone atomic.Int64 // bursts the readers finished
		wg       sync.WaitGroup
		errs     = make(chan error, readers+writers+1)
	)
	for w := 0; w < writers; w++ {
		cli := pipeServe(t, s)
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			reqs := make([]wire.Request, burst/2)
			for ver := uint32(1); !stop.Load(); ver++ {
				for i := range reqs {
					k := uint64(rng.Intn(keys))
					reqs[i] = wire.Request{Op: wire.OpPut, ID: uint32(i + 1), Key: k, Value: chainValue(k, ver)}
				}
				got, err := roundTrip(cli, reqs)
				if err != nil {
					errs <- err
					return
				}
				for id, r := range got {
					if r.Status != wire.StatusOK {
						errs <- fmt.Errorf("PUT %d: %v (%s)", id, r.Status, r.Value)
						return
					}
				}
			}
		}(int64(w + 1))
	}
	for rd := 0; rd < readers; rd++ {
		cli := pipeServe(t, s)
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			reqs := make([]wire.Request, burst)
			for b := 0; b < bursts; b++ {
				for i := range reqs {
					reqs[i] = wire.Request{Op: wire.OpGet, ID: uint32(i + 1), Key: uint64(rng.Intn(keys))}
				}
				got, err := roundTrip(cli, reqs)
				if err != nil {
					errs <- err
					return
				}
				for _, req := range reqs {
					r := got[req.ID]
					if r.Status != wire.StatusOK {
						errs <- fmt.Errorf("GET %d: %v (%s)", req.Key, r.Status, r.Value)
						return
					}
					if k, ok := chainKey(r.Value); !ok || k != req.Key {
						errs <- fmt.Errorf("GET %d: a torn or foreign value (names key %d, parses %v)", req.Key, k, ok)
						return
					}
				}
				readDone.Add(1)
			}
		}(int64(100 + rd))
	}
	go func() {
		for readDone.Load() < readers*bursts && len(errs) == 0 {
			time.Sleep(time.Millisecond)
		}
		stop.Store(true)
	}()
	wg.Wait()
	stop.Store(true)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rs := s.RoundStats()
	if rs.Gets != readers*bursts*burst || rs.GetFallbacks == rs.Gets || rs.GetTries < rs.Gets-rs.GetFallbacks {
		t.Fatalf("GET meters %+v: want every GET counted, most served by a validated read", rs)
	}
	t.Logf("%d GETs, %d validated-read tries, %d fell back", rs.Gets, rs.GetTries, rs.GetFallbacks)
}
