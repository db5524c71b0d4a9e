// Package flowtable implements the forwarder's connection table
// (Section 3, Figure 6). For each connection the paper's forwarder keeps
// two entries: one mapping the forward 5-tuple to the adjacent VNF
// instance and next-hop forwarder chosen by load balancing on the first
// packet, and one mapping the reversed 5-tuple to the previous hop, so
// reverse packets retrace the same instances (flow affinity and symmetric
// return). This implementation stores the equivalent information as a
// single record under the direction-independent canonical key; a lookup
// reports whether the querying packet travels in the connection's forward
// or reverse direction.
//
// The table is sharded by flow-key hash so multiple forwarder cores can
// share one table with little contention.
package flowtable

import (
	"sync"
	"sync/atomic"

	"switchboard/internal/labels"
	"switchboard/internal/packet"
)

// Hop identifies a load-balancing target: a VNF instance, a peer
// forwarder, or an edge instance. Hop values are assigned by the
// forwarder's rule table; None means "not set".
type Hop uint32

// None is the zero Hop.
const None Hop = 0

// Record is the per-connection state (the paper's two flow-table entries
// combined): the adjacent VNF instance serving the connection at this
// forwarder, the next hop toward the egress, and the previous hop toward
// the ingress.
type Record struct {
	VNF  Hop // local VNF instance (None at transit-only forwarders)
	Next Hop // next hop after local processing, toward egress
	Prev Hop // previous hop, toward ingress (for symmetric return)
	// Ann is the flow's steering annotation (labels.AnnMigrated after a
	// live handoff); forwarders stamp it onto every packet of the flow.
	Ann uint8
}

// Key is the flow-table key: the label stack plus the canonical 5-tuple.
type Key struct {
	Chain  uint32
	Egress uint32
	Flow   packet.FlowKey
}

type entry struct {
	rec Record
	// fwdCanonical records whether the connection's forward direction
	// has the canonical key orientation.
	fwdCanonical bool
	epoch        uint32
}

type shard struct {
	mu sync.Mutex
	m  map[Key]entry
}

// Table is a sharded flow table.
type Table struct {
	shards []shard
	mask   uint64
	epoch  atomic.Uint32 // advanced by Advance; used for idle eviction
}

// New returns a table with the given number of shards, rounded up to a
// power of two (minimum 1).
func New(shards int) *Table {
	n := 1
	for n < shards {
		n <<= 1
	}
	t := &Table{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range t.shards {
		t.shards[i].m = make(map[Key]entry)
	}
	return t
}

func (t *Table) shardFor(k Key) *shard {
	return &t.shards[k.Flow.Hash()&t.mask]
}

func canonicalKey(st labels.Stack, flow packet.FlowKey) (Key, bool) {
	cf, same := flow.Canonical()
	return Key{Chain: st.Chain, Egress: st.Egress, Flow: cf}, same
}

// Insert records the decisions made for a new connection whose forward
// direction is `flow`.
func (t *Table) Insert(st labels.Stack, flow packet.FlowKey, rec Record) {
	k, fwdCanonical := canonicalKey(st, flow)
	e := entry{rec: rec, fwdCanonical: fwdCanonical, epoch: t.epoch.Load()}
	s := t.shardFor(k)
	s.mu.Lock()
	s.m[k] = e
	s.mu.Unlock()
}

// Lookup returns the connection record for a packet with the given
// labels and 5-tuple, and whether that packet travels in the connection's
// forward direction.
func (t *Table) Lookup(st labels.Stack, flow packet.FlowKey) (rec Record, forward, ok bool) {
	k, sameAsCanonical := canonicalKey(st, flow)
	epoch := t.epoch.Load()
	s := t.shardFor(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if ok && e.epoch != epoch {
		e.epoch = epoch
		s.m[k] = e
	}
	s.mu.Unlock()
	if !ok {
		return Record{}, false, false
	}
	return e.rec, sameAsCanonical == e.fwdCanonical, true
}

// batchChunk is how many entries LookupBatch resolves per pass; its
// per-pass scratch lives on the stack, so a burst of any size is
// resolved without allocating.
const batchChunk = 64

// LookupBatch performs Lookup for n parallel entries (sts[i], flows[i]),
// writing results into recs/forwards/oks. Entries are grouped by shard so
// each shard lock is acquired at most once per chunk of up to batchChunk
// entries, instead of once per packet — the batched data path's answer
// to flow-table lock pressure. All five slices must have equal length.
func (t *Table) LookupBatch(sts []labels.Stack, flows []packet.FlowKey, recs []Record, forwards, oks []bool) {
	epoch := t.epoch.Load()
	for lo := 0; lo < len(sts); lo += batchChunk {
		hi := min(lo+batchChunk, len(sts))
		t.lookupChunk(epoch, sts[lo:hi], flows[lo:hi], recs[lo:hi], forwards[lo:hi], oks[lo:hi])
	}
}

func (t *Table) lookupChunk(epoch uint32, sts []labels.Stack, flows []packet.FlowKey, recs []Record, forwards, oks []bool) {
	// Scratch: canonical keys, orientation bits, and shard indices.
	var (
		keys     [batchChunk]Key
		canon    [batchChunk]bool
		shardIdx [batchChunk]uint64
	)
	n := len(sts)
	for i := 0; i < n; i++ {
		keys[i], canon[i] = canonicalKey(sts[i], flows[i])
		shardIdx[i] = keys[i].Flow.Hash() & t.mask
	}
	const visited = ^uint64(0) // shard indices are small, so this is free
	for i := 0; i < n; i++ {
		si := shardIdx[i]
		if si == visited {
			continue
		}
		s := &t.shards[si]
		s.mu.Lock()
		for j := i; j < n; j++ {
			if shardIdx[j] != si {
				continue
			}
			shardIdx[j] = visited
			e, ok := s.m[keys[j]]
			oks[j] = ok
			if !ok {
				recs[j] = Record{}
				forwards[j] = false
				continue
			}
			if e.epoch != epoch {
				e.epoch = epoch
				s.m[keys[j]] = e
			}
			recs[j] = e.rec
			forwards[j] = canon[j] == e.fwdCanonical
		}
		s.mu.Unlock()
	}
}

// Remove deletes a connection.
func (t *Table) Remove(st labels.Stack, flow packet.FlowKey) {
	k, _ := canonicalKey(st, flow)
	s := t.shardFor(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// Len returns the number of tracked connections.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Occupancy returns the number of tracked connections per shard, in
// shard order — the steering-skew view the forwarder's flowpart gauges
// publish. The counts are read shard by shard, so the result is a
// consistent per-shard set, not an atomic whole-table snapshot.
func (t *Table) Occupancy() []int {
	out := make([]int, len(t.shards))
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		out[i] = len(s.m)
		s.mu.Unlock()
	}
	return out
}

// Advance bumps the idle-tracking epoch and evicts connections not
// looked up within `keep` epochs. The owner calls this periodically (e.g.
// once per idle-timeout interval) instead of stamping wall-clock time on
// the fast path.
func (t *Table) Advance(keep uint32) (evicted int) {
	cur := t.epoch.Add(1)
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for k, e := range s.m {
			if cur-e.epoch > keep {
				delete(s.m, k)
				evicted++
			}
		}
		s.mu.Unlock()
	}
	return evicted
}
