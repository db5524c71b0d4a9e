package dht

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"switchboard/internal/flowtable"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
)

// Cluster is a site-local group of forwarder nodes sharing one
// replicated flow table. Each member obtains a *Node handle that
// implements the forwarder's flow-store operations; writes are
// synchronously replicated to `replicas` owners on the ring, reads fall
// through the owners in order, so any member (or a member that takes
// over a failed peer's VNF instances) sees every connection's pinned
// hops.
//
// Replica placement is computed once per membership change, not once
// per record: Join, Fail and Leave rebuild an immutable placement
// snapshot under mu and publish it with one atomic store. The
// per-record paths (Lookup, LookupBatch, Insert, Remove, Advance,
// migration) load the snapshot and never take the cluster lock — the
// same RCU idiom as the forwarder's routing snapshot.
type Cluster struct {
	replicas int

	mu     sync.Mutex // serializes membership changes
	ring   *Ring
	stores map[string]*store
	place  atomic.Pointer[placement]
	epoch  atomic.Uint32
}

// placement is one membership view, never mutated after publication.
// Keys hashing into (hashes[i-1], hashes[i]] — and keys past the last
// vnode, which wrap to vnode 0 — are owned by owners[i], resolved from
// Ring.Owners at build time. all lists every member's store in name
// order, including a gracefully leaving member until its hand-off ends.
type placement struct {
	hashes []uint64
	owners [][]*store
	all    []*store
}

// ownersOf returns the stores owning a key hash, in ring order.
func (p *placement) ownersOf(h uint64) []*store {
	if len(p.hashes) == 0 {
		return nil
	}
	i, _ := slices.BinarySearch(p.hashes, h)
	if i == len(p.hashes) {
		i = 0
	}
	return p.owners[i]
}

// store is one member's local partition.
type store struct {
	mu sync.Mutex
	m  map[flowtable.Key]entry
}

type entry struct {
	rec          flowtable.Record
	fwdCanonical bool
	epoch        uint32
}

// NewCluster returns an empty cluster replicating each record to up to
// `replicas` members (minimum 1; the paper's fault-tolerance goal needs
// at least 2).
func NewCluster(replicas int) *Cluster {
	if replicas < 1 {
		replicas = 1
	}
	c := &Cluster{
		replicas: replicas,
		ring:     NewRing(),
		stores:   make(map[string]*store),
	}
	c.place.Store(&placement{})
	return c
}

// publishLocked rebuilds the placement snapshot from the ring and the
// store set and publishes it. Called with mu held wherever either
// changes; costs one short ring walk per vnode.
func (c *Cluster) publishLocked() {
	vn := c.ring.vnodes
	want := min(c.replicas, c.ring.Len())
	p := &placement{
		hashes: make([]uint64, len(vn)),
		owners: make([][]*store, len(vn)),
		all:    make([]*store, 0, len(c.stores)),
	}
	flat := make([]*store, 0, len(vn)*want)
	names := make([]string, 0, want)
	for i, v := range vn {
		p.hashes[i] = v.hash
		names = c.ring.ownersAt(names, i, want)
		lo := len(flat)
		for _, name := range names {
			flat = append(flat, c.stores[name])
		}
		p.owners[i] = flat[lo:len(flat):len(flat)]
	}
	members := make([]string, 0, len(c.stores))
	for name := range c.stores {
		members = append(members, name)
	}
	slices.Sort(members)
	for _, name := range members {
		p.all = append(p.all, c.stores[name])
	}
	c.place.Store(p)
}

// Join adds a member and returns its flow-store handle. Existing records
// are re-replicated so the new member immediately owns its share.
func (c *Cluster) Join(node string) (*Node, error) {
	c.mu.Lock()
	if _, dup := c.stores[node]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("dht: node %s already joined", node)
	}
	c.ring.Add(node)
	c.stores[node] = &store{m: make(map[flowtable.Key]entry)}
	c.publishLocked()
	c.mu.Unlock()
	c.Repair()
	return &Node{c: c, name: node}, nil
}

// Fail removes a member abruptly, losing its local partition (a crash).
// Surviving replicas keep the records available; Repair restores the
// replication factor on the remaining members.
func (c *Cluster) Fail(node string) {
	c.mu.Lock()
	c.ring.Remove(node)
	delete(c.stores, node)
	c.publishLocked()
	c.mu.Unlock()
	c.Repair()
}

// Leave removes a member gracefully: its records are re-replicated
// before the partition is dropped (scale-in).
func (c *Cluster) Leave(node string) {
	c.mu.Lock()
	st, ok := c.stores[node]
	if !ok {
		c.mu.Unlock()
		return
	}
	c.ring.Remove(node)
	c.publishLocked()
	c.mu.Unlock()

	// Push this node's records to their new owners, then drop it.
	c.handOff(st)
	c.mu.Lock()
	delete(c.stores, node)
	c.publishLocked()
	c.mu.Unlock()
}

// Members returns the current member names.
func (c *Cluster) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Nodes()
}

// replicate writes the entry to every current owner of the key. A
// write made under a placement that a membership change replaced
// meanwhile is repeated under the new one, so it cannot land only on
// stores that a concurrent Repair or Leave hand-off already scanned.
func (c *Cluster) replicate(k flowtable.Key, e entry) {
	h := k.Flow.Hash()
	for p := c.place.Load(); ; {
		for _, st := range p.ownersOf(h) {
			st.mu.Lock()
			st.m[k] = e
			st.mu.Unlock()
		}
		cur := c.place.Load()
		if cur == p {
			return
		}
		p = cur
	}
}

// handOff copies one store's records to their current owners.
func (c *Cluster) handOff(st *store) {
	st.mu.Lock()
	records := maps.Clone(st.m)
	st.mu.Unlock()
	for k, e := range records {
		c.replicate(k, e)
	}
}

func canonicalKey(st labels.Stack, flow packet.FlowKey) (flowtable.Key, bool) {
	cf, same := flow.Canonical()
	return flowtable.Key{Chain: st.Chain, Egress: st.Egress, Flow: cf}, same
}

// Repair re-establishes the replication factor: every record found on
// any member is copied to all of the key's current owners. Called after
// membership changes; cheap at site scale (one site's connections).
func (c *Cluster) Repair() {
	for _, st := range c.place.Load().all {
		c.handOff(st)
	}
}

// Len returns the number of distinct connections stored (records are
// counted once regardless of replication).
func (c *Cluster) Len() int {
	seen := make(map[flowtable.Key]bool)
	for _, st := range c.place.Load().all {
		st.mu.Lock()
		for k := range st.m {
			seen[k] = true
		}
		st.mu.Unlock()
	}
	return len(seen)
}

// Node is one member's handle, implementing the forwarder flow-store
// operations (the same contract as flowtable.Table).
type Node struct {
	c    *Cluster
	name string
}

// Name returns the member name.
func (n *Node) Name() string { return n.name }

// Insert stores a connection record, replicated to the key's owners.
func (n *Node) Insert(st labels.Stack, flow packet.FlowKey, rec flowtable.Record) {
	k, fwdCanonical := canonicalKey(st, flow)
	n.c.replicate(k, entry{rec: rec, fwdCanonical: fwdCanonical, epoch: n.c.epoch.Load()})
}

// Lookup consults the key's owners in ring order. It takes no cluster
// lock and does not allocate: one atomic load of the placement, a binary
// search over the vnode hashes, and one store lock per probed owner.
func (n *Node) Lookup(st labels.Stack, flow packet.FlowKey) (flowtable.Record, bool, bool) {
	k, same := canonicalKey(st, flow)
	epoch := n.c.epoch.Load()
	for _, s := range n.c.place.Load().ownersOf(k.Flow.Hash()) {
		s.mu.Lock()
		e, ok := s.m[k]
		if ok && e.epoch != epoch {
			e.epoch = epoch
			s.m[k] = e
		}
		s.mu.Unlock()
		if ok {
			return e.rec, same == e.fwdCanonical, true
		}
	}
	return flowtable.Record{}, false, false
}

// batchChunk is how many entries LookupBatch resolves per pass; its
// per-pass scratch lives on the stack, so a burst of any size is
// resolved without allocating.
const batchChunk = 64

// LookupBatch performs Lookup for n parallel entries (sts[i], flows[i]),
// writing results into recs/forwards/oks. Entries are grouped by owner
// store, so each store lock is taken once per store per chunk of up to
// batchChunk entries instead of once per packet; misses at a key's
// first owner fall through to its next owner in a later pass, exactly
// as Lookup does. All five slices must have equal length.
func (n *Node) LookupBatch(sts []labels.Stack, flows []packet.FlowKey, recs []flowtable.Record, forwards, oks []bool) {
	p := n.c.place.Load()
	epoch := n.c.epoch.Load()
	for lo := 0; lo < len(sts); lo += batchChunk {
		hi := min(lo+batchChunk, len(sts))
		p.lookupChunk(epoch, sts[lo:hi], flows[lo:hi], recs[lo:hi], forwards[lo:hi], oks[lo:hi])
	}
}

func (p *placement) lookupChunk(epoch uint32, sts []labels.Stack, flows []packet.FlowKey, recs []flowtable.Record, forwards, oks []bool) {
	var (
		keys    [batchChunk]flowtable.Key
		canon   [batchChunk]bool
		owners  [batchChunk][]*store
		pending [batchChunk]bool
	)
	n, rounds := len(sts), 0
	for i := 0; i < n; i++ {
		keys[i], canon[i] = canonicalKey(sts[i], flows[i])
		owners[i] = p.ownersOf(keys[i].Flow.Hash())
		rounds = max(rounds, len(owners[i]))
		recs[i], forwards[i], oks[i] = flowtable.Record{}, false, false
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			pending[i] = !oks[i] && r < len(owners[i])
		}
		for i := 0; i < n; i++ {
			if !pending[i] {
				continue
			}
			s := owners[i][r]
			s.mu.Lock()
			for j := i; j < n; j++ {
				if !pending[j] || owners[j][r] != s {
					continue
				}
				pending[j] = false
				e, ok := s.m[keys[j]]
				if !ok {
					continue
				}
				if e.epoch != epoch {
					e.epoch = epoch
					s.m[keys[j]] = e
				}
				recs[j], forwards[j], oks[j] = e.rec, canon[j] == e.fwdCanonical, true
			}
			s.mu.Unlock()
		}
	}
}

// Remove deletes a connection from all members.
func (n *Node) Remove(st labels.Stack, flow packet.FlowKey) {
	k, _ := canonicalKey(st, flow)
	for _, s := range n.c.place.Load().all {
		s.mu.Lock()
		delete(s.m, k)
		s.mu.Unlock()
	}
}

// Len returns the cluster-wide distinct connection count.
func (n *Node) Len() int { return n.c.Len() }

// Occupancy returns the number of records each member holds, in member
// name order (replicas are counted on every member holding them) — the
// per-member balance view the forwarder's flowpart gauges publish.
func (n *Node) Occupancy() []int {
	all := n.c.place.Load().all
	out := make([]int, len(all))
	for i, s := range all {
		s.mu.Lock()
		out[i] = len(s.m)
		s.mu.Unlock()
	}
	return out
}

// Advance ages the cluster's idle-tracking epoch and evicts records not
// looked up within keep epochs.
func (n *Node) Advance(keep uint32) (evicted int) {
	cur := n.c.epoch.Add(1)
	seen := make(map[flowtable.Key]bool)
	for _, s := range n.c.place.Load().all {
		s.mu.Lock()
		for k, e := range s.m {
			if cur-e.epoch > keep {
				delete(s.m, k)
				if !seen[k] {
					seen[k] = true
					evicted++
				}
			}
		}
		s.mu.Unlock()
	}
	return evicted
}
