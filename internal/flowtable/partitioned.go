package flowtable

import (
	"switchboard/internal/labels"
	"switchboard/internal/packet"
)

// Partitioned is a flow table split into independent per-core
// partitions, selected by the direction-independent steering hash of
// the flow key — the same hash a forwarder.RunnerPool steers bursts
// with. With Parts equal to the pool's core count every core only ever
// touches its own partition, so the partitions' shard locks are
// uncontended: the multi-core data plane's flow-table path serializes
// nothing across cores. Both directions of a connection hash to the
// same partition, preserving flow affinity and symmetric return.
//
// Partitioned implements the forwarder's FlowStore contract, so it
// drops into NewWithStore.
type Partitioned struct {
	parts []*Table
}

// NewPartitioned returns a table with `parts` partitions (minimum 1) of
// `shards` shards each (see New for shard rounding).
func NewPartitioned(parts, shards int) *Partitioned {
	if parts < 1 {
		parts = 1
	}
	p := &Partitioned{parts: make([]*Table, parts)}
	for i := range p.parts {
		p.parts[i] = New(shards)
	}
	return p
}

// Parts returns the number of partitions.
func (p *Partitioned) Parts() int { return len(p.parts) }

// Part returns partition i — switchbench's isolated per-core
// measurements drive each partition's owning core directly.
func (p *Partitioned) Part(i int) *Table { return p.parts[i] }

func (p *Partitioned) partFor(flow packet.FlowKey) *Table {
	return p.parts[flow.SteerHash()%uint64(len(p.parts))]
}

// Insert records a new connection in its steering partition.
func (p *Partitioned) Insert(st labels.Stack, flow packet.FlowKey, rec Record) {
	p.partFor(flow).Insert(st, flow, rec)
}

// Lookup resolves a connection in its steering partition.
func (p *Partitioned) Lookup(st labels.Stack, flow packet.FlowKey) (rec Record, forward, ok bool) {
	return p.partFor(flow).Lookup(st, flow)
}

// LookupBatch resolves a burst of lookups. A burst steered by a
// RunnerPool with Cores == Parts lands entirely in one partition, so
// the common case delegates the whole batch to that partition's
// shard-grouped path; mixed bursts (direct callers, parts ≠ cores)
// fall back to per-entry lookups.
func (p *Partitioned) LookupBatch(sts []labels.Stack, flows []packet.FlowKey, recs []Record, forwards, oks []bool) {
	n := len(sts)
	if n == 0 {
		return
	}
	first := p.partFor(flows[0])
	uniform := true
	for i := 1; i < n; i++ {
		if p.partFor(flows[i]) != first {
			uniform = false
			break
		}
	}
	if uniform {
		first.LookupBatch(sts, flows, recs, forwards, oks)
		return
	}
	for i := 0; i < n; i++ {
		recs[i], forwards[i], oks[i] = p.partFor(flows[i]).Lookup(sts[i], flows[i])
	}
}

// Remove deletes a connection from its steering partition.
func (p *Partitioned) Remove(st labels.Stack, flow packet.FlowKey) {
	p.partFor(flow).Remove(st, flow)
}

// Len returns the number of tracked connections across all partitions.
func (p *Partitioned) Len() int {
	n := 0
	for _, t := range p.parts {
		n += t.Len()
	}
	return n
}

// Occupancy returns the number of tracked connections per partition, in
// partition order — one element per core when Parts == Cores.
func (p *Partitioned) Occupancy() []int {
	out := make([]int, len(p.parts))
	for i, t := range p.parts {
		out[i] = t.Len()
	}
	return out
}

// Advance ages every partition; see Table.Advance.
func (p *Partitioned) Advance(keep uint32) (evicted int) {
	for _, t := range p.parts {
		evicted += t.Advance(keep)
	}
	return evicted
}
