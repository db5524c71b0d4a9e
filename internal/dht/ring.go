// Package dht implements the replicated distributed-hash-table flow
// table sketched in Section 5.3 of the Switchboard paper: "a solution
// that supports elastic scaling and fault tolerance of forwarders by
// maintaining the flow table as a replicated distributed hash table
// across forwarder nodes". Connection records are placed on a
// consistent-hash ring of forwarder nodes and replicated; when a
// forwarder fails or the site scales, surviving replicas keep serving
// the flow state, so flow affinity and symmetric return outlive any
// single forwarder.
package dht

import (
	"fmt"
	"slices"
	"sort"
)

// vnodesPerNode is the number of virtual nodes per member, smoothing the
// key distribution across differently-hashed node IDs.
const vnodesPerNode = 64

type vnode struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over named nodes.
type Ring struct {
	vnodes []vnode
	nodes  map[string]bool
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{nodes: make(map[string]bool)}
}

// fnv64 hashes a string with FNV-1a.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Add inserts a node. Adding an existing node is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < vnodesPerNode; i++ {
		r.vnodes = append(r.vnodes, vnode{
			hash: fnv64(fmt.Sprintf("%s#%d", node, i)),
			node: node,
		})
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
}

// Remove deletes a node and its virtual nodes.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	out := r.vnodes[:0]
	for _, v := range r.vnodes {
		if v.node != node {
			out = append(out, v)
		}
	}
	r.vnodes = out
}

// Nodes returns the member names in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owners returns the first `replicas` distinct nodes clockwise from the
// key's position — the nodes responsible for storing the key. Fewer are
// returned when the ring has fewer members.
func (r *Ring) Owners(key uint64, replicas int) []string {
	if len(r.vnodes) == 0 || replicas <= 0 {
		return nil
	}
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= key })
	return r.ownersAt(nil, start%len(r.vnodes), replicas)
}

// ownersAt returns, in dst's storage, the first `replicas` distinct
// nodes clockwise from vnode index start. The wanted count is capped at
// the member count, so the walk stops as soon as every member that can
// own the key is found instead of circling the whole ring; distinctness
// is checked against the (at most `replicas`-long) result itself.
func (r *Ring) ownersAt(dst []string, start, replicas int) []string {
	dst = dst[:0]
	want := min(replicas, len(r.nodes))
	for i := 0; i < len(r.vnodes) && len(dst) < want; i++ {
		node := r.vnodes[(start+i)%len(r.vnodes)].node
		if !slices.Contains(dst, node) {
			dst = append(dst, node)
		}
	}
	return dst
}
