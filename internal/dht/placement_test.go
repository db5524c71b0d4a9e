package dht

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"switchboard/internal/flowtable"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
)

// checkPlacement compares the published placement snapshot with the
// ring it was built from: for random hashes, vnode hashes and the
// wrap-around past the last vnode, the snapshot's owners must be
// ring.Owners mapped to stores, and all must list every store in
// member-name order.
func checkPlacement(t *testing.T, c *Cluster, rng *rand.Rand, step string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.place.Load()
	hashes := []uint64{0, ^uint64(0)}
	for _, v := range c.ring.vnodes {
		hashes = append(hashes, v.hash, v.hash+1)
	}
	for i := 0; i < 200; i++ {
		hashes = append(hashes, rng.Uint64())
	}
	for _, h := range hashes {
		owners := c.ring.Owners(h, c.replicas)
		if got, want := p.ownersOf(h), c.storesOf(owners); !slices.Equal(got, want) {
			t.Fatalf("%s: owners of %#x differ from the ring's %v", step, h, owners)
		}
	}
	var members []string
	for name := range c.stores {
		members = append(members, name)
	}
	slices.Sort(members)
	if !slices.Equal(p.all, c.storesOf(members)) {
		t.Fatalf("%s: all does not list members %v in order", step, members)
	}
}

func (c *Cluster) storesOf(names []string) []*store {
	var out []*store
	for _, name := range names {
		out = append(out, c.stores[name])
	}
	return out
}

// TestPlacementMatchesRing is a property test: after every step of a
// seeded random Join/Fail/Leave sequence, the lock-free placement
// snapshot resolves exactly the owners the ring computes.
func TestPlacementMatchesRing(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCluster(1 + int(seed)%3)
		checkPlacement(t, c, rng, "empty")
		var n *Node
		for step := 0; step < 40; step++ {
			members := c.Members()
			var desc string
			switch op := rng.Intn(3); {
			case op == 0 || len(members) == 0:
				name := fmt.Sprintf("f%d", rng.Intn(8))
				joined, err := c.Join(name)
				if err == nil {
					n = joined
				}
				desc = "join " + name
			case op == 1:
				name := members[rng.Intn(len(members))]
				c.Fail(name)
				desc = "fail " + name
			default:
				name := members[rng.Intn(len(members))]
				c.Leave(name)
				desc = "leave " + name
			}
			if n != nil {
				n.Insert(st, flowN(step), flowtable.Record{Next: 1})
			}
			checkPlacement(t, c, rng, fmt.Sprintf("seed %d step %d (%s)", seed, step, desc))
		}
	}
}

// TestNodeLookupBatchMatchesLookup checks the owner-grouped batch path
// against per-entry Lookup on a multi-member cluster where some keys
// are only found at their second owner, and on misses.
func TestNodeLookupBatchMatchesLookup(t *testing.T) {
	c := NewCluster(2)
	n1, _ := c.Join("f1")
	_, _ = c.Join("f2")
	_, _ = c.Join("f3")
	const flows = 150 // more than one batch chunk
	for i := 0; i < flows; i += 2 {
		n1.Insert(st, flowN(i), flowtable.Record{VNF: flowtable.Hop(i + 1)})
	}
	// Strip every record from its first owner, so lookups must fall
	// through to the second.
	p := c.place.Load()
	for i := 0; i < flows; i += 4 {
		k, _ := canonicalKey(st, flowN(i))
		first := p.ownersOf(k.Flow.Hash())[0]
		first.mu.Lock()
		delete(first.m, k)
		first.mu.Unlock()
	}
	sts := make([]labels.Stack, flows)
	keys := make([]packet.FlowKey, flows)
	for i := range keys {
		sts[i] = st
		keys[i] = flowN(i)
		if i%3 == 0 {
			keys[i] = keys[i].Reverse()
		}
	}
	recs := make([]flowtable.Record, flows)
	fwds := make([]bool, flows)
	oks := make([]bool, flows)
	n1.LookupBatch(sts, keys, recs, fwds, oks)
	for i := range keys {
		rec, fwd, ok := n1.Lookup(sts[i], keys[i])
		if recs[i] != rec || fwds[i] != fwd || oks[i] != ok {
			t.Fatalf("entry %d: batch (%+v %v %v), Lookup (%+v %v %v)", i, recs[i], fwds[i], oks[i], rec, fwd, ok)
		}
		if ok != (i%2 == 0) {
			t.Fatalf("entry %d: ok = %v", i, ok)
		}
	}
}

func TestNodeOccupancyPerMember(t *testing.T) {
	c := NewCluster(2)
	n1, _ := c.Join("f2")
	_, _ = c.Join("f1")
	_, _ = c.Join("f3")
	const flows = 300
	for i := 0; i < flows; i++ {
		n1.Insert(st, flowN(i), flowtable.Record{Next: 1})
	}
	occ := n1.Occupancy()
	if len(occ) != 3 {
		t.Fatalf("Occupancy = %v, want one count per member", occ)
	}
	total := 0
	for i, s := range c.place.Load().all {
		s.mu.Lock()
		if occ[i] != len(s.m) {
			t.Errorf("member %d: occupancy %d, holds %d", i, occ[i], len(s.m))
		}
		s.mu.Unlock()
		total += occ[i]
	}
	if total != 2*flows {
		t.Errorf("occupancy sums to %d, want %d (every record on 2 members)", total, 2*flows)
	}
}

// TestClusterConcurrentChurn runs Lookup, LookupBatch and Insert callers
// while members join and leave (run it under -race). With R = 2 and
// graceful leaves, no record — stored before the churn or during it —
// may ever be missed.
func TestClusterConcurrentChurn(t *testing.T) {
	c := NewCluster(2)
	n, _ := c.Join("m0")
	_, _ = c.Join("m1")
	const standing, added = 256, 512
	for i := 0; i < standing; i++ {
		n.Insert(st, flowN(i), flowtable.Record{VNF: flowtable.Hop(i + 1)})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(batched bool) {
		defer wg.Done()
		const burst = 32
		sts := make([]labels.Stack, burst)
		keys := make([]packet.FlowKey, burst)
		recs := make([]flowtable.Record, burst)
		fwds := make([]bool, burst)
		oks := make([]bool, burst)
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if !batched {
				i := k % standing
				if rec, _, ok := n.Lookup(st, flowN(i)); !ok || rec.VNF != flowtable.Hop(i+1) {
					t.Errorf("Lookup of standing flow %d during churn: %+v %v", i, rec, ok)
					return
				}
				continue
			}
			for j := range keys {
				sts[j], keys[j] = st, flowN((k*burst+j)%standing)
			}
			n.LookupBatch(sts, keys, recs, fwds, oks)
			for j := range keys {
				if i := (k*burst + j) % standing; !oks[j] || recs[j].VNF != flowtable.Hop(i+1) {
					t.Errorf("LookupBatch of standing flow %d during churn: %+v %v", i, recs[j], oks[j])
					return
				}
			}
		}
	}
	wg.Add(3)
	go reader(false)
	go reader(true)
	go func() {
		defer wg.Done()
		for i := standing; i < standing+added; i++ {
			n.Insert(st, flowN(i), flowtable.Record{VNF: flowtable.Hop(i + 1)})
			if _, _, ok := n.Lookup(st, flowN(i)); !ok {
				t.Errorf("flow %d missing right after its insert", i)
				return
			}
		}
	}()
	members := []string{"m0", "m1"}
	for round := 2; round < 22; round++ {
		name := fmt.Sprintf("m%d", round)
		if _, err := c.Join(name); err != nil {
			t.Fatal(err)
		}
		c.Leave(members[0])
		members = append(members[1:], name)
	}
	close(stop)
	wg.Wait()
	for i := 0; i < standing+added; i++ {
		if rec, _, ok := n.Lookup(st, flowN(i)); !ok || rec.VNF != flowtable.Hop(i+1) {
			t.Fatalf("flow %d lost after churn: %+v %v", i, rec, ok)
		}
	}
	// Replication survived the churn: any one member may still crash.
	c.Fail(members[0])
	for i := 0; i < standing+added; i++ {
		if _, _, ok := n.Lookup(st, flowN(i)); !ok {
			t.Fatalf("flow %d lost to a single failure after churn", i)
		}
	}
}

// lsNode returns a member shaped like a Local Switchboard role's store:
// one member of an R = 2 cluster, holding flows records.
func lsNode(tb testing.TB, flows int) *Node {
	c := NewCluster(2)
	n, err := c.Join("fwd-role")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < flows; i++ {
		n.Insert(st, flowN(i), flowtable.Record{VNF: 1, Next: 2, Prev: 3})
	}
	return n
}

// TestNodeLookupZeroAlloc pins the lock-free read path: a hit costs no
// allocation, alone or in a batch.
func TestNodeLookupZeroAlloc(t *testing.T) {
	n := lsNode(t, 256)
	if avg := testing.AllocsPerRun(100, func() {
		n.Lookup(st, flowN(7))
	}); avg != 0 {
		t.Fatalf("Lookup allocates %.1f allocs/op, want 0", avg)
	}
	const burst = 100 // spans two batch chunks
	sts := make([]labels.Stack, burst)
	keys := make([]packet.FlowKey, burst)
	for i := range keys {
		sts[i], keys[i] = st, flowN(i)
	}
	recs := make([]flowtable.Record, burst)
	fwds := make([]bool, burst)
	oks := make([]bool, burst)
	if avg := testing.AllocsPerRun(100, func() {
		n.LookupBatch(sts, keys, recs, fwds, oks)
	}); avg != 0 {
		t.Fatalf("LookupBatch allocates %.1f allocs/op, want 0", avg)
	}
}

func BenchmarkNodeLookup(b *testing.B) {
	const flows = 256
	n := lsNode(b, flows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Lookup(st, flowN(i%flows))
	}
}

func BenchmarkNodeLookupBatch(b *testing.B) {
	const flows, burst = 256, 64
	n := lsNode(b, flows)
	sts := make([]labels.Stack, burst)
	keys := make([]packet.FlowKey, burst)
	recs := make([]flowtable.Record, burst)
	fwds := make([]bool, burst)
	oks := make([]bool, burst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			sts[j], keys[j] = st, flowN((i*burst+j)%flows)
		}
		n.LookupBatch(sts, keys, recs, fwds, oks)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/lookup")
}
