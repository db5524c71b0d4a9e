package main

import (
	"math"
	"runtime"
	"time"

	"switchboard/internal/dht"
	"switchboard/internal/edge"
	"switchboard/internal/flowtable"
	"switchboard/internal/forwarder"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
	"switchboard/internal/vnf"
)

// Isolated replays: each runs the workload's own packet mix, on the
// calling goroutine, through a standalone instance of one layer built
// the way a Local Switchboard builds it. They run after the measured
// windows, so they never compete with the deployment for the CPU.

const isoPackets = 1 << 16

// isoMix is a workload's packet mix: the forward 5-tuple of each packet
// in generator order, and whether every packet is answered by a reply
// that crosses the chain in reverse.
type isoMix struct {
	keys []packet.FlowKey
	echo bool
}

// closedMix cycles the fixed flow set, each request answered.
func closedMix(flows []packet.FlowKey) isoMix {
	m := isoMix{keys: make([]packet.FlowKey, isoPackets), echo: true}
	for i := range m.keys {
		m.keys[i] = flows[i%len(flows)]
	}
	return m
}

// openMix replays the open-loop schedule's first isoPackets packets.
func openMix(keyOf func(uint64) packet.FlowKey) isoMix {
	m := isoMix{keys: make([]packet.FlowKey, isoPackets)}
	for i := range m.keys {
		m.keys[i] = keyOf(uint64(i))
	}
	return m
}

// natted translates the mix through a scratch NAT so replays of the
// layers behind the NAT see the 5-tuples they see in the deployment.
func (m isoMix) natted() []packet.FlowKey {
	nat := vnf.NewNAT(natBaseIP + 1)
	out := make([]packet.FlowKey, len(m.keys))
	p := &packet.Packet{}
	for i, k := range m.keys {
		p.Key = k
		nat.Process(p)
		out[i] = p.Key
	}
	return out
}

var isoStack = labels.Stack{Chain: 7, Egress: 1}

// timePerOp runs fn once and returns its wall time divided by ops.
func timePerOp(ops int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// isoSimnet is the cost of one same-site message: Send plus the
// receiver's batched drain.
func isoSimnet() float64 {
	net := simnet.New(1)
	defer net.Close()
	a, errA := net.Attach(simnet.Addr{Site: "A", Host: "a"}, 4096)
	b, errB := net.Attach(simnet.Addr{Site: "A", Host: "b"}, 4096)
	if errA != nil || errB != nil {
		return math.NaN()
	}
	p := &packet.Packet{Payload: make([]byte, payloadBytes)}
	buf := make([]simnet.Message, 64)
	return timePerOp(isoPackets, func() {
		for i := 0; i < isoPackets; i += len(buf) {
			for range buf {
				_ = a.Send(b.Addr(), p, payloadBytes+40) // b drains every round, so the queue never fills
			}
			b.TryRecvBatch(buf)
		}
	})
}

// isoEdge returns the per-packet cost of the edge's ingress
// (classification, or a connection hit for replies) and egress (label
// strip, connection record, host lookup) paths.
func isoEdge(m isoMix) (ingressNs, egressNs float64) {
	net := simnet.New(1)
	defer net.Close()
	ep, err := net.Attach(simnet.Addr{Site: "A", Host: "edge-iso"}, 16)
	if err != nil {
		return math.NaN(), math.NaN()
	}
	e := edge.NewInstance(ep, simnet.Addr{Site: "A", Host: "fwd-edge"}, 1)
	e.AddRule(edge.MatchRule{Chain: isoStack.Chain, Name: "iso"})
	e.AddEgressRoute(edge.EgressRoute{Egress: isoStack.Egress})
	host := simnet.Addr{Site: "A", Host: "host"}
	e.RegisterHost(serverIP, host)
	for _, k := range m.keys {
		e.RegisterHost(k.SrcIP, host)
	}
	nat := m.natted()
	p := &packet.Packet{}
	ops := len(m.keys)
	if m.echo {
		ops *= 2
	}
	// Egress first: it records the connections reply ingress then hits.
	egressNs = timePerOp(ops, func() {
		for i, k := range m.keys {
			p.Key, p.Labels, p.Labeled = nat[i], isoStack, true
			e.HandlePacket(p)
			if m.echo {
				p.Key, p.Labels, p.Labeled = k.Reverse(), isoStack, true
				e.HandlePacket(p)
			}
		}
	})
	ingressNs = timePerOp(ops, func() {
		for i, k := range m.keys {
			p.Key, p.Labeled = k, false
			e.HandlePacket(p)
			if m.echo {
				p.Key, p.Labeled = nat[i].Reverse(), false
				e.HandlePacket(p)
			}
		}
	})
	return ingressNs, egressNs
}

// isoFwd is the per-packet cost of a VNF-role forwarder in affinity mode
// over a replicated dht store: each packet enters from the previous
// stage, goes to the local VNF, returns and leaves for the next stage
// (and, for echoed mixes, the reply does the same in reverse).
type isoFwdResult struct {
	nsPerPkt, allocsPerBurst, bytesPerBurst float64
	errs                                    int
}

func isoForwarder(m isoMix, burst int) isoFwdResult {
	cluster := dht.NewCluster(2)
	store, err := cluster.Join("fwd-iso")
	if err != nil {
		return isoFwdResult{nsPerPkt: math.NaN(), allocsPerBurst: math.NaN(), bytesPerBurst: math.NaN()}
	}
	f := forwarder.NewWithStore("iso", forwarder.ModeAffinity, store)
	f.UseHopRegistry(forwarder.NewHopRegistry())
	vnfHop := f.AddHop(forwarder.NextHop{Kind: forwarder.KindVNF, Addr: simnet.Addr{Site: "A", Host: "vnf"}, LabelAware: true, Labels: isoStack})
	next := f.AddHop(forwarder.NextHop{Kind: forwarder.KindForwarder, Addr: simnet.Addr{Site: "A", Host: "fwd-next"}})
	prev := f.AddHop(forwarder.NextHop{Kind: forwarder.KindForwarder, Addr: simnet.Addr{Site: "A", Host: "fwd-prev"}})
	f.InstallRule(isoStack, forwarder.RuleSpec{
		LocalVNF: []forwarder.WeightedHop{{Hop: vnfHop, Weight: 1}},
		Next:     []forwarder.WeightedHop{{Hop: next, Weight: 1}},
		Prev:     []forwarder.WeightedHop{{Hop: prev, Weight: 1}},
		Chain:    "iso",
	})
	pkts := make([]*packet.Packet, burst)
	for i := range pkts {
		pkts[i] = &packet.Packet{}
	}
	froms := make([]flowtable.Hop, burst)
	var res forwarder.BatchResult
	var out isoFwdResult
	step := func(keys []packet.FlowKey, from flowtable.Hop) {
		for i := range keys {
			pkts[i].Key, pkts[i].Labels, pkts[i].Labeled = keys[i], isoStack, true
			froms[i] = from
		}
		f.ProcessBatch(pkts[:len(keys)], froms[:len(keys)], &res)
		for _, e := range res.Errs {
			if e != nil {
				out.errs++
			}
		}
	}
	rev := make([]packet.FlowKey, burst)
	var ms0, ms1 runtime.MemStats
	pktsDone, bursts := 0, 0
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for lo := 0; lo < len(m.keys); lo += burst {
		keys := m.keys[lo:min(lo+burst, len(m.keys))]
		step(keys, prev)
		step(keys, vnfHop)
		pktsDone += 2 * len(keys)
		bursts += 2
		if m.echo {
			for i, k := range keys {
				rev[i] = k.Reverse()
			}
			step(rev[:len(keys)], next)
			step(rev[:len(keys)], vnfHop)
			pktsDone += 2 * len(keys)
			bursts += 2
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	out.nsPerPkt = float64(elapsed.Nanoseconds()) / float64(pktsDone)
	out.allocsPerBurst = float64(ms1.Mallocs-ms0.Mallocs) / float64(bursts)
	out.bytesPerBurst = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(bursts)
	return out
}

// isoDHT returns the cost of a flow lookup that hits and of a new
// flow's replicated insert, on a store joined as a Local Switchboard
// joins its forwarders.
func isoDHT(m isoMix) (lookupNs, insertNs float64) {
	cluster := dht.NewCluster(2)
	store, err := cluster.Join("fwd-iso")
	if err != nil {
		return math.NaN(), math.NaN()
	}
	seen := map[packet.FlowKey]bool{}
	var flows []packet.FlowKey
	for _, k := range m.keys {
		if !seen[k] {
			seen[k] = true
			flows = append(flows, k)
		}
	}
	rec := flowtable.Record{VNF: 1, Next: 2, Prev: 3}
	insertNs = timePerOp(len(flows), func() {
		for _, k := range flows {
			store.Insert(isoStack, k, rec)
		}
	})
	lookupNs = timePerOp(len(m.keys), func() {
		for _, k := range m.keys {
			store.Lookup(isoStack, k)
		}
	})
	return lookupNs, insertNs
}

// isoVNF returns the per-packet cost of the firewall and the NAT on the
// mix, replies included for echoed mixes.
func isoVNF(m isoMix) (fwNs, natNs float64) {
	fw := vnf.NewFirewall(insideNet, nil)
	nat := vnf.NewNAT(natBaseIP + 1)
	p := &packet.Packet{}
	ops := len(m.keys)
	if m.echo {
		ops *= 2
	}
	fwNs = timePerOp(ops, func() {
		for _, k := range m.keys {
			p.Key = k
			fw.Process(p)
			if m.echo {
				p.Key = k.Reverse()
				fw.Process(p)
			}
		}
	})
	natNs = timePerOp(ops, func() {
		for _, k := range m.keys {
			p.Key = k
			nat.Process(p)
			if m.echo {
				p.Key = p.Key.Reverse()
				nat.Process(p)
			}
		}
	})
	return fwNs, natNs
}

// isoInstall is the median time to install one more rule on a forwarder
// already holding standing rules: each install clones the routing
// snapshot, so its cost grows with the rule count.
func isoInstall(standing int) float64 {
	f := forwarder.NewWithStore("iso", forwarder.ModeAffinity, flowtable.New(4))
	hop := f.AddHop(forwarder.NextHop{Kind: forwarder.KindForwarder, Addr: simnet.Addr{Site: "A", Host: "fwd-next"}})
	spec := forwarder.RuleSpec{
		LocalVNF: []forwarder.WeightedHop{{Hop: hop, Weight: 1}},
		Next:     []forwarder.WeightedHop{{Hop: hop, Weight: 1}},
		Prev:     []forwarder.WeightedHop{{Hop: hop, Weight: 1}},
	}
	for i := 0; i < standing; i++ {
		f.InstallRule(labels.Stack{Chain: uint32(100 + i), Egress: 1}, spec)
	}
	probe := labels.Stack{Chain: 99, Egress: 1}
	var times []float64
	for i := 0; i < 2000; i++ {
		start := time.Now()
		f.InstallRule(probe, spec)
		times = append(times, float64(time.Since(start).Nanoseconds()))
		f.RemoveRule(probe)
	}
	return median(times)
}
