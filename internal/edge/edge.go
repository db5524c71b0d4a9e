// Package edge implements Switchboard's edge service: the instances that
// sit between customer devices and the Switchboard overlay. On ingress an
// edge instance classifies packets against customer chain specifications,
// affixes the chain and egress-site labels, and hands the packet to its
// forwarder; on egress it strips labels and delivers to the destination.
// It remembers connections it has egressed so reverse traffic re-enters
// the overlay with the same label stack, preserving the forwarders' flow
// keys (Section 5.3, "conformity" and "symmetric return").
package edge

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"switchboard/internal/labels"
	"switchboard/internal/metrics"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

// MatchRule classifies a traffic slice to a chain (Section 2: VLAN or IP
// header attributes select which chain applies). Zero fields match all.
type MatchRule struct {
	Src     packet.Prefix
	Dst     packet.Prefix
	Proto   uint8
	DstPort uint16
	// Chain is the chain label applied on match.
	Chain uint32
	// Name is the chain's name, used as the key of the edge's per-chain
	// metric series. Empty falls back to the decimal chain label.
	Name string
}

// Matches reports whether the rule matches the key.
func (r MatchRule) Matches(k packet.FlowKey) bool {
	if !r.Src.Contains(k.SrcIP) || !r.Dst.Contains(k.DstIP) {
		return false
	}
	if r.Proto != 0 && r.Proto != k.Proto {
		return false
	}
	if r.DstPort != 0 && r.DstPort != k.DstPort {
		return false
	}
	return true
}

// EgressRoute maps a destination prefix to the egress-site label, the
// per-customer routing table of Section 5.3 (VRF-style).
type EgressRoute struct {
	Dst    packet.Prefix
	Egress uint32
}

// Stats counts edge activity.
type Stats struct {
	Ingressed   uint64 // packets labeled and sent into the overlay
	Egressed    uint64 // packets delivered to local destinations
	Unmatched   uint64 // packets with no matching chain rule
	NoEgress    uint64 // packets with no egress route
	NoLocalHost uint64 // egress packets with unknown destination host
	SendErrs    uint64 // packets the network refused (full receiver inbox)
}

// Instance is one edge instance at a site.
type Instance struct {
	ep        *simnet.Endpoint
	forwarder simnet.Addr
	siteLabel uint32

	mu          sync.RWMutex
	rules       []MatchRule
	egressTable []EgressRoute
	localHosts  map[uint32]simnet.Addr
	conns       map[packet.FlowKey]labels.Stack
	// chainIn/chainOut are per-chain keyed counter families (set by
	// RegisterMetrics; nil: counters still count, unpublished), and
	// chainInOf/chainOutOf resolve a chain label to its counters on the
	// packet path. Populated by RegisterChain / AddRule; guarded by mu.
	chainIn, chainOut     *metrics.KeyedCounters
	chainInOf, chainOutOf map[uint32]*metrics.Counter

	ingressed, egressed, unmatched, noEgress, noLocalHost, sendErrs atomic.Uint64
}

// NewInstance creates an edge instance. siteLabel is this site's egress
// label; forwarder is the Switchboard forwarder the instance attaches to.
func NewInstance(ep *simnet.Endpoint, forwarder simnet.Addr, siteLabel uint32) *Instance {
	return &Instance{
		ep:         ep,
		forwarder:  forwarder,
		siteLabel:  siteLabel,
		localHosts: make(map[uint32]simnet.Addr),
		conns:      make(map[packet.FlowKey]labels.Stack),
		chainInOf:  make(map[uint32]*metrics.Counter),
		chainOutOf: make(map[uint32]*metrics.Counter),
	}
}

// Addr returns the instance's overlay address.
func (e *Instance) Addr() simnet.Addr { return e.ep.Addr() }

// SiteLabel returns the site's egress label.
func (e *Instance) SiteLabel() uint32 { return e.siteLabel }

// SetForwarder repoints the instance at a (possibly new) forwarder.
func (e *Instance) SetForwarder(a simnet.Addr) {
	e.mu.Lock()
	e.forwarder = a
	e.mu.Unlock()
}

// AddRule appends a classification rule. Rules match in insertion order.
// The rule's chain is registered for per-chain metric attribution.
func (e *Instance) AddRule(r MatchRule) {
	e.mu.Lock()
	e.rules = append(e.rules, r)
	e.registerChainLocked(r.Chain, r.Name)
	e.mu.Unlock()
}

// RegisterChain resolves (creating on first use) the per-chain
// ingressed/egressed counters for a chain label, keyed by the chain's
// name (or the decimal label when unnamed). The control plane calls it
// on both ingress and egress edges of a chain so egress traffic —
// classified remotely, so never matched by a local rule — is still
// attributed.
func (e *Instance) RegisterChain(chain uint32, name string) {
	e.mu.Lock()
	e.registerChainLocked(chain, name)
	e.mu.Unlock()
}

func (e *Instance) registerChainLocked(chain uint32, name string) {
	if e.chainIn != nil {
		if name == "" {
			name = strconv.FormatUint(uint64(chain), 10)
		}
		e.chainInOf[chain] = e.chainIn.Get(name)
		e.chainOutOf[chain] = e.chainOut.Get(name)
		return
	}
	if e.chainInOf[chain] == nil {
		e.chainInOf[chain] = &metrics.Counter{}
		e.chainOutOf[chain] = &metrics.Counter{}
	}
}

// ChainCounters returns load functions over a chain's per-chain
// ingressed/egressed counters, registering the chain first if this edge
// has not seen it — the offered/delivered pair the SLO evaluator diffs
// for its loss signal.
func (e *Instance) ChainCounters(chain uint32, name string) (ingressed, egressed func() uint64) {
	e.mu.Lock()
	if e.chainInOf[chain] == nil {
		e.registerChainLocked(chain, name)
	}
	in, out := e.chainInOf[chain], e.chainOutOf[chain]
	e.mu.Unlock()
	return in.Load, out.Load
}

// ForgetChain garbage-collects a deleted chain's per-chain counters:
// the keyed instances are unregistered from the metrics registry and
// the label-indexed caches dropped (typically via slo.ChainSLO.Release
// when the chain is forgotten). name follows RegisterChain's keying.
func (e *Instance) ForgetChain(chain uint32, name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.chainInOf, chain)
	delete(e.chainOutOf, chain)
	if e.chainIn != nil {
		if name == "" {
			name = strconv.FormatUint(uint64(chain), 10)
		}
		e.chainIn.Forget(name)
		e.chainOut.Forget(name)
	}
}

// RemoveChainRules drops all rules for a chain label.
func (e *Instance) RemoveChainRules(chain uint32) {
	e.mu.Lock()
	out := e.rules[:0]
	for _, r := range e.rules {
		if r.Chain != chain {
			out = append(out, r)
		}
	}
	e.rules = out
	e.mu.Unlock()
}

// AddEgressRoute appends a destination-prefix → egress-label route.
func (e *Instance) AddEgressRoute(r EgressRoute) {
	e.mu.Lock()
	e.egressTable = append(e.egressTable, r)
	e.mu.Unlock()
}

// RegisterHost binds a local destination IP to its delivery address.
func (e *Instance) RegisterHost(ip uint32, a simnet.Addr) {
	e.mu.Lock()
	e.localHosts[ip] = a
	e.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (e *Instance) Stats() Stats {
	return Stats{
		Ingressed:   e.ingressed.Load(),
		Egressed:    e.egressed.Load(),
		Unmatched:   e.unmatched.Load(),
		NoEgress:    e.noEgress.Load(),
		NoLocalHost: e.noLocalHost.Load(),
		SendErrs:    e.sendErrs.Load(),
	}
}

// RegisterMetrics publishes the edge instance's counters into a metrics
// registry under "edge.<host>.*" (host is the instance's simnet host
// name). All are cumulative packet counts mirroring Stats:
//
//	edge.<host>.ingressed     packets labeled and sent into the overlay
//	edge.<host>.egressed      packets delivered to local destinations
//	edge.<host>.unmatched     packets with no matching chain rule
//	edge.<host>.no_egress     packets with no egress route
//	edge.<host>.no_local_host egress packets with unknown destination host
//	edge.<host>.send_errs     packets the network refused (full receiver inbox)
//
// plus one gauge:
//
//	edge.<host>.match_rules   classification rules currently installed
//
// Per-chain dimensional series (keyed families, bounded cardinality;
// <chain> is the chain's name or its decimal label when unnamed):
//
//	edge.<host>.chain.<chain>.ingressed  packets the chain sent into the overlay here
//	edge.<host>.chain.<chain>.egressed   packets the chain delivered to local hosts here
func (e *Instance) RegisterMetrics(r *metrics.Registry) {
	prefix := "edge." + e.ep.Addr().Host + "."
	r.CounterFunc(prefix+"ingressed", e.ingressed.Load)
	r.CounterFunc(prefix+"egressed", e.egressed.Load)
	r.CounterFunc(prefix+"unmatched", e.unmatched.Load)
	r.CounterFunc(prefix+"no_egress", e.noEgress.Load)
	r.CounterFunc(prefix+"no_local_host", e.noLocalHost.Load)
	r.CounterFunc(prefix+"send_errs", e.sendErrs.Load)
	r.GaugeFunc(prefix+"match_rules", func() float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return float64(len(e.rules))
	})
	e.mu.Lock()
	e.chainIn = metrics.NewKeyedCounters(r, prefix+"chain.<chain>.ingressed", 0)
	e.chainOut = metrics.NewKeyedCounters(r, prefix+"chain.<chain>.egressed", 0)
	e.mu.Unlock()
}

// HandlePacket processes one packet: labeled packets egress to local
// hosts; unlabeled packets ingress into the overlay. It returns the
// destination address and true when the packet should be sent.
func (e *Instance) HandlePacket(p *packet.Packet) (simnet.Addr, bool) {
	if p.Labeled {
		return e.egress(p)
	}
	return e.ingress(p)
}

func (e *Instance) ingress(p *packet.Packet) (simnet.Addr, bool) {
	e.mu.RLock()
	// Known connection (typically reverse traffic of a chain that
	// egressed here): reuse the recorded stack.
	canon, _ := p.Key.Canonical()
	if st, ok := e.conns[canon]; ok {
		fw := e.forwarder
		cc := e.chainInOf[st.Chain]
		e.mu.RUnlock()
		p.Labels = st
		p.Labeled = true
		e.ingressed.Add(1)
		if cc != nil {
			cc.Inc()
		}
		return fw, true
	}
	var chain uint32
	matched := false
	for _, r := range e.rules {
		if r.Matches(p.Key) {
			chain = r.Chain
			matched = true
			break
		}
	}
	if !matched {
		e.mu.RUnlock()
		e.unmatched.Add(1)
		return simnet.Addr{}, false
	}
	egress := uint32(0)
	found := false
	for _, r := range e.egressTable {
		if r.Dst.Contains(p.Key.DstIP) {
			egress = r.Egress
			found = true
			break
		}
	}
	fw := e.forwarder
	cc := e.chainInOf[chain]
	e.mu.RUnlock()
	if !found {
		e.noEgress.Add(1)
		return simnet.Addr{}, false
	}
	p.Labels = labels.Stack{Chain: chain, Egress: egress}
	p.Labeled = true
	e.ingressed.Add(1)
	if cc != nil {
		cc.Inc()
	}
	return fw, true
}

func (e *Instance) egress(p *packet.Packet) (simnet.Addr, bool) {
	canon, _ := p.Key.Canonical()
	e.mu.Lock()
	e.conns[canon] = p.Labels
	dst, ok := e.localHosts[p.Key.DstIP]
	cc := e.chainOutOf[p.Labels.Chain]
	e.mu.Unlock()
	if !ok {
		e.noLocalHost.Add(1)
		return simnet.Addr{}, false
	}
	p.Labeled = false
	e.egressed.Add(1)
	if cc != nil {
		cc.Inc()
	}
	return dst, true
}

// Run drives the instance from its endpoint until the context is
// cancelled or the inbox closes. Bursts are drained from the inbox and
// ingress packets heading into the overlay are coalesced into one batch
// per forwarder per burst; egress packets are delivered to local hosts
// individually, since hosts are outside the batched overlay path.
func (e *Instance) Run(ctx context.Context) {
	msgs := make([]simnet.Message, packet.DefaultBatchSize)
	var groups []overlayGroup
	node := "edge:" + e.ep.Addr().Host
	for {
		n := e.ep.RecvBatchContext(ctx, msgs)
		if n == 0 {
			return
		}
		groups = groups[:0]
		// Traced packets stamp arrival/departure per burst: one clock
		// read each per wakeup, none when nothing is traced.
		var arrive, depart packet.LazyNow
		handle := func(p *packet.Packet, pool *packet.Pool, burst int) {
			packet.TraceArrive(p, node, &arrive, burst)
			to, send := e.HandlePacket(p)
			if !send {
				if pool != nil {
					pool.Put(p)
				}
				return
			}
			size := len(p.Payload) + 40
			if !p.Labeled {
				// Egress toward a local host: plain single delivery.
				// Departure is stamped here because ownership transfers
				// on Send; overlay packets are stamped in the post-loop
				// send pass instead.
				packet.TraceDepart(p, &depart)
				if e.ep.Send(to, p, size) != nil {
					if pool != nil {
						pool.Put(p)
					}
					e.sendErrs.Add(1)
				}
				return
			}
			for gi := range groups {
				if groups[gi].addr == to {
					groups[gi].b.Append(p, size)
					return
				}
			}
			b := packet.GetBatch()
			b.Pool = pool
			b.Append(p, size)
			groups = append(groups, overlayGroup{addr: to, b: b})
		}
		for k := 0; k < n; k++ {
			switch pl := msgs[k].Payload.(type) {
			case *packet.Packet:
				handle(pl, nil, 1)
			case *packet.Batch:
				burst := pl.Len()
				for _, p := range pl.Pkts {
					handle(p, pl.Pool, burst)
				}
				packet.PutBatch(pl)
			}
			msgs[k] = simnet.Message{}
		}
		// Departure for overlay-bound packets is stamped per burst, after
		// the whole burst has been processed and grouped — matching the
		// forwarder's at-hop semantics (arrival→departure covers the full
		// wakeup's processing), so cross-hop comparisons stay apples to
		// apples. One clock read covers every traced packet.
		for gi := range groups {
			b := groups[gi].b
			for _, p := range b.Pkts {
				packet.TraceDepart(p, &depart)
			}
			if b.Len() == 1 {
				if e.ep.Send(groups[gi].addr, b.Pkts[0], b.Sizes[0]) != nil {
					b.ReleasePackets()
					e.sendErrs.Add(1)
				}
				packet.PutBatch(b)
			} else if sent := b.Len(); e.ep.SendBatch(groups[gi].addr, b) != nil {
				b.ReleasePackets()
				packet.PutBatch(b)
				e.sendErrs.Add(uint64(sent))
			}
			groups[gi] = overlayGroup{}
		}
	}
}

// overlayGroup accumulates ingress packets sharing a forwarder.
type overlayGroup struct {
	addr simnet.Addr
	b    *packet.Batch
}

// Start launches Run on a goroutine and returns a stop function.
func (e *Instance) Start() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}
