package edge

import (
	"testing"
	"time"

	"switchboard/internal/labels"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

func testInstance(t *testing.T) (*Instance, *simnet.Network, *simnet.Endpoint) {
	t.Helper()
	n := simnet.New(1)
	t.Cleanup(n.Close)
	ep, err := n.Attach(simnet.Addr{Site: "A", Host: "edge"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := n.Attach(simnet.Addr{Site: "A", Host: "fwd"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	e := NewInstance(ep, fw.Addr(), 3)
	return e, n, fw
}

func key(src, dst uint32, dp uint16) packet.FlowKey {
	return packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: 40000, DstPort: dp, Proto: 6}
}

func TestIngressClassifiesAndLabels(t *testing.T) {
	e, _, fw := testInstance(t)
	e.AddRule(MatchRule{Src: packet.Prefix{IP: 0x0A000000, Bits: 8}, Chain: 100})
	e.AddEgressRoute(EgressRoute{Dst: packet.Prefix{IP: 0xC0A80000, Bits: 16}, Egress: 7})
	p := &packet.Packet{Key: key(0x0A000001, 0xC0A80005, 80)}
	to, send := e.HandlePacket(p)
	if !send {
		t.Fatal("ingress packet not forwarded")
	}
	if to != fw.Addr() {
		t.Errorf("sent to %v, want forwarder", to)
	}
	if !p.Labeled || p.Labels != (labels.Stack{Chain: 100, Egress: 7}) {
		t.Errorf("labels = %+v labeled=%v", p.Labels, p.Labeled)
	}
}

func TestIngressUnmatchedDropped(t *testing.T) {
	e, _, _ := testInstance(t)
	e.AddRule(MatchRule{Src: packet.Prefix{IP: 0x0A000000, Bits: 8}, Chain: 100})
	p := &packet.Packet{Key: key(0x0B000001, 0xC0A80005, 80)}
	if _, send := e.HandlePacket(p); send {
		t.Error("unmatched packet forwarded")
	}
	if e.Stats().Unmatched != 1 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestIngressNoEgressRouteDropped(t *testing.T) {
	e, _, _ := testInstance(t)
	e.AddRule(MatchRule{Chain: 100})
	p := &packet.Packet{Key: key(0x0A000001, 0xC0A80005, 80)}
	if _, send := e.HandlePacket(p); send {
		t.Error("packet without egress route forwarded")
	}
	if e.Stats().NoEgress != 1 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestRuleOrderFirstMatchWins(t *testing.T) {
	e, _, _ := testInstance(t)
	e.AddRule(MatchRule{DstPort: 80, Chain: 1})
	e.AddRule(MatchRule{Chain: 2})
	e.AddEgressRoute(EgressRoute{Egress: 9})
	p := &packet.Packet{Key: key(1, 2, 80)}
	e.HandlePacket(p)
	if p.Labels.Chain != 1 {
		t.Errorf("chain = %d, want 1 (first match)", p.Labels.Chain)
	}
	p2 := &packet.Packet{Key: key(1, 2, 443)}
	e.HandlePacket(p2)
	if p2.Labels.Chain != 2 {
		t.Errorf("chain = %d, want 2 (fallthrough)", p2.Labels.Chain)
	}
}

func TestEgressStripsAndDelivers(t *testing.T) {
	e, n, _ := testInstance(t)
	host, err := n.Attach(simnet.Addr{Site: "A", Host: "laptop"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterHost(0xC0A80005, host.Addr())
	p := &packet.Packet{
		Labels: labels.Stack{Chain: 100, Egress: 3}, Labeled: true,
		Key: key(0x0A000001, 0xC0A80005, 80),
	}
	to, send := e.HandlePacket(p)
	if !send || to != host.Addr() {
		t.Fatalf("egress = %v, %v", to, send)
	}
	if p.Labeled {
		t.Error("labels not stripped at egress")
	}
	if e.Stats().Egressed != 1 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestEgressUnknownHostDropped(t *testing.T) {
	e, _, _ := testInstance(t)
	p := &packet.Packet{Labels: labels.Stack{Chain: 1, Egress: 3}, Labeled: true, Key: key(1, 2, 80)}
	if _, send := e.HandlePacket(p); send {
		t.Error("packet to unknown host delivered")
	}
	if e.Stats().NoLocalHost != 1 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestReverseTrafficReusesStack(t *testing.T) {
	e, n, fw := testInstance(t)
	host, err := n.Attach(simnet.Addr{Site: "A", Host: "server"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterHost(0xC0A80005, host.Addr())
	// Forward packet egresses here: connection remembered.
	st := labels.Stack{Chain: 100, Egress: 3}
	fwdPkt := &packet.Packet{Labels: st, Labeled: true, Key: key(0x0A000001, 0xC0A80005, 80)}
	if _, send := e.HandlePacket(fwdPkt); !send {
		t.Fatal("forward egress failed")
	}
	// Reverse packet from the server: same stack re-applied, even with
	// no matching classifier rule.
	rev := &packet.Packet{Key: key(0x0A000001, 0xC0A80005, 80).Reverse()}
	to, send := e.HandlePacket(rev)
	if !send || to != fw.Addr() {
		t.Fatalf("reverse ingress = %v, %v", to, send)
	}
	if !rev.Labeled || rev.Labels != st {
		t.Errorf("reverse labels = %+v, want %+v", rev.Labels, st)
	}
}

func TestRemoveChainRules(t *testing.T) {
	e, _, _ := testInstance(t)
	e.AddRule(MatchRule{DstPort: 80, Chain: 1})
	e.AddRule(MatchRule{Chain: 2})
	e.RemoveChainRules(1)
	e.AddEgressRoute(EgressRoute{Egress: 9})
	p := &packet.Packet{Key: key(1, 2, 80)}
	e.HandlePacket(p)
	if p.Labels.Chain != 2 {
		t.Errorf("chain = %d, want 2 after removing chain 1 rules", p.Labels.Chain)
	}
}

func TestRunLoopEndToEnd(t *testing.T) {
	e, n, fw := testInstance(t)
	e.AddRule(MatchRule{Chain: 5})
	e.AddEgressRoute(EgressRoute{Egress: 6})
	stop := e.Start()
	defer stop()
	src, err := n.Attach(simnet.Addr{Site: "A", Host: "cam"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Key: key(1, 2, 80), Payload: []byte("frame")}
	if err := src.Send(e.Addr(), p, 5); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-fw.Inbox():
		got := m.Payload.(*packet.Packet)
		if !got.Labeled || got.Labels.Chain != 5 {
			t.Errorf("labels = %+v", got.Labels)
		}
	case <-time.After(time.Second):
		t.Fatal("packet never reached forwarder")
	}
}

// TestRunCountsSendErrs pins that packets the network refuses are
// counted and go back to their pool, on the overlay path (batch and lone
// packet) and on host delivery. Forwarder and host have one-slot inboxes
// that are never drained.
func TestRunCountsSendErrs(t *testing.T) {
	n := simnet.New(1)
	defer n.Close()
	attach := func(host string, queue int) *simnet.Endpoint {
		ep, err := n.Attach(simnet.Addr{Site: "A", Host: host}, queue)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	ep, fw, host, src := attach("edge", 64), attach("fwd", 1), attach("laptop", 1), attach("src", 1)
	e := NewInstance(ep, fw.Addr(), 3)
	e.AddRule(MatchRule{Chain: 5})
	e.AddEgressRoute(EgressRoute{Egress: 6})
	e.RegisterHost(0xC0A80005, host.Addr())
	stop := e.Start()
	defer stop()

	// burst sends n packets to the edge as one batch: ingress packets
	// when egress is false, packets for the local host otherwise.
	burst := func(n int, egress bool) []*packet.Packet {
		pool := packet.NewPool() // its own, so no later burst reuses a released packet
		b := packet.GetBatch()
		b.Pool = pool
		pkts := make([]*packet.Packet, n)
		for k := range pkts {
			p := pool.Get()
			p.Key = key(0x0A000001, 0xC0A80005, uint16(80+k))
			if egress {
				p.Labels, p.Labeled = labels.Stack{Chain: 5, Egress: 3}, true
			}
			b.Append(p, 1)
			pkts[k] = p
		}
		if err := src.SendBatch(e.Addr(), b); err != nil {
			t.Fatal(err)
		}
		return pkts
	}
	waitFor := func(what string, done func() bool) {
		deadline := time.Now().Add(time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats = %+v", what, e.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	errsAre := func(want uint64) func() bool {
		return func() bool { return e.Stats().SendErrs == want }
	}

	burst(3, false)
	waitFor("the forwarder inbox to fill", func() bool { return len(fw.Inbox()) == 1 })
	refused := burst(2, false)
	waitFor("the overlay batch refusal", errsAre(2))
	refused = append(refused, burst(1, false)...)
	waitFor("the overlay lone-packet refusal", errsAre(3))
	// Host delivery is per packet: the first fills the host's inbox.
	refused = append(refused, burst(2, true)[1])
	waitFor("the host delivery refusal", errsAre(4))

	for k, p := range refused {
		if p.Key != (packet.FlowKey{}) {
			t.Errorf("refused packet %d not released to its pool: key %+v", k, p.Key)
		}
	}
	if st := e.Stats(); st.Ingressed != 6 || st.Egressed != 2 || st.SendErrs != 4 {
		t.Errorf("stats = %+v, want 6 ingressed, 2 egressed, 4 send errors", st)
	}
}
