package vnf

import (
	"testing"
	"time"

	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

func key(src, dst uint32, sp, dp uint16) packet.FlowKey {
	return packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: 6}
}

func TestNATForwardAndReverse(t *testing.T) {
	const public = 0x01020304
	n := NewNAT(public)
	p := &packet.Packet{Key: key(0x0A000001, 0x08080808, 5555, 80)}
	if !n.Process(p) {
		t.Fatal("forward packet dropped")
	}
	if p.Key.SrcIP != public {
		t.Errorf("src not translated: %x", p.Key.SrcIP)
	}
	allocated := p.Key.SrcPort
	if allocated == 5555 {
		t.Error("port not rewritten")
	}
	// Reverse packet addressed to the public mapping.
	r := &packet.Packet{Key: key(0x08080808, public, 80, allocated)}
	if !n.Process(r) {
		t.Fatal("reverse packet dropped")
	}
	if r.Key.DstIP != 0x0A000001 || r.Key.DstPort != 5555 {
		t.Errorf("reverse not untranslated: %+v", r.Key)
	}
	if n.Translations() != 1 {
		t.Errorf("translations = %d, want 1", n.Translations())
	}
}

func TestNATStableMapping(t *testing.T) {
	n := NewNAT(0x01020304)
	p1 := &packet.Packet{Key: key(0x0A000001, 0x08080808, 5555, 80)}
	n.Process(p1)
	p2 := &packet.Packet{Key: key(0x0A000001, 0x08080808, 5555, 443)}
	n.Process(p2)
	if p1.Key.SrcPort != p2.Key.SrcPort {
		t.Error("same internal source mapped to different ports")
	}
}

func TestNATDropsUnsolicited(t *testing.T) {
	n := NewNAT(0x01020304)
	r := &packet.Packet{Key: key(0x08080808, 0x01020304, 80, 40000)}
	if n.Process(r) {
		t.Error("unsolicited inbound packet passed NAT")
	}
}

func TestFirewallStatefulFlow(t *testing.T) {
	inside := []Prefix{{IP: 0x0A000000, Bits: 8}}
	fw := NewFirewall(inside, nil)
	out := &packet.Packet{Key: key(0x0A000001, 0x08080808, 5555, 80)}
	if !fw.Process(out) {
		t.Fatal("outbound packet denied")
	}
	// Reply admitted because the connection is tracked.
	in := &packet.Packet{Key: key(0x08080808, 0x0A000001, 80, 5555)}
	if !fw.Process(in) {
		t.Error("reply packet denied")
	}
	if fw.Connections() != 1 {
		t.Errorf("connections = %d, want 1", fw.Connections())
	}
}

func TestFirewallDefaultDenyInbound(t *testing.T) {
	fw := NewFirewall([]Prefix{{IP: 0x0A000000, Bits: 8}}, nil)
	in := &packet.Packet{Key: key(0x08080808, 0x0A000001, 1234, 22)}
	if fw.Process(in) {
		t.Error("unsolicited inbound admitted by default")
	}
}

func TestFirewallRuleAllow(t *testing.T) {
	rules := []FirewallRule{{DstPort: 80, Action: Allow}, {Action: Deny}}
	fw := NewFirewall([]Prefix{{IP: 0x0A000000, Bits: 8}}, rules)
	web := &packet.Packet{Key: key(0x08080808, 0x0A000001, 1234, 80)}
	if !fw.Process(web) {
		t.Error("inbound to allowed port denied")
	}
	ssh := &packet.Packet{Key: key(0x08080808, 0x0A000001, 1234, 22)}
	if fw.Process(ssh) {
		t.Error("inbound to non-allowed port admitted")
	}
}

func TestPrefixContains(t *testing.T) {
	p := Prefix{IP: 0x0A000000, Bits: 8}
	if !p.Contains(0x0A123456) {
		t.Error("10.x address not contained in 10/8")
	}
	if p.Contains(0x0B000001) {
		t.Error("11.x address contained in 10/8")
	}
	if !(Prefix{Bits: 0}).Contains(0x12345678) {
		t.Error("0-bit prefix should match everything")
	}
	if !(Prefix{IP: 5, Bits: 32}).Contains(5) || (Prefix{IP: 5, Bits: 32}).Contains(6) {
		t.Error("32-bit prefix exact match broken")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(100)
	c.Put("a", 40)
	c.Put("b", 40)
	if !c.Get("a") || !c.Get("b") {
		t.Fatal("fresh objects missing")
	}
	// "a" is now more recent than... order: Get(b) last → b most recent.
	c.Put("c", 40) // evicts "a" (LRU)
	if c.Get("a") {
		t.Error("LRU object not evicted")
	}
	if !c.Get("b") || !c.Get("c") {
		t.Error("recent objects evicted")
	}
	if c.Used() > 100 {
		t.Errorf("used %d exceeds capacity", c.Used())
	}
}

func TestCacheOversizedObject(t *testing.T) {
	c := NewCache(10)
	c.Put("big", 100)
	if c.Get("big") {
		t.Error("oversized object cached")
	}
	if c.Len() != 0 {
		t.Errorf("len = %d, want 0", c.Len())
	}
}

func TestCacheHitRate(t *testing.T) {
	c := NewCache(1000)
	c.Get("x") // miss
	c.Put("x", 10)
	c.Get("x") // hit
	c.Get("x") // hit
	if hr := c.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", hr)
	}
}

func TestCacheUpdateSize(t *testing.T) {
	c := NewCache(100)
	c.Put("a", 30)
	c.Put("a", 50)
	if c.Used() != 50 {
		t.Errorf("used = %d, want 50 after resize", c.Used())
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestShaperLimitsRate(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	s := newShaperWithClock(10, 5, clock) // 10 pps, burst 5
	pass := 0
	for i := 0; i < 20; i++ {
		if s.Process(&packet.Packet{}) {
			pass++
		}
	}
	if pass != 5 {
		t.Errorf("burst admitted %d, want 5", pass)
	}
	// Advance 0.3 seconds: 3 new tokens (below the burst cap).
	now = now.Add(300 * time.Millisecond)
	pass = 0
	for i := 0; i < 20; i++ {
		if s.Process(&packet.Packet{}) {
			pass++
		}
	}
	if pass != 3 {
		t.Errorf("after refill admitted %d, want 3", pass)
	}
	// Advance 10 seconds: refill clamped to the burst size.
	now = now.Add(10 * time.Second)
	pass = 0
	for i := 0; i < 20; i++ {
		if s.Process(&packet.Packet{}) {
			pass++
		}
	}
	if pass != 5 {
		t.Errorf("after long idle admitted %d, want burst cap 5", pass)
	}
}

func TestBlurMutatesPayload(t *testing.T) {
	p := &packet.Packet{Payload: []byte{1, 2, 3}}
	orig := append([]byte(nil), p.Payload...)
	if !(Blur{}).Process(p) {
		t.Fatal("blur dropped packet")
	}
	same := true
	for i := range orig {
		if p.Payload[i] != orig[i] {
			same = false
		}
	}
	if same {
		t.Error("payload unchanged after blur")
	}
	// Blur twice restores (XOR involution) — documents determinism.
	(Blur{}).Process(p)
	for i := range orig {
		if p.Payload[i] != orig[i] {
			t.Fatal("double blur did not restore payload")
		}
	}
}

func TestInstanceRunLoop(t *testing.T) {
	net := simnet.New(1)
	defer net.Close()
	ep, err := net.Attach(simnet.Addr{Site: "A", Host: "vnf1"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := net.Attach(simnet.Addr{Site: "A", Host: "fwd"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	inst := NewInstance("i1", PassThrough{}, ep, gw.Addr(), 1.0)
	stop := inst.Start()
	defer stop()
	p := &packet.Packet{Key: key(1, 2, 3, 4), Payload: []byte("x")}
	if err := gw.Send(ep.Addr(), p, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-gw.Inbox():
		if m.Payload.(*packet.Packet) != p {
			t.Error("different packet returned")
		}
	case <-time.After(time.Second):
		t.Fatal("packet not returned by instance")
	}
	if st := inst.Stats(); st.Processed != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInstanceDropsCounted(t *testing.T) {
	net := simnet.New(1)
	defer net.Close()
	ep, _ := net.Attach(simnet.Addr{Site: "A", Host: "vnf1"}, 64)
	gw, _ := net.Attach(simnet.Addr{Site: "A", Host: "fwd"}, 64)
	fw := NewFirewall(nil, nil) // denies everything
	inst := NewInstance("i1", fw, ep, gw.Addr(), 1.0)
	stop := inst.Start()
	defer stop()
	if err := gw.Send(ep.Addr(), &packet.Packet{Key: key(1, 2, 3, 4)}, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(time.Second)
	for inst.Stats().Dropped == 0 {
		select {
		case <-deadline:
			t.Fatal("drop never counted")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestInstanceSendErrsCounted pins that packets the network refuses are
// counted and go back to their pool: the gateway's one-slot inbox is
// never drained, so once the first burst fills it every forwarded
// packet is refused, as a batch and as a lone packet.
func TestInstanceSendErrsCounted(t *testing.T) {
	net := simnet.New(1)
	defer net.Close()
	ep, errEP := net.Attach(simnet.Addr{Site: "A", Host: "vnf1"}, 64)
	gw, errGW := net.Attach(simnet.Addr{Site: "A", Host: "fwd"}, 1)
	src, errSrc := net.Attach(simnet.Addr{Site: "A", Host: "src"}, 1)
	if errEP != nil || errGW != nil || errSrc != nil {
		t.Fatal(errEP, errGW, errSrc)
	}
	inst := NewInstance("i1", PassThrough{}, ep, gw.Addr(), 1.0)
	stop := inst.Start()
	defer stop()

	burst := func(n int) []*packet.Packet {
		pool := packet.NewPool() // its own, so no later burst reuses a released packet
		b := packet.GetBatch()
		b.Pool = pool
		pkts := make([]*packet.Packet, n)
		for k := range pkts {
			pkts[k] = pool.Get()
			pkts[k].Key = key(1, 2, uint16(k+1), 4)
			b.Append(pkts[k], 1)
		}
		if err := src.SendBatch(ep.Addr(), b); err != nil {
			t.Fatal(err)
		}
		return pkts
	}
	waitFor := func(what string, done func() bool) {
		deadline := time.Now().Add(time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats = %+v", what, inst.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	burst(3)
	waitFor("the gateway inbox to fill", func() bool { return len(gw.Inbox()) == 1 })
	refused := burst(2)
	waitFor("the batch refusal", func() bool { return inst.Stats().SendErrs == 2 })
	refused = append(refused, burst(1)...)
	waitFor("the lone-packet refusal", func() bool { return inst.Stats().SendErrs == 3 })

	for k, p := range refused {
		if p.Key != (packet.FlowKey{}) {
			t.Errorf("refused packet %d not released to its pool: key %+v", k, p.Key)
		}
	}
	if st := inst.Stats(); st.Processed != 6 || st.SendErrs != 3 {
		t.Errorf("stats = %+v, want 6 processed, 3 send errors", st)
	}
}
