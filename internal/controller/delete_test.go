package controller

import (
	"testing"
	"time"

	"switchboard/internal/edge"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
	"switchboard/internal/testutil"
	"switchboard/internal/vnf"
)

func TestDeleteChainRemovesRulesAndReleasesResources(t *testing.T) {
	tb := newTestbed(t, 2*time.Millisecond, "A", "B", "C")
	tb.registerSites(1000, "A", "B", "C")
	v := tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 100})

	rec, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "C",
		VNFs: []string{"fw"}, ForwardRate: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingress, egress, err := tb.g.ConfigureChainEdges(rec, []edge.MatchRule{{}})
	if err != nil {
		t.Fatal(err)
	}
	tb.waitReady(rec, "A", "B", "C")

	// Traffic works pre-delete.
	client := tb.host("A", "client")
	server := tb.host("C", "server")
	egress.RegisterHost(serverIP, server.Addr())
	sendAndWait(t, client, ingress.Addr(), server,
		&packet.Packet{Key: clientKey(60000), Payload: []byte("pre")})

	remainBefore := v.Sites()["B"]
	if remainBefore > 99 {
		t.Fatalf("no load committed before delete: remaining %v", remainBefore)
	}
	dedicated := v.InstancesAt("B")
	if len(dedicated) == 0 {
		t.Fatal("no dedicated fw instance at B before delete")
	}
	if err := tb.g.DeleteChain("c1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.g.Record("c1"); ok {
		t.Error("record still present after delete")
	}
	if got := v.Sites()["B"]; got != 100 {
		t.Errorf("capacity after delete = %v, want 100 (released)", got)
	}
	// The chain's dedicated instances are retired with it: stopped,
	// forgotten, and their endpoints detached.
	if left := v.InstancesAt("B"); len(left) != 0 {
		t.Errorf("%d dedicated instances survive the delete", len(left))
	}
	attached := map[simnet.Addr]bool{}
	for _, a := range tb.net.Endpoints() {
		attached[a] = true
	}
	for _, inst := range dedicated {
		if attached[inst.Addr()] {
			t.Errorf("deleted chain's instance %v is still attached", inst.Addr())
		}
	}

	// Rules disappear at every site.
	st := labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}
	testutil.WaitUntil(t, 3*time.Second, "rules removed after delete", func() bool {
		for site, role := range map[simnet.SiteID]string{"A": "edge", "B": "fw", "C": "edge"} {
			f, err := tb.locals[site].Forwarder(role)
			if err != nil {
				continue
			}
			if _, _, _, ok := f.RuleInfo(st); ok {
				return false
			}
		}
		return true
	})

	// New traffic for the chain is dropped at the ingress edge (its
	// classification rules are gone).
	p := &packet.Packet{Key: clientKey(60001), Payload: []byte("post")}
	if err := client.Send(ingress.Addr(), p, 8); err != nil {
		t.Fatal(err)
	}
	select {
	case <-server.Inbox():
		t.Error("packet delivered through a deleted chain")
	case <-time.After(200 * time.Millisecond):
	}

	if err := tb.g.DeleteChain("c1"); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestDeleteChainFreesLabelForReuse(t *testing.T) {
	tb := newTestbed(t, time.Millisecond, "A", "B")
	tb.registerSites(1000, "A", "B")
	tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 100})
	rec1, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "B", VNFs: []string{"fw"}, ForwardRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.g.DeleteChain("c1"); err != nil {
		t.Fatal(err)
	}
	rec2, err := tb.g.CreateChain(Spec{
		ID: "c2", IngressSite: "A", EgressSite: "B", VNFs: []string{"fw"}, ForwardRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ChainLabel != rec1.ChainLabel {
		t.Logf("label %d not reused (got %d) — allocator may hand out fresh ones first", rec1.ChainLabel, rec2.ChainLabel)
	}
	if rec2.ChainLabel == 0 {
		t.Error("no label allocated")
	}
}
