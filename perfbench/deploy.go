package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/edge"
	"switchboard/internal/experiments"
	"switchboard/internal/forwarder"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
	"switchboard/internal/vnf"
)

const (
	serverIP   = 0xC0000201 // 192.0.2.1, behind the egress edge
	serverPort = 80
	natBaseIP  = 0x05050500 // NAT instance k translates to 5.5.5.k
	natMinPort = 20000      // vnf.NewNAT allocates ports 20000–65535
	// readyWait bounds how long an admission waits for its chain's data
	// path before it counts as timed out (in admit-churn: as stalled, and
	// is republished): about 3 times the slowest healthy set-up seen in
	// admit-churn (16 ms).
	readyWait        = 50 * time.Millisecond
	maxSetupTimeouts = 20
	// vnfCapacity is each VNF's compute capacity at a site that offers
	// it, in the model's traffic units: ample for every workload, so
	// admission is never refused for capacity.
	vnfCapacity = 1000
)

// insideNet is the firewall's trusted side: every client address the
// generators use lies in 10.0.0.0/8.
var insideNet = []vnf.Prefix{{IP: 0x0A000000, Bits: 8}}

// chainVNFs registers the firewall and NAT services every workload's
// chains use. Instances are label-aware and shared across chains at a
// site, as the paper's service-oriented deployment does, so chain churn
// does not start a fresh instance per admission.
func chainVNFs(bed *experiments.Bed, capacity map[simnet.SiteID]float64) (fw, nat *controller.VNFController) {
	var natSeq atomic.Uint32
	fw = bed.AddVNF(controller.VNFConfig{
		Name:            "firewall",
		Factory:         func() vnf.Function { return vnf.NewFirewall(insideNet, nil) },
		LoadPerUnit:     1,
		LabelAware:      true,
		Capacity:        capacity,
		SharedInstances: true,
	})
	nat = bed.AddVNF(controller.VNFConfig{
		Name:            "nat",
		Factory:         func() vnf.Function { return vnf.NewNAT(natBaseIP + natSeq.Add(1)) },
		LoadPerUnit:     1,
		LabelAware:      true,
		Capacity:        capacity,
		SharedInstances: true,
	})
	return fw, nat
}

// dataBed is a deployment carrying one chain firewall → NAT with a
// client host at the chain's ingress edge and a server (or sink) host at
// its egress edge.
type dataBed struct {
	bed             *experiments.Bed
	rec             *controller.RouteRecord
	ingress, egress *edge.Instance
	client, server  *simnet.Endpoint
	fw, nat         *controller.VNFController
	sites           []simnet.SiteID // every site, the Global Switchboard's included
	dataSites       []simnet.SiteID // sites registered to carry chains
	// setupTimeouts counts deployments discarded because their data
	// chain never became ready.
	setupTimeouts int
}

// bedSpec describes a deployment: the Global Switchboard's site (which
// also runs a Local Switchboard), the data sites, the one-way delay of
// every inter-site path (zero delivers at once), where VNFs may run, and
// the chain that carries the workload's packets.
type bedSpec struct {
	gs        simnet.SiteID
	sites     []simnet.SiteID
	delay     time.Duration
	vnfSites  []simnet.SiteID
	chain     controller.Spec
	clientIPs []uint32 // registered at the ingress edge so replies reach them
}

// deployDataChain builds the deployment. When its chain never becomes
// ready (errNotReady) the whole deployment is torn down and built again,
// up to maxSetupTimeouts times; the count is reported.
func deployDataChain(seed int64, bs bedSpec) (*dataBed, error) {
	for timeouts := 0; ; timeouts++ {
		d, err := deployOnce(seed, bs)
		if err == nil {
			d.setupTimeouts = timeouts
			return d, nil
		}
		if !errors.Is(err, errNotReady) || timeouts == maxSetupTimeouts {
			return nil, err
		}
	}
}

func deployOnce(seed int64, bs bedSpec) (*dataBed, error) {
	all := bs.sites
	if bs.gs != bs.sites[0] {
		all = append([]simnet.SiteID{bs.gs}, bs.sites...)
	}
	bed, err := experiments.NewBed(seed, bs.delay, all...)
	if err != nil {
		return nil, err
	}
	d := &dataBed{bed: bed, sites: all, dataSites: bs.sites}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	for _, s := range bs.sites {
		if _, err := bed.G.RegisterSite(s, 1e6); err != nil {
			return nil, err
		}
	}
	capacity := map[simnet.SiteID]float64{}
	for _, s := range bs.vnfSites {
		capacity[s] = vnfCapacity
	}
	d.fw, d.nat = chainVNFs(bed, capacity)
	if d.rec, err = bed.G.CreateChain(bs.chain); err != nil {
		return nil, err
	}
	if d.ingress, d.egress, err = bed.G.ConfigureChainEdges(d.rec, []edge.MatchRule{{}}); err != nil {
		return nil, err
	}
	if _, err := waitReady(bed.G, d.rec, readyWait); err != nil {
		return nil, err
	}
	if d.client, err = bed.Net.Attach(simnet.Addr{Site: bs.chain.IngressSite, Host: "client"}, 8192); err != nil {
		return nil, err
	}
	if d.server, err = bed.Net.Attach(simnet.Addr{Site: bs.chain.EgressSite, Host: "server"}, 8192); err != nil {
		return nil, err
	}
	d.egress.RegisterHost(serverIP, d.server.Addr())
	for _, ip := range bs.clientIPs {
		d.ingress.RegisterHost(ip, d.client.Addr())
	}
	ok = true
	return d, nil
}

// close tears the deployment down. Every site is blacked out first and
// given a moment to go quiet: simnet.Network.Close can race a bus
// proxy's in-flight send (anti-entropy runs every 250 ms) into a closed
// inbox and panic, and a blacked-out site's sends are dropped before
// they reach any inbox.
func (d *dataBed) close() {
	for _, s := range d.sites {
		d.bed.Net.BlackoutSite(s)
	}
	time.Sleep(20 * time.Millisecond)
	d.bed.Close()
}

// errNotReady marks an admission whose data path did not become ready
// in time. The Local Switchboard rebuilds a chain's rules from a
// snapshot of the instance and forwarder lists it has received, once per
// received publication, from one goroutine per bus subscription;
// concurrent rebuilds can install a stale snapshot last, and the chain
// then waits for a publication that never comes (see README.md).
var errNotReady = errors.New("data path not ready")

// waitReady waits until the data path is ready on every site of the
// route and returns the instant the last site became ready. A site's
// instant is the latest install of the chain's rule on its forwarders
// (the install that completed the rule), capped by when WaitForDataPath
// observed readiness, so the figure is not rounded up to that call's
// 2 ms polling period.
func waitReady(g *controller.GlobalSwitchboard, rec *controller.RouteRecord, timeout time.Duration) (int64, error) {
	deadline := time.Now().Add(timeout)
	var readyAt int64
	st := stackOf(rec)
	for _, s := range routeSites(rec) {
		// At least one check per site, however little time is left.
		if err := g.WaitForDataPath(rec, s, max(time.Until(deadline), time.Millisecond)); err != nil {
			return 0, fmt.Errorf("%w: chain %s at %s", errNotReady, rec.Chain, s)
		}
		seen := time.Now().UnixNano()
		ls, _ := g.Local(s) // WaitForDataPath just found it
		installed := int64(0)
		for _, role := range siteRoles(rec, s) {
			f, err := ls.Forwarder(role)
			if err != nil {
				return 0, err
			}
			if at, ok := f.RuleInstalledAt(st); ok && at.UnixNano() > installed {
				installed = at.UnixNano()
			}
		}
		if installed == 0 || installed > seen {
			installed = seen
		}
		if installed > readyAt {
			readyAt = installed
		}
	}
	return readyAt, nil
}

// routeSites lists the sites a route record places work on: its edges
// and every site receiving stage traffic.
func routeSites(rec *controller.RouteRecord) []simnet.SiteID {
	seen := map[simnet.SiteID]bool{}
	var out []simnet.SiteID
	add := func(s simnet.SiteID) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	add(rec.IngressSite)
	for _, s := range rec.ExtraIngress {
		add(s)
	}
	add(rec.EgressSite)
	for _, sp := range rec.Splits {
		if sp.Weight > 0 {
			add(sp.To)
		}
	}
	return out
}

// siteRoles lists the forwarder roles a route record uses at a site:
// "edge" where the chain enters or leaves, and each VNF whose stage the
// site receives.
func siteRoles(rec *controller.RouteRecord, site simnet.SiteID) []string {
	var roles []string
	if rec.IsIngress(site) || rec.EgressSite == site {
		roles = append(roles, "edge")
	}
	for j, v := range rec.VNFs {
		for _, sp := range rec.Splits {
			if sp.Stage == j+1 && sp.To == site && sp.Weight > 0 {
				roles = append(roles, v)
				break
			}
		}
	}
	return roles
}

func stackOf(rec *controller.RouteRecord) labels.Stack {
	return labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}
}

// forwarders returns every Local Switchboard forwarder a route record
// uses, keyed "site/role". Roles are only looked up where the record
// says they exist, since LocalSwitchboard.Forwarder creates on demand.
func forwarders(g *controller.GlobalSwitchboard, rec *controller.RouteRecord) (map[string]*forwarder.Forwarder, error) {
	out := map[string]*forwarder.Forwarder{}
	for _, s := range routeSites(rec) {
		ls, ok := g.Local(s)
		if !ok {
			return nil, fmt.Errorf("no Local Switchboard at %s", s)
		}
		for _, role := range siteRoles(rec, s) {
			f, err := ls.Forwarder(role)
			if err != nil {
				return nil, err
			}
			out[string(s)+"/"+role] = f
		}
	}
	return out, nil
}

// natBindings sums the translations held by every NAT instance.
func natBindings(nat *controller.VNFController, sites []simnet.SiteID) int {
	n := 0
	for _, s := range sites {
		for _, inst := range nat.InstancesAt(s) {
			if t, ok := inst.Function().(*vnf.NAT); ok {
				n += t.Translations()
			}
		}
	}
	return n
}

// isNATSource reports whether a delivered packet carries a NAT public
// source address and an allocated port.
func isNATSource(k packet.FlowKey) bool {
	return k.SrcIP&0xFFFFFF00 == natBaseIP && k.SrcIP != natBaseIP && k.SrcPort >= natMinPort
}

// pathDiag describes the data path's state for a run that lost
// operations: per forwarder its counters and rule, per edge its counters.
func pathDiag(d *dataBed) []string {
	var out []string
	fs, err := forwarders(d.bed.G, d.rec)
	if err != nil {
		return []string{err.Error()}
	}
	st := stackOf(d.rec)
	for name, f := range fs {
		l, n, p, ok := f.RuleInfo(st)
		out = append(out, fmt.Sprintf("%s %+v rule=%v %d/%d/%d", name, f.Stats(), ok, l, n, p))
	}
	for _, s := range d.sites {
		if ls, ok := d.bed.G.Local(s); ok && ls.Edge() != nil {
			out = append(out, fmt.Sprintf("edge %s %+v", s, ls.Edge().Stats()))
		}
	}
	for _, v := range []*controller.VNFController{d.fw, d.nat} {
		for _, s := range d.sites {
			for _, inst := range v.InstancesAt(s) {
				out = append(out, fmt.Sprintf("%s %+v", inst.ID(), inst.Stats()))
			}
		}
	}
	return out
}
