package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/forwarder"
	"switchboard/internal/obs"
	"switchboard/internal/simnet"
)

// admit-churn: the Global Switchboard and four data sites joined by 1 ms
// WAN paths, so bus traffic crosses simnet pipes. A standing population
// of churnPopulation two-VNF chains with mixed ingress and egress sites
// is kept constant by one admission caller that loops create → ready on
// every route site → delete the oldest → its rules gone everywhere, and
// every churnReplanEvery cycles re-optimizes the whole population with
// SB-LP and lets that settle. One extra standing chain carries a light
// open-loop stream.
const (
	churnPopulation  = 40
	churnReplanEvery = 25
	churnDelay       = time.Millisecond
	churnSetups      = 5
	streamRate       = 2000 // packets/s on the standing chain
	removeWait       = 300 * time.Millisecond
	quietFor         = 10 * time.Millisecond
	quietMax         = 500 * time.Millisecond
	// maxRepublish bounds how often one route that stalled is
	// republished before it counts as failed.
	maxRepublish = 3
)

var churnSites = []simnet.SiteID{"A", "B", "C", "D"}

// cpStats are the control-plane timings of one window, all in ns.
type cpStats struct {
	setup, create, install, del, replan samples
	// setupSec holds the set-up times again, by slice of the window.
	setupSec              *latRec
	cycles, wan, timeouts uint64
	// republished counts routes republished because they stalled.
	republished uint64
	done        counter // completed cycles
}

// member is one standing chain of the admission population.
type member struct {
	spec controller.Spec
	rec  *controller.RouteRecord
	// used records every site/role any version of the route placed a
	// rule on, so deletion can be checked everywhere a rule ever was.
	used  map[simnet.SiteID]map[string]bool
	ready bool
}

func (m *member) note(rec *controller.RouteRecord) {
	m.rec = rec
	for _, s := range routeSites(rec) {
		if m.used[s] == nil {
			m.used[s] = map[string]bool{}
		}
		for _, role := range siteRoles(rec, s) {
			m.used[s][role] = true
		}
	}
}

// admitter is the admission caller: it creates, readies and deletes
// chains and re-optimizes the population, timing each call into the
// control plane and checking its effects.
type admitter struct {
	g     *controller.GlobalSwitchboard
	vnfs  []*controller.VNFController
	rng   *rand.Rand
	sites []simnet.SiteID // ingress/egress choices
	size  int             // standing population kept
	every int             // cycles between replans
	pop   []*member
	fixed []controller.Spec // standing chains outside the churn
	next  int
	// setupTimeouts counts the standing chains' routes republished
	// during set-up because they stalled.
	setupTimeouts int
	res           *result
	spans         *spanLog
	rec           *obs.Recorder
	obsLog        map[uint64]obs.Span
	// roles records every site/role any admitted chain used, so the
	// forwarders can be read out at the end without creating new ones.
	roles map[simnet.SiteID]map[string]bool
}

func (a *admitter) noteRoles(m *member) {
	if a.roles == nil {
		a.roles = map[simnet.SiteID]map[string]bool{}
	}
	for s, rs := range m.used {
		if a.roles[s] == nil {
			a.roles[s] = map[string]bool{}
		}
		for r := range rs {
			a.roles[s][r] = true
		}
	}
}

// allForwarders returns every forwarder an admitted chain or rec used.
func (a *admitter) allForwarders(rec *controller.RouteRecord) map[string]*forwarder.Forwarder {
	out, _ := forwarders(a.g, rec) // rec's sites all host a Local Switchboard
	for s, rs := range a.roles {
		ls, ok := a.g.Local(s)
		if !ok {
			continue
		}
		for r := range rs {
			if f, err := ls.Forwarder(r); err == nil {
				out[string(s)+"/"+r] = f
			}
		}
	}
	return out
}

func (a *admitter) nextSpec() controller.Spec {
	a.next++
	f := 1 + 4*a.rng.Float64()
	return controller.Spec{
		ID:          controller.ChainID(fmt.Sprintf("c%d", a.next)),
		IngressSite: a.sites[a.rng.Intn(len(a.sites))],
		EgressSite:  a.sites[a.rng.Intn(len(a.sites))],
		VNFs:        []string{"firewall", "nat"},
		ForwardRate: f,
		ReverseRate: f / 2,
	}
}

// fill creates the standing population, each chain ready before the
// next is admitted.
func (a *admitter) fill() error {
	var cs cpStats
	defer func() { a.setupTimeouts += int(cs.republished) }()
	for len(a.pop) < a.size {
		spec := a.nextSpec()
		rec, err := a.g.CreateChain(spec)
		if err != nil {
			return err
		}
		m := &member{spec: spec, used: map[simnet.SiteID]map[string]bool{}}
		m.note(rec)
		a.noteRoles(m)
		if _, err := a.readyOrRepublish(&cs, m); err != nil {
			return err
		}
		a.pop = append(a.pop, m)
	}
	return nil
}

// cycle admits one chain, waits for it everywhere, and retires the
// oldest member. It returns false when the cycle failed.
func (a *admitter) cycle(cs *cpStats, cycleNo uint64) bool {
	spec := a.nextSpec()
	t0 := time.Now().UnixNano()
	rec, err := a.g.CreateChain(spec)
	t1 := time.Now().UnixNano()
	root := a.spans.add(0, cycleNo, "workload.cycle", t0, t0)
	a.spans.add(root, cycleNo, "gs.create_chain", t0, t1)
	if err != nil {
		return false // refused admission
	}
	m := &member{spec: spec, used: map[simnet.SiteID]map[string]bool{}}
	m.note(rec)
	a.noteRoles(m)
	readyAt, err := a.readyOrRepublish(cs, m)
	if err != nil {
		// An admission still stalled after maxRepublish republications:
		// it fails, counts as slower than any limit, and its
		// half-installed chain must still vanish cleanly.
		cs.timeouts++
		cs.setup.add(failedNs)
		cs.setupSec.add(t0, failedNs)
		a.remove(m, cs, root, cycleNo)
		return false
	}
	a.spans.add(root, cycleNo, "ls.install", t1, readyAt)
	cs.create.add(t1 - t0)
	cs.install.add(readyAt - t1)
	cs.setup.add(readyAt - t0)
	cs.setupSec.add(t0, readyAt-t0)
	m.ready = true
	a.pop = append(a.pop, m)
	ok := true
	if len(a.pop) > a.size {
		old := a.pop[0]
		a.pop = a.pop[1:]
		ok = a.remove(old, cs, root, cycleNo)
	}
	cs.cycles++
	return ok
}

// readyOrRepublish waits until every member's route is ready on every
// site and returns the instant the last became ready. The routes whose
// rules stall (errNotReady within one readyWait for all of them) are
// republished with RecomputeChain at their own rates, the program's way
// to make every site rebuild a chain's rules from the lists it holds
// now, and waited for again, up to maxRepublish times; cs.republished
// counts the republications and the waits stay in the caller's latency.
func (a *admitter) readyOrRepublish(cs *cpStats, ms ...*member) (int64, error) {
	var readyAt int64
	for n := 0; ; n++ {
		deadline := time.Now().Add(readyWait)
		var stalled []*member
		for _, m := range ms {
			at, err := waitReady(a.g, m.rec, time.Until(deadline))
			switch {
			case errors.Is(err, errNotReady) && n < maxRepublish:
				stalled = append(stalled, m)
			case err != nil:
				return 0, err
			}
			readyAt = max(readyAt, at)
		}
		if len(stalled) == 0 {
			return readyAt, nil
		}
		for _, m := range stalled {
			cs.republished++
			rec, err := a.g.RecomputeChain(m.spec.ID, 0, -1)
			if err != nil {
				return 0, fmt.Errorf("republishing %s: %w", m.spec.ID, err)
			}
			m.note(rec)
			a.noteRoles(m)
		}
		ms = stalled
	}
}

// remove deletes a member and waits until no forwarder that ever held
// one of its rules still does.
func (a *admitter) remove(m *member, cs *cpStats, root, cycleNo uint64) bool {
	if rec, ok := a.g.Record(m.spec.ID); ok {
		m.note(rec)
	}
	t0 := time.Now().UnixNano()
	err := a.g.DeleteChain(m.spec.ID)
	t1 := time.Now().UnixNano()
	a.spans.add(root, cycleNo, "gs.delete_chain", t0, t1)
	if err != nil {
		a.res.violate("deleting %s: %v", m.spec.ID, err)
		return false
	}
	cs.del.add(t1 - t0)
	return a.removeDeleted(m, root, cycleNo)
}

// removeDeleted waits until no forwarder that ever held one of a
// deleted chain's rules still does.
func (a *admitter) removeDeleted(m *member, root, cycleNo uint64) bool {
	t1 := time.Now().UnixNano()
	st := stackOf(m.rec)
	deadline := time.Now().Add(removeWait)
	for s, roles := range m.used {
		ls, ok := a.g.Local(s)
		if !ok {
			continue
		}
		for role := range roles {
			f, err := ls.Forwarder(role)
			if err != nil {
				a.res.violate("forwarder %s/%s: %v", s, role, err)
				return false
			}
			for {
				if _, _, _, held := f.RuleInfo(st); !held && f.RuleNextHopCount(st) == 0 {
					break
				}
				if time.Now().After(deadline) {
					at, _ := f.RuleInstalledAt(st)
					l, n, p, _ := f.RuleInfo(st)
					a.res.violate("deleted chain %s left a rule at %s/%s (installed %.3f ms after the delete call, %d/%d/%d hops, version %d, ready %v)",
						m.spec.ID, s, role, float64(at.UnixNano()-t1)/1e6, l, n, p, m.rec.Version, m.ready)
					return false
				}
				preciseSleep(200e3)
			}
		}
	}
	a.spans.add(root, cycleNo, "ls.remove", t1, time.Now().UnixNano())
	return true
}

// replan re-optimizes every installed chain jointly with SB-LP.
func (a *admitter) replan(cs *cpStats, cycleNo uint64) bool {
	a.g.UseLP = true
	t0 := time.Now().UnixNano()
	err := a.g.OptimizeAll()
	t1 := time.Now().UnixNano()
	a.g.UseLP = false
	a.spans.add(0, cycleNo, "gs.optimize_all", t0, t1)
	if err != nil {
		return false
	}
	cs.replan.add(t1 - t0)
	for _, m := range a.pop {
		if rec, ok := a.g.Record(m.spec.ID); ok {
			m.note(rec)
			a.noteRoles(m)
		}
	}
	return a.settle(cs, cycleNo)
}

// settle waits until a replan has been applied. OptimizeAll returns once
// the new routes are published; the Local Switchboards apply them
// afterwards. Like an admission, which the caller lets become ready
// before its next call, a replan is done when every standing chain's new
// route is ready on every site (a stalled route republished as in an
// admission) and no forwarder has (re)installed one of their rules for
// quietFor (at most quietMax). It reports whether every chain became
// ready.
func (a *admitter) settle(cs *cpStats, cycleNo uint64) bool {
	start := time.Now()
	chains := append([]*member(nil), a.pop...)
	for _, spec := range a.fixed {
		if rec, ok := a.g.Record(spec.ID); ok {
			chains = append(chains, &member{spec: spec, rec: rec, used: map[simnet.SiteID]map[string]bool{}})
		}
	}
	_, err := a.readyOrRepublish(cs, chains...)
	var recs []*controller.RouteRecord
	for _, m := range chains {
		recs = append(recs, m.rec)
	}
	for time.Since(start) < quietMax && time.Since(lastInstall(a.g, recs)) < quietFor {
		preciseSleep(int64(quietFor / 10))
	}
	a.spans.add(0, cycleNo, "workload.settle", start.UnixNano(), time.Now().UnixNano())
	return err == nil
}

// lastInstall is the latest install of any of the chains' rules on the
// forwarders their routes use.
func lastInstall(g *controller.GlobalSwitchboard, recs []*controller.RouteRecord) time.Time {
	var last time.Time
	for _, rec := range recs {
		fs, err := forwarders(g, rec)
		if err != nil {
			continue
		}
		for _, f := range fs {
			if at, ok := f.RuleInstalledAt(stackOf(rec)); ok && at.After(last) {
				last = at
			}
		}
	}
	return last
}

// checkLoads verifies that the VNF controllers hold exactly the compute
// load the standing chains need: two stages of each VNF see the chain's
// forward plus reverse traffic, times the VNF's load per unit.
func (a *admitter) checkLoads() {
	want := 0.0
	for _, m := range a.pop {
		want += 2 * (m.spec.ForwardRate + m.spec.ReverseRate)
	}
	for _, spec := range a.fixed {
		want += 2 * (spec.ForwardRate + spec.ReverseRate)
	}
	for _, v := range a.vnfs {
		have := 0.0
		free := v.Sites()
		for s, c := range v.Capacity() {
			have += c - free[s]
		}
		if math.Abs(have-want*v.LoadPerUnit()) > 1e-6*math.Max(1, want) {
			a.res.violate("VNF %s holds load %.6f, standing chains need %.6f", v.Name(), have, want*v.LoadPerUnit())
		}
	}
}

// drainObs copies the Global Switchboard's and VNF controllers' own
// spans out of the recorder's bounded ring before they are overwritten.
func (a *admitter) drainObs() {
	if a.rec == nil {
		return
	}
	for _, s := range a.rec.Spans() {
		a.obsLog[s.ID] = s
	}
}

// obsQuantile is a quantile of the durations of recorded program spans
// whose name has the given prefix and whose parent matches want
// (-1: any parent, 0: roots only, 1: non-roots only).
func (a *admitter) obsQuantile(prefix string, want int, q float64) float64 {
	var s samples
	for _, sp := range a.obsLog {
		if len(sp.Name) < len(prefix) || sp.Name[:len(prefix)] != prefix {
			continue
		}
		if (want == 0 && sp.Parent != 0) || (want == 1 && sp.Parent == 0) {
			continue
		}
		s.add(sp.EndNs - sp.StartNs)
	}
	return s.quantile(q)
}

func runAdmitChurn(cfg config) (*result, error) {
	type churnBed struct {
		d   *dataBed
		adm *admitter
	}
	res := newResult()
	setupTimeouts := 0
	build := func() (*churnBed, error) {
		d, err := deployDataChain(cfg.seed, bedSpec{
			gs: "G", sites: churnSites, delay: churnDelay, vnfSites: churnSites, chain: streamSpec,
		})
		if err != nil {
			return nil, err
		}
		adm := &admitter{
			g: d.bed.G, vnfs: []*controller.VNFController{d.fw, d.nat},
			rng:   rand.New(rand.NewSource(cfg.seed)),
			sites: churnSites, size: churnPopulation, every: churnReplanEvery, res: res,
			fixed: []controller.Spec{streamSpec}, obsLog: map[uint64]obs.Span{},
		}
		err = adm.fill()
		setupTimeouts += d.setupTimeouts + adm.setupTimeouts
		if err != nil {
			d.close()
			return nil, err
		}
		return &churnBed{d: d, adm: adm}, nil
	}
	cb, setupS, err := timedSetups(churnSetups, build, func(cb *churnBed) { cb.d.close() })
	if err != nil {
		return nil, err
	}
	d, adm := cb.d, cb.adm
	defer d.close()
	if cfg.trace {
		adm.rec, _ = d.bed.EnableObservability()
		adm.spans = newSpanLog(1 << 20)
	}

	ws := makeWindows(warmup, cfg)
	stream := newOpenLoop(d, streamRate, cfg.seed, ws)
	stats := map[*window]*cpStats{}
	for _, w := range ws {
		stats[w] = &cpStats{done: newCounter(w.start, w.end), setupSec: newLatRec(w.start, w.end)}
	}
	warm := &cpStats{}
	stream.start()
	done := make(chan struct{})
	go func() {
		defer close(done)
		end := ws[len(ws)-1].end
		for cycleNo := uint64(1); time.Now().UnixNano() < end; cycleNo++ {
			w := windowAt(ws, time.Now().UnixNano())
			cs := warm
			if w != nil {
				cs = stats[w]
				w.attempted++
			}
			wan0 := d.bed.Bus.Stats().WANMessages
			ok := adm.cycle(cs, cycleNo)
			switch {
			case w == nil:
			case ok:
				cs.done.add(time.Now().UnixNano())
			default:
				w.failed++
			}
			if cycleNo%uint64(adm.every) == 0 {
				if w != nil {
					w.attempted++
				}
				if !adm.replan(cs, cycleNo) && w != nil {
					w.failed++
				}
			}
			cs.wan += d.bed.Bus.Stats().WANMessages - wan0
			if cycleNo%25 == 0 {
				adm.drainObs()
			}
		}
	}()
	measureWindows(ws, d.bed.Net)
	<-done
	stream.stop()
	stream.finish()
	heap := liveHeapMiB()
	adm.checkLoads()
	stream.check(res)

	w0 := ws[0]
	cs0 := stats[w0]
	var streamFailed uint64
	for _, w := range ws {
		res.attempted += w.attempted + stream.attempted(w)
		res.failed += w.failed + stream.failed(w)
		streamFailed += stream.failed(w)
	}
	res.metrics["setup_s"] = setupS
	res.metrics["ops_per_s"] = cs0.done.rate()
	res.metrics["lat_p50_us"] = us(cs0.setupSec.quantile(0.5))
	res.metrics["workload.lat_p90_us"] = us(cs0.setupSec.quantile(0.9))
	res.detail["lat_p90_us"] = res.metrics["workload.lat_p90_us"]
	res.metrics["live_heap_mb"] = heap
	res.detail["admit_per_s"] = res.metrics["ops_per_s"]
	res.detail["setup_ms_p50"] = ms(cs0.setup.quantile(0.5))
	res.detail["setup_ms_p90"] = ms(cs0.setup.quantile(0.9))
	res.detail["setup_n"] = cs0.setup.n()
	res.detail["replan_ms_p50"] = ms(cs0.replan.quantile(0.5))
	res.detail["replan_n"] = cs0.replan.n()
	res.detail["stream_lat_p50_us"] = us(w0.lat.quantile(0.5))
	res.detail["stream_lat_p90_us"] = us(w0.lat.quantile(0.9))
	res.detail["stream_n"] = w0.lat.all().n
	res.detail["bus_msgs_per_chain"] = float64(cs0.wan) / float64(cs0.cycles)
	res.detail["admit_timeouts"] = cs0.timeouts
	res.detail["republished"] = cs0.republished
	res.detail["stream_failed"] = streamFailed
	countSetupTimeouts(res, setupTimeouts)
	if !cfg.trace {
		return res, nil
	}
	dr := &dataRun{
		d: d, ws: ws, pktsPerOp: 1, conns: stream.flowsDelivered(), undelivered: stream.undelivered(),
		mix: openMix(stream.keyOf), rng: adm.rng, fwds: adm.allForwarders(d.rec),
		adm: adm, cs: stats[ws[len(ws)-1]], cs0: cs0, cpOps: true,
		out: cfg.out, name: cfg.workload, seed: cfg.seed,
	}
	return res, dr.layerMetrics(res)
}

// streamSpec is admit-churn's standing chain that carries traffic.
var streamSpec = controller.Spec{
	ID: "stream", IngressSite: "A", EgressSite: "C",
	VNFs: []string{"firewall", "nat"}, ForwardRate: 5, ReverseRate: 5,
}
