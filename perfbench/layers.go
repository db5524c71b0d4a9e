package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/forwarder"
	"switchboard/internal/model"
	"switchboard/internal/obs"
	"switchboard/internal/simnet"
	"switchboard/internal/te"
)

// Probe sizes for the data workloads' traced runs, which measure the
// control plane after their data-plane windows: a small standing
// population churned for probeCycles cycles with a replan every
// probeReplanEvery.
const (
	probePopulation  = 4
	probeCycles      = 40
	probeReplanEvery = 10
)

// dataRun gathers what the traced run of a workload needs to report the
// per-layer metrics.
type dataRun struct {
	d           *dataBed
	ws          []*window
	pktsPerOp   float64 // chain traversals per operation
	conns       int     // connections the egress edge recorded
	undelivered uint64  // packets the benchmark saw go missing
	mix         isoMix
	rng         *rand.Rand
	fwds        map[string]*forwarder.Forwarder
	out         string
	name        string

	// Set for admit-churn, whose windows already exercised the control
	// plane; nil makes layerMetrics run a probe after the windows.
	adm     *admitter
	cs, cs0 *cpStats // traced and untraced windows
	seed    int64
	// cpOps marks a workload whose operation is an admission cycle
	// rather than a packet: per-operation figures then use the cycle
	// counts and set-up times of cs and cs0.
	cpOps bool
}

func dataSpec(site simnet.SiteID) controller.Spec {
	return controller.Spec{
		ID: "data", IngressSite: site, EgressSite: site,
		VNFs: []string{"firewall", "nat"}, ForwardRate: 10, ReverseRate: 10,
	}
}

func (dr *dataRun) layerMetrics(res *result) error {
	m := res.metrics
	w0, wt := dr.ws[0], dr.ws[len(dr.ws)-1]
	spans := newSpanLog(1 << 20)
	if dr.adm != nil && dr.adm.spans != nil {
		spans = dr.adm.spans
	}
	hs := analyzeTraces(wt.traces, spans)
	res.detail["trace.paths"] = hs.paths

	// The workload's own view.
	opLat := w0.lat
	if dr.cpOps {
		opLat = dr.cs0.setupSec
	}
	all0 := opLat.all()
	tailPct, tail := all0.tail()
	m["workload.gen_lag_p99_us"] = us(wt.genLag.quantile(0.99))
	m["workload.lat_tail_us"] = us(tail)
	m["workload.lat_tail_pct"] = tailPct
	m["workload.lat_n"] = float64(all0.n)
	m["workload.stream_lat_p50_us"] = us(w0.lat.quantile(0.5))
	m["workload.stream_lat_p90_us"] = us(w0.lat.quantile(0.9))

	pkts := float64(wt.done.n) * dr.pktsPerOp
	m["simnet.msgs_per_pkt"] = float64(wt.msgs) / pkts
	simnetNs := isoSimnet()
	m["simnet.send_recv_ns_per_msg"] = simnetNs
	m["simnet.queue_full_drops"] = float64(dr.d.bed.Net.Stats().DropsQueueFull)

	inNs, egNs := isoEdge(dr.mix)
	m["edge.ingress_ns_per_pkt"] = inNs
	m["edge.egress_ns_per_pkt"] = egNs
	m["edge.at_p50_us"] = hs.atP("edge", 0.5)
	m["edge.to_p50_us"] = hs.toP("edge", 0.5)
	m["edge.conns"] = float64(dr.conns)

	burst := int(math.Round(hs.avgBurst()))
	if burst < 1 || math.IsNaN(hs.avgBurst()) {
		burst = 1
	}
	if burst > 64 {
		burst = 64
	}
	fr := isoForwarder(dr.mix, burst)
	res.detail["iso.forwarder_burst"] = burst
	res.detail["iso.forwarder_errs"] = fr.errs
	m["forwarder.batch_ns_per_pkt"] = fr.nsPerPkt
	m["forwarder.allocs_per_burst"] = fr.allocsPerBurst
	m["forwarder.bytes_per_burst"] = fr.bytesPerBurst
	m["forwarder.avg_burst"] = hs.avgBurst()
	m["forwarder.at_p50_us"] = hs.atP("forwarder", 0.5)
	m["forwarder.at_p90_us"] = hs.atP("forwarder", 0.9)
	m["forwarder.to_p50_us"] = hs.toP("forwarder", 0.5)
	var fwdDrops, rx, newFlows, entries uint64
	for _, f := range dr.fwds {
		st := f.Stats()
		fwdDrops += st.Drops
		rx += st.Rx
		newFlows += st.NewFlows
		entries += uint64(f.FlowCount())
	}
	m["forwarder.drops"] = float64(fwdDrops)

	lookupNs, insertNs := isoDHT(dr.mix)
	m["dht.lookup_ns_per_pkt"] = lookupNs
	m["dht.insert_ns_per_flow"] = insertNs
	m["dht.new_flow_ratio"] = float64(newFlows) / float64(rx)
	m["dht.entries"] = float64(entries)

	fwNs, natNs := isoVNF(dr.mix)
	m["vnf.firewall_ns_per_pkt"] = fwNs
	m["vnf.nat_ns_per_pkt"] = natNs
	m["vnf.at_p50_us"] = hs.atP("vnf", 0.5)
	m["vnf.nat_bindings"] = float64(natBindings(dr.d.nat, dr.d.sites))
	var vnfDrops, edgeDrops uint64
	for _, s := range dr.d.sites {
		for _, v := range []*controller.VNFController{dr.d.fw, dr.d.nat} {
			for _, inst := range v.InstancesAt(s) {
				vnfDrops += inst.Stats().Dropped
			}
		}
		if ls, ok := dr.d.bed.G.Local(s); ok && ls.Edge() != nil {
			st := ls.Edge().Stats()
			edgeDrops += st.Unmatched + st.NoEgress + st.NoLocalHost
		}
	}
	m["vnf.dropped"] = float64(vnfDrops)
	m["loss.uncounted_pkts"] = float64(dr.undelivered) - float64(fwdDrops+vnfDrops+edgeDrops)
	res.detail["loss.undelivered_pkts"] = dr.undelivered
	res.detail["loss.counted_drops"] = fwdDrops + vnfDrops + edgeDrops

	// Per-operation process cost in the traced window, and the tracing
	// overhead against the untraced window of the same deployment.
	ops := float64(wt.done.n)
	ops0 := float64(w0.done.n)
	if dr.cpOps {
		ops, ops0 = float64(dr.cs.cycles), float64(dr.cs0.cycles)
	}
	cpuPerOp := float64(wt.proc.cpuNs) / ops
	m["proc.cpu_ns_per_op"] = cpuPerOp
	m["proc.busy_frac"] = wt.proc.busyFrac()
	m["proc.alloc_bytes_per_op"] = float64(wt.proc.allocB) / ops
	m["proc.gc_cycles"] = float64(wt.proc.gcs)
	m["trace.overhead_frac"] = cpuPerOp/(float64(w0.proc.cpuNs)/ops0) - 1

	// Control plane.
	cs, adm := dr.cs, dr.adm
	bus0 := dr.d.bed.Bus.Stats()
	if adm == nil {
		adm = &admitter{
			g: dr.d.bed.G, vnfs: []*controller.VNFController{dr.d.fw, dr.d.nat}, rng: dr.rng,
			sites: []simnet.SiteID{dr.d.rec.IngressSite}, size: probePopulation, every: probeReplanEvery,
			res: res, fixed: []controller.Spec{dataSpec(dr.d.rec.IngressSite)},
			spans: spans, obsLog: map[uint64]obs.Span{},
		}
		adm.rec, _ = dr.d.bed.EnableObservability()
		cs = &cpStats{}
		if err := adm.fill(); err != nil {
			return fmt.Errorf("control-plane probe: %w", err)
		}
		for c := uint64(1); c <= probeCycles; c++ {
			adm.cycle(cs, c)
			if c%probeReplanEvery == 0 {
				adm.replan(cs, c)
			}
		}
		adm.checkLoads()
	}
	adm.drainObs()
	bus1 := dr.d.bed.Bus.Stats()
	m["gs.create_chain_ms_p50"] = ms(cs.create.quantile(0.5))
	m["gs.path_compute_ms_p50"] = ms(adm.obsQuantile("gs.path_compute", 1, 0.5))
	m["gs.delete_chain_ms_p50"] = ms(cs.del.quantile(0.5))
	m["gs.replan_ms_p50"] = ms(cs.replan.quantile(0.5))
	m["vnfctl.allocate_ms_p50"] = ms(adm.obsQuantile("vnfctl.", -1, 0.5))
	m["ls.install_ms_p50"] = ms(cs.install.quantile(0.5))
	m["ls.install_ms_p90"] = ms(cs.install.quantile(0.9))
	m["ls.republished_routes"] = float64(cs.republished)
	standing := len(adm.pop) + len(adm.fixed)
	m["forwarder.install_us"] = us(isoInstall(standing))
	res.detail["iso.install_standing_rules"] = standing
	res.detail["cp.cycles"] = cs.cycles
	res.detail["cp.admit_timeouts"] = cs.timeouts
	res.detail["cp.replans"] = cs.replan.n()
	dpNs, lpNs, err := isoTE(dr.d, adm)
	if err != nil {
		return err
	}
	m["te.dp_solve_us_p50"] = us(dpNs)
	m["te.lp_solve_ms_p50"] = ms(lpNs)
	wan := float64(bus1.WANMessages - bus0.WANMessages)
	if dr.cpOps {
		wan = float64(dr.cs.wan)
	}
	m["bus.msgs_per_chain"] = wan / float64(cs.cycles)
	m["bus.retransmits"] = float64(bus1.Retries)
	m["bus.publish_to_deliver_ms_p50"] = ms(float64(dr.d.bed.Bus.PublishToDeliver().Percentile(50)))

	// Reconciliation: the isolated per-visit costs times the visits the
	// sampled paths made, against the process's CPU per operation.
	var explained float64
	if dr.cpOps {
		explained = dpNs + lpNs/float64(adm.every)
	} else {
		explained = hs.visitsOf("forwarder")*fr.nsPerPkt +
			hs.visitsOf("vnf.firewall")*fwNs + hs.visitsOf("vnf.nat")*natNs +
			hs.visitsOf("edge.ingress")*inNs + hs.visitsOf("edge.egress")*egNs +
			m["simnet.msgs_per_pkt"]*dr.pktsPerOp*simnetNs
	}
	m["recon.unexplained_frac"] = 1 - explained/cpuPerOp
	res.detail["recon.explained_ns_per_op"] = explained

	for _, sp := range adm.obsLog {
		spans.add(0, 0, "obs:"+sp.Name, sp.StartNs, sp.EndNs)
	}
	path := filepath.Join(dr.out, fmt.Sprintf("spans-%s-seed%d.jsonl", dr.name, dr.seed))
	res.detail["trace.spans"] = len(spans.spans)
	res.detail["trace.spans_dropped"] = spans.lost
	res.detail["trace.spans_file"] = path
	return spans.write(path)
}

// isoTE times the two solvers on the deployment's own model: SB-DP on a
// fresh admission against the remaining capacity (what CreateChain
// solves) and SB-LP on the standing population against full capacity
// (what OptimizeAll solves). Returns medians in ns.
func isoTE(d *dataBed, adm *admitter) (dpNs, lpNs float64, err error) {
	sites := d.dataSites
	specs := append([]controller.Spec(nil), adm.fixed...)
	for _, mb := range adm.pop {
		specs = append(specs, mb.spec)
	}
	one, err := teModel(d, sites, adm.vnfs, []controller.Spec{adm.nextSpec()}, false)
	if err != nil {
		return 0, 0, err
	}
	all, err := teModel(d, sites, adm.vnfs, specs, true)
	if err != nil {
		return 0, 0, err
	}
	var dp, lp []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		te.SolveDP(one, te.DPOptions{})
		dp = append(dp, float64(time.Since(start).Nanoseconds()))
	}
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := te.SolveLP(all, te.LPOptions{Objective: te.MaxThroughput, SkipLinkConstraints: true}); err != nil {
			return 0, 0, fmt.Errorf("isolated SB-LP: %w", err)
		}
		lp = append(lp, float64(time.Since(start).Nanoseconds()))
	}
	return median(dp), median(lp), nil
}

// teModel assembles the traffic-engineering model the Global Switchboard
// builds from its registered sites, VNF capacities, path delays and
// chain specs. full uses each VNF's total capacity, as a joint
// re-optimization sees it after releasing every reservation.
func teModel(d *dataBed, sites []simnet.SiteID, vnfs []*controller.VNFController, specs []controller.Spec, full bool) (*model.Network, error) {
	nw := model.NewNetwork(len(sites), 1.0)
	node := map[simnet.SiteID]model.NodeID{}
	for i, s := range sites {
		node[s] = model.NodeID(i)
	}
	for i, a := range sites {
		for j, b := range sites {
			if i != j {
				nw.SetDelay(model.NodeID(i), model.NodeID(j), d.bed.Net.Path(a, b).Delay)
			}
		}
		nw.AddSite(node[a], 1e6)
	}
	for _, v := range vnfs {
		mv := nw.AddVNF(model.VNFID(v.Name()), v.LoadPerUnit())
		caps := v.Sites()
		if full {
			caps = v.Capacity()
		}
		for s, c := range caps {
			if n, ok := node[s]; ok && c > 0 {
				mv.SiteCapacity[n] = c
			}
		}
	}
	for _, spec := range specs {
		mc := &model.Chain{ID: model.ChainID(spec.ID), Ingress: node[spec.IngressSite], Egress: node[spec.EgressSite]}
		for _, v := range spec.VNFs {
			mc.VNFs = append(mc.VNFs, model.VNFID(v))
		}
		mc.UniformTraffic(spec.ForwardRate, spec.ReverseRate)
		nw.AddChain(mc)
	}
	return nw, nw.Validate()
}
