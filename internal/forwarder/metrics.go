package forwarder

import (
	"strconv"

	"switchboard/internal/metrics"
)

// RegisterMetrics publishes the forwarder's counters into a metrics
// registry under "forwarder.<name>.*". Registration installs read
// functions over the existing atomic counters, so it adds no cost to
// the packet path and the Stats accessor keeps working unchanged.
//
// Registered names (all counters are cumulative packet counts):
//
//	forwarder.<name>.rx         packets received
//	forwarder.<name>.tx         packets forwarded
//	forwarder.<name>.drops      packets dropped (all causes, incl. send errors)
//	forwarder.<name>.new_flows  connections admitted to the flow table
//	forwarder.<name>.rule_miss  packets with no installed rule
//	forwarder.<name>.relabeled  packets re-labeled after a label-unaware VNF
//	forwarder.<name>.send_errs  packets the runner failed to hand to the network
//	forwarder.<name>.ring_drops packets dropped at a full per-core ring
//	forwarder.<name>.flows      gauge: connections currently tracked
//	forwarder.<name>.rules      gauge: label-stack rules currently installed
//
// Every flow store reports occupancy (flowtable.Table per shard,
// flowtable.Partitioned per partition, dht.Node per cluster member):
//
//	forwarder.<name>.flow_parts    gauge: occupancy units the store reports
//	forwarder.<name>.flow_part_max gauge: entries in the fullest unit
//
// Per-chain and per-unit dimensional series (keyed families, bounded
// cardinality; <chain> is the chain's ID or its decimal label when
// unnamed, <part> a shard, partition or member index):
//
//	forwarder.<name>.chain.<chain>.tx        packets forwarded for the chain
//	forwarder.<name>.chain.<chain>.drops     packets dropped for the chain
//	forwarder.<name>.flowpart.<part>.entries gauge: connections in the unit
//
// A RunnerPool driving the forwarder publishes its own per-core series
// (see RunnerPool.RegisterMetrics).
func (f *Forwarder) RegisterMetrics(r *metrics.Registry) {
	prefix := "forwarder." + f.name + "."
	r.CounterFunc(prefix+"rx", f.stats.rx.Load)
	r.CounterFunc(prefix+"tx", f.stats.tx.Load)
	r.CounterFunc(prefix+"drops", f.stats.drops.Load)
	r.CounterFunc(prefix+"new_flows", f.stats.newFlows.Load)
	r.CounterFunc(prefix+"rule_miss", f.stats.ruleMiss.Load)
	r.CounterFunc(prefix+"relabeled", f.stats.relabeled.Load)
	r.CounterFunc(prefix+"send_errs", f.stats.sendErrs.Load)
	r.CounterFunc(prefix+"ring_drops", f.stats.ringDrops.Load)
	r.GaugeFunc(prefix+"flows", func() float64 { return float64(f.table.Len()) })
	r.GaugeFunc(prefix+"rules", func() float64 { return float64(f.rulesLen()) })
	r.GaugeFunc(prefix+"flow_parts", func() float64 {
		return float64(len(f.table.Occupancy()))
	})
	r.GaugeFunc(prefix+"flow_part_max", func() float64 {
		max := 0
		for _, n := range f.table.Occupancy() {
			if n > max {
				max = n
			}
		}
		return float64(max)
	})
	pattern := prefix + "flowpart.<part>.entries"
	for i := range f.table.Occupancy() {
		r.KeyedGaugeFunc(pattern, strconv.Itoa(i), func() float64 {
			occ := f.table.Occupancy()
			if i >= len(occ) {
				return 0
			}
			return float64(occ[i])
		})
	}
	f.wmu.Lock()
	f.chainTx = metrics.NewKeyedCounters(r, prefix+"chain.<chain>.tx", 0)
	f.chainDrops = metrics.NewKeyedCounters(r, prefix+"chain.<chain>.drops", 0)
	f.wmu.Unlock()
}
