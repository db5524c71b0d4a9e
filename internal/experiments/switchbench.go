package experiments

// Switchbench is the multi-core data-plane scaling suite, following the
// methodology of "Performance Benchmarking of State-of-the-Art Software
// Switches for NFV": throughput vs. flow count (cache pressure), a
// pps-vs-cores scaling curve over the RSS-steered runner pool, and a
// latency CDF at fixed offered load. It is the repository's Fig-6/7
// analog at production scale, run against the RCU rule-snapshot path.

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"switchboard/internal/flowtable"
	"switchboard/internal/forwarder"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

// steeredFlows generates flowsPerCore distinct flow keys per core, each
// assigned to its core by the same direction-independent steering hash
// a RunnerPool uses — the experiment's stand-in for NIC RSS.
func steeredFlows(cores, flowsPerCore int) [][]packet.FlowKey {
	sets := make([][]packet.FlowKey, cores)
	for c := range sets {
		sets[c] = make([]packet.FlowKey, 0, flowsPerCore)
	}
	full := 0
	for i := 0; full < cores; i++ {
		k := packet.FlowKey{
			SrcIP: 0x0A000000 + uint32(i), DstIP: 0xC0A80001,
			SrcPort: uint16(10000 + i%50000), DstPort: 80, Proto: 6,
		}
		c := int(k.SteerHash() % uint64(cores))
		if len(sets[c]) >= flowsPerCore {
			continue
		}
		sets[c] = append(sets[c], k)
		if len(sets[c]) == flowsPerCore {
			full++
		}
	}
	return sets
}

// buildScaledForwarder assembles a forwarder over a per-core partitioned
// flow table: a peer-forwarder next hop and an edge previous hop, one
// installed rule, no local VNFs — the pure forwarding configuration the
// scaling methodology measures.
func buildScaledForwarder(name string, mode forwarder.Mode, cores int) (f *forwarder.Forwarder, prev flowtable.Hop) {
	f = forwarder.NewWithStore(name, mode, flowtable.NewPartitioned(cores, 16))
	next := f.AddHop(forwarder.NextHop{Kind: forwarder.KindForwarder,
		Addr: simnet.Addr{Site: "B", Host: name + "-peer"}})
	prev = f.AddHop(forwarder.NextHop{Kind: forwarder.KindEdge,
		Addr: simnet.Addr{Site: "A", Host: name + "-edge"}})
	f.InstallRule(benchStack, forwarder.RuleSpec{
		Next: []forwarder.WeightedHop{{Hop: next, Weight: 1}},
		Prev: []forwarder.WeightedHop{{Hop: prev, Weight: 1}},
	})
	f.SetBridgeTarget(next)
	return f, prev
}

// corePps drives one core's steered packet set through ProcessBatch in
// bursts of batch until stop closes (stop == nil: one timed run of dur),
// returning packets processed and elapsed seconds.
func corePps(f *forwarder.Forwarder, prev flowtable.Hop, pkts []*packet.Packet, batch int, dur time.Duration, stop <-chan struct{}) (uint64, float64) {
	var (
		res   forwarder.BatchResult
		froms = make([]flowtable.Hop, batch)
	)
	for i := range froms {
		froms[i] = prev
	}
	n := uint64(0)
	start := time.Now()
	for {
		if stop != nil {
			select {
			case <-stop:
				return n, time.Since(start).Seconds()
			default:
			}
		} else if time.Since(start) >= dur {
			return n, time.Since(start).Seconds()
		}
		for off := 0; off+batch <= len(pkts); off += batch {
			f.ProcessBatch(pkts[off:off+batch], froms, &res)
			n += uint64(batch)
		}
	}
}

// coreScalePps measures aggregate pps for the given core count. When
// enough hardware threads exist the cores run concurrently (sched
// "concurrent"); on smaller hosts each core's steered partition is
// measured alone and the per-core rates summed (sched "isolated-sum") —
// valid because the labels path takes zero shared locks (RCU snapshot
// reads) and the affinity path touches only the core's own flow-table
// partition, so per-core throughput is independent of how many peers
// run beside it.
func coreScalePps(mode forwarder.Mode, cores, flowsPerCore, batch int, dur time.Duration) (pps float64, sched string) {
	f, prev := buildScaledForwarder(fmt.Sprintf("sb%d", cores), mode, cores)
	sets := steeredFlows(cores, flowsPerCore)
	pktSets := make([][]*packet.Packet, cores)
	for c, set := range sets {
		pktSets[c] = make([]*packet.Packet, len(set))
		for i, k := range set {
			p := &packet.Packet{Labels: benchStack, Labeled: true, Key: k}
			pktSets[c][i] = p
			if mode == forwarder.ModeAffinity {
				_, _ = f.Process(p, prev) // warm up: populate the partition
				p.Labeled = true
			}
		}
	}
	if runtime.GOMAXPROCS(0) >= cores {
		var (
			total atomic.Uint64
			wg    sync.WaitGroup
			stop  = make(chan struct{})
		)
		wg.Add(cores)
		for c := 0; c < cores; c++ {
			go func(c int) {
				defer wg.Done()
				n, _ := corePps(f, prev, pktSets[c], batch, 0, stop)
				total.Add(n)
			}(c)
		}
		start := time.Now()
		time.Sleep(dur)
		close(stop)
		wg.Wait()
		return float64(total.Load()) / time.Since(start).Seconds(), "concurrent"
	}
	agg := 0.0
	for c := 0; c < cores; c++ {
		n, sec := corePps(f, prev, pktSets[c], batch, dur, nil)
		if sec > 0 {
			agg += float64(n) / sec
		}
	}
	return agg, "isolated-sum"
}

// latencyPercentiles runs a paced source through a RunnerPool forwarder
// over simnet at a fixed offered load and returns per-packet latency
// percentiles in microseconds (source send to sink arrival), plus the
// delivered packet count. The source stamps each burst's send time into
// its packets' payloads.
func latencyPercentiles(cores, offeredPps int, dur time.Duration) (p [4]float64, delivered uint64, err error) {
	net := simnet.New(11)
	defer net.Close()
	const queue = 4096
	fwdEP, err := net.Attach(simnet.Addr{Site: "A", Host: "fwd"}, queue)
	if err != nil {
		return p, 0, err
	}
	sinkEP, err := net.Attach(simnet.Addr{Site: "A", Host: "sink"}, queue)
	if err != nil {
		return p, 0, err
	}
	srcEP, err := net.Attach(simnet.Addr{Site: "A", Host: "src"}, 64)
	if err != nil {
		return p, 0, err
	}

	f := forwarder.NewWithStore("lat", forwarder.ModeLabels, flowtable.NewPartitioned(cores, 16))
	next := f.AddHop(forwarder.NextHop{Kind: forwarder.KindForwarder, Addr: sinkEP.Addr()})
	prev := f.AddHop(forwarder.NextHop{Kind: forwarder.KindEdge, Addr: srcEP.Addr()})
	f.InstallRule(benchStack, forwarder.RuleSpec{
		Next: []forwarder.WeightedHop{{Hop: next, Weight: 1}},
		Prev: []forwarder.WeightedHop{{Hop: prev, Weight: 1}},
	})

	pool := packet.NewPool()
	rp := &forwarder.RunnerPool{F: f, EP: fwdEP, Cores: cores, Pool: pool}

	// Latency sink: one sample per delivered packet, read from the
	// stamp its source burst carries.
	base := time.Now()
	var (
		samples []float64
		count   atomic.Uint64
		sinkWG  sync.WaitGroup
	)
	ctx, cancel := context.WithCancel(context.Background())
	sinkWG.Add(1)
	go func() {
		defer sinkWG.Done()
		msgs := make([]simnet.Message, packet.DefaultBatchSize)
		for {
			n := sinkEP.RecvBatchContext(ctx, msgs)
			if n == 0 {
				return
			}
			now := time.Since(base)
			sample := func(p *packet.Packet) {
				sent := time.Duration(binary.LittleEndian.Uint64(p.Payload))
				samples = append(samples, float64(now-sent)/float64(time.Microsecond))
			}
			for k := 0; k < n; k++ {
				switch pl := msgs[k].Payload.(type) {
				case *packet.Packet:
					sample(pl)
					count.Add(1)
					pool.Put(pl)
				case *packet.Batch:
					for _, p := range pl.Pkts {
						sample(p)
					}
					count.Add(uint64(pl.Len()))
					if pl.Pool == nil {
						pl.Pool = pool
					}
					pl.ReleasePackets()
					packet.PutBatch(pl)
				}
				msgs[k] = simnet.Message{}
			}
		}
	}()
	stopPool := rp.Start()

	// Paced open-loop source: a burst of `burst` packets every tick.
	const burst = 32
	tick := time.Duration(float64(burst) / float64(offeredPps) * float64(time.Second))
	deadline := time.Now().Add(dur)
	flow := 0
	for time.Now().Before(deadline) {
		b := packet.GetBatch()
		b.Pool = pool
		for k := 0; k < burst; k++ {
			p := pool.Get()
			p.Labels = benchStack
			p.Labeled = true
			p.Key = packet.FlowKey{
				SrcIP: 0x0A000000 + uint32(flow%256), DstIP: 0xC0A80001,
				SrcPort: uint16(10000 + flow%256), DstPort: 80, Proto: 6,
			}
			b.Append(p, 40)
			flow++
		}
		sent := uint64(time.Since(base))
		for _, p := range b.Pkts {
			p.Payload = binary.LittleEndian.AppendUint64(p.Payload[:0], sent)
		}
		if err := srcEP.SendBatch(fwdEP.Addr(), b); err != nil {
			b.ReleasePackets()
			packet.PutBatch(b)
		}
		time.Sleep(tick)
	}
	time.Sleep(20 * time.Millisecond) // drain in-flight bursts
	stopPool()
	cancel()
	sinkWG.Wait()

	if len(samples) == 0 {
		return p, 0, fmt.Errorf("switchbench: no latency samples delivered")
	}
	sort.Float64s(samples)
	pct := func(q float64) float64 {
		i := int(q * float64(len(samples)-1))
		return samples[i]
	}
	return [4]float64{pct(0.50), pct(0.90), pct(0.99), pct(0.999)}, count.Load(), nil
}

// Switchbench produces the multi-core scaling table: throughput vs flow
// count, aggregate pps vs cores at 1/2/4/8 (labels and affinity), and a
// latency CDF at fixed offered load through a RunnerPool.
func Switchbench() (*Table, error) {
	t := &Table{
		ID:     "switchbench",
		Title:  "multi-core data plane: flow scaling, core scaling, latency CDF",
		Header: []string{"section", "mode", "x", "value", "unit", "detail"},
	}
	const (
		batch   = 32
		scaleMs = 200 * time.Millisecond
	)

	// Throughput vs flow count: cache pressure on the affinity path, one
	// core. The flow table outgrowing CPU caches is the knee the
	// software-switch benchmarking methodology looks for.
	for _, flows := range []int{64, 4096, 65536, 262144} {
		pps, _ := coreScalePps(forwarder.ModeAffinity, 1, flows, batch, scaleMs)
		t.AddRow("tput_vs_flows", "affinity", flows, pps, "pps", fmt.Sprintf("batch=%d cores=1", batch))
	}

	// Aggregate pps vs cores over RSS-steered per-core working sets.
	const flowsPerCore = 4096
	for _, mode := range []struct {
		name string
		m    forwarder.Mode
	}{{"labels", forwarder.ModeLabels}, {"affinity", forwarder.ModeAffinity}} {
		var base float64
		for _, cores := range []int{1, 2, 4, 8} {
			pps, sched := coreScalePps(mode.m, cores, flowsPerCore, batch, scaleMs)
			if cores == 1 {
				base = pps
			}
			speedup := 0.0
			if base > 0 {
				speedup = pps / base
			}
			t.AddRow("core_scaling", mode.name, cores, pps, "pps",
				fmt.Sprintf("batch=%d flows/core=%d speedup=%.2fx sched=%s", batch, flowsPerCore, speedup, sched))
		}
	}

	// Latency CDF at fixed offered load through the full RunnerPool
	// pipeline (dispatcher, per-core rings, coalesced tx) over simnet.
	const (
		latCores   = 2
		offeredPps = 100_000
	)
	pcts, delivered, err := latencyPercentiles(latCores, offeredPps, 400*time.Millisecond)
	if err != nil {
		return nil, err
	}
	detail := fmt.Sprintf("offered=%dpps cores=%d delivered=%d", offeredPps, latCores, delivered)
	for i, name := range []string{"p50", "p90", "p99", "p99.9"} {
		t.AddRow("latency_cdf", "labels", name, pcts[i], "us", detail)
	}

	t.Notes = append(t.Notes,
		"methodology: Performance Benchmarking of State-of-the-Art Software Switches for NFV (throughput vs flows, pps vs cores, latency CDF)",
		"core steering is the RunnerPool's symmetric RSS hash; each core's flow set is pre-steered like NIC RSS queues",
		"sched=concurrent: cores ran simultaneously; sched=isolated-sum: each core's partition measured alone and summed (hosts with fewer hardware threads than cores) — equivalent because the labels path is lock-free (RCU snapshots) and affinity partitions are per-core exclusive",
		"latency is source send to sink arrival per packet at fixed offered load: the source stamps each burst's send time into its packets")
	return t, nil
}
