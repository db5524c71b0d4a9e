package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

// chain-open: the chain's edges at site A, its VNFs at site B, the two
// joined by a zero-delay path, so every packet crosses both Local
// Switchboards without simnet's timer-driven delivery. Packets are sent
// at a fixed rate whatever the system does, one way, to a sink; each
// flow sends openFlowPkts packets and then a fresh 5-tuple takes its
// place, so every per-flow-state layer keeps writing.
const (
	openRate       = 20000 // packets/s
	openFlowPkts   = 8     // packets per flow
	openConcurrent = 64    // flows interleaved at any time
	openSetups     = 5
	openDrainWait  = time.Second
)

func runChainOpen(cfg config) (*result, error) {
	setupTimeouts := 0
	d, setupS, err := timedSetups(openSetups, func() (*dataBed, error) {
		d, err := deployDataChain(cfg.seed, bedSpec{
			gs: "A", sites: []simnet.SiteID{"A", "B"}, vnfSites: []simnet.SiteID{"B"},
			chain: dataSpec("A"),
		})
		if d != nil {
			setupTimeouts += d.setupTimeouts
		}
		return d, err
	}, (*dataBed).close)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if cfg.trace {
		d.bed.EnableObservability()
	}
	ws := makeWindows(warmup, cfg)
	ol := newOpenLoop(d, openRate, cfg.seed, ws)
	fwds, err := forwarders(d.bed.G, d.rec)
	if err != nil {
		return nil, err
	}
	ol.start()
	measureWindows(ws, d.bed.Net)
	ol.stop()
	ol.finish()
	heap := liveHeapMiB()

	res := newResult()
	ol.check(res)
	for _, w := range ws {
		res.attempted += ol.attempted(w)
		res.failed += ol.failed(w)
	}
	countSetupTimeouts(res, setupTimeouts)
	w0 := ws[0]
	res.metrics["setup_s"] = setupS
	// The offered rate is fixed, so per-second medians would read the
	// same on every run; the delivered count over the measured wall time
	// does not.
	res.metrics["ops_per_s"] = float64(w0.done.n) / (float64(w0.proc.wallNs) / 1e9)
	res.metrics["lat_p50_us"] = us(w0.lat.quantile(0.5))
	res.metrics["workload.lat_p90_us"] = us(w0.lat.quantile(0.9))
	res.detail["lat_p90_us"] = res.metrics["workload.lat_p90_us"]
	res.metrics["live_heap_mb"] = heap
	res.detail["lat_n"] = w0.lat.all().n
	res.detail["lat_p90_us_each_slice"] = w0.lat.each(0.9)
	res.detail["flows_started"] = ol.flowsStarted()
	res.detail["nat_bindings"] = natBindings(d.nat, d.sites)
	res.detail["nat_pool"] = 65536 - natMinPort
	if !cfg.trace {
		return res, nil
	}
	dr := &dataRun{
		d: d, ws: ws, pktsPerOp: 1, conns: ol.flowsDelivered(), undelivered: ol.undelivered(),
		mix: openMix(ol.keyOf), rng: rand.New(rand.NewSource(cfg.seed)), fwds: fwds,
		out: cfg.out, name: cfg.workload, seed: cfg.seed,
	}
	return res, dr.layerMetrics(res)
}

// openLoop sends packets on a fixed schedule: packet i is due at
// start + i/rate and is timed from its due time, so a stall delays every
// packet due behind it and shows in their latency. A sink at the egress
// edge checks each delivery.
type openLoop struct {
	d       *dataBed
	rate    int64
	startNs int64
	total   uint64
	ws      []*window
	a, b    uint64 // flow-number bijection from the seed

	delivered []uint64 // bitmap of delivered sequence numbers (sink only)
	bad       []string
	dups      uint64
	quit      chan struct{}
	wg        sync.WaitGroup
	genDone   chan struct{}
	nDeliv    atomic.Uint64
	nSent     atomic.Uint64
}

func newOpenLoop(d *dataBed, rate int64, seed int64, ws []*window) *openLoop {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	last := ws[len(ws)-1].end
	ol := &openLoop{d: d, rate: rate, ws: ws, a: uint64(rng.Intn(1<<22))<<1 | 1, b: uint64(rng.Intn(1 << 24))}
	// The schedule starts now and covers warm-up and every window.
	ol.startNs = time.Now().UnixNano()
	ol.total = uint64((last - ol.startNs) * rate / 1e9)
	ol.delivered = make([]uint64, ol.total/64+1)
	return ol
}

func (ol *openLoop) due(i uint64) int64 { return ol.startNs + int64(i)*1e9/ol.rate }

// keyOf is packet i's 5-tuple. Flows are interleaved openConcurrent at a
// time, each openFlowPkts packets long; flow numbers map one-to-one onto
// 24-bit values (an odd multiplier modulo 2^24), whose top 16 bits pick
// the client address in 10.0.0.0/16 and low 8 bits its port, so no two
// flows of a run share a 5-tuple and every flow is new to every layer.
func (ol *openLoop) keyOf(i uint64) packet.FlowKey {
	x := (ol.a*ol.flowOf(i) + ol.b) & (1<<24 - 1)
	return packet.FlowKey{
		SrcIP: 0x0A000000 | uint32(x>>8), DstIP: serverIP,
		SrcPort: uint16(10000 + x&0xFF), DstPort: serverPort, Proto: 17,
	}
}

// flowOf is the number of the flow packet i belongs to.
func (ol *openLoop) flowOf(i uint64) uint64 {
	return i/(openFlowPkts*openConcurrent)*openConcurrent + i%openConcurrent
}

func (ol *openLoop) start() {
	ol.quit = make(chan struct{})
	ol.genDone = make(chan struct{})
	ol.wg.Add(2)
	go ol.generate()
	go ol.sink()
}

// stop waits for the generator to finish the schedule and for the sink
// to receive every packet still in flight (up to openDrainWait).
func (ol *openLoop) stop() {
	<-ol.genDone
	deadline := time.Now().Add(openDrainWait)
	for ol.nDeliv.Load() < ol.nSent.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(ol.quit)
	ol.wg.Wait()
}

func (ol *openLoop) generate() {
	defer ol.wg.Done()
	defer close(ol.genDone)
	to := ol.d.ingress.Addr()
	var sampled uint64
	for i := uint64(0); i < ol.total; {
		now := time.Now().UnixNano()
		for ; i < ol.total && ol.due(i) <= now; i++ {
			due := ol.due(i)
			p := &packet.Packet{Key: ol.keyOf(i), Payload: make([]byte, payloadBytes)}
			binary.BigEndian.PutUint64(p.Payload, i)
			w := windowAt(ol.ws, due)
			if w != nil {
				w.genLag.add(now - due)
				if w.traced {
					sampled++
					if sampled%traceEvery == 0 {
						p.Trace = packet.NewTrace(i)
						p.Trace.Hops = append(p.Trace.Hops, packet.TraceHop{Node: "client", ArriveNs: due, DepartNs: now, Batch: 1})
					}
				}
			}
			if ol.d.client.Send(to, p, payloadBytes+40) == nil {
				ol.nSent.Add(1)
			}
		}
		if i < ol.total {
			if d := ol.due(i) - time.Now().UnixNano(); d > 0 {
				preciseSleep(d)
			}
		}
	}
}

// preciseSleep sleeps ns nanoseconds in the kernel. The runtime's timers
// wake at millisecond granularity on Linux (a 50 µs time.Sleep returns
// after about 1.05 ms), which would make the generator, not the system,
// the largest part of every packet's latency; nanosleep wakes within
// the thread's timer slack (50 µs by default).
func preciseSleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func (ol *openLoop) sink() {
	defer ol.wg.Done()
	buf := make([]simnet.Message, 256)
	for {
		n := recvOrQuit(ol.d.server, buf, ol.quit)
		if n == 0 {
			return
		}
		now := time.Now().UnixNano()
		for _, m := range buf[:n] {
			p, ok := m.Payload.(*packet.Packet)
			if !ok {
				continue
			}
			ol.receive(p, now)
		}
		clear(buf[:n])
	}
}

func (ol *openLoop) receive(p *packet.Packet, now int64) {
	if len(p.Payload) != payloadBytes {
		ol.fail("delivered packet with %d-byte payload", len(p.Payload))
		return
	}
	i := binary.BigEndian.Uint64(p.Payload)
	if i >= ol.total {
		ol.fail("delivered sequence number %d was never issued", i)
		return
	}
	if ol.delivered[i/64]&(1<<(i%64)) != 0 {
		ol.dups++
		return
	}
	ol.delivered[i/64] |= 1 << (i % 64)
	ol.nDeliv.Add(1)
	if !isNATSource(p.Key) || p.Key.DstIP != serverIP || p.Key.DstPort != serverPort {
		ol.fail("packet %d delivered as %v, want a NAT public source toward the server", i, p.Key)
	}
	if w := windowAt(ol.ws, now); w != nil {
		w.done.add(now)
	}
	due := ol.due(i)
	if w := windowAt(ol.ws, due); w != nil {
		w.lat.add(due, now-due)
		if p.Trace != nil && w.traced {
			p.Trace.Hops = append(p.Trace.Hops, packet.TraceHop{Node: "sink", ArriveNs: now})
			w.traces = append(w.traces, p.Trace)
		}
	}
}

func (ol *openLoop) fail(format string, args ...any) {
	if len(ol.bad) < 20 {
		ol.bad = append(ol.bad, fmt.Sprintf(format, args...))
	}
}

// check reports the sink's findings; call after stop.
func (ol *openLoop) check(res *result) {
	for _, b := range ol.bad {
		res.violate("%s", b)
	}
	if ol.dups > 0 {
		res.violate("%d packets delivered more than once", ol.dups)
	}
}

// seqRange is the schedule's sequence numbers due inside a window.
func (ol *openLoop) seqRange(w *window) (lo, hi uint64) {
	ceil := func(ns int64) uint64 { // first packet due at or after ns
		if ns <= ol.startNs {
			return 0
		}
		v := uint64(((ns-ol.startNs)*ol.rate + 1e9 - 1) / 1e9)
		if v > ol.total {
			v = ol.total
		}
		return v
	}
	return ceil(w.start), ceil(w.end)
}

func (ol *openLoop) attempted(w *window) uint64 {
	lo, hi := ol.seqRange(w)
	return hi - lo
}

// failed counts packets due in the window that never arrived; a packet
// the client could not even hand to the network counts too.
func (ol *openLoop) failed(w *window) uint64 {
	lo, hi := ol.seqRange(w)
	var n uint64
	for i := lo; i < hi; i++ {
		if ol.delivered[i/64]&(1<<(i%64)) == 0 {
			n++
		}
	}
	return n
}

// finish enters every packet that never arrived into its window's
// latency record as slower than any limit; call once, after stop.
func (ol *openLoop) finish() {
	for _, w := range ol.ws {
		lo, hi := ol.seqRange(w)
		for i := lo; i < hi; i++ {
			if ol.delivered[i/64]&(1<<(i%64)) == 0 {
				w.lat.add(ol.due(i), failedNs)
			}
		}
	}
}

// undelivered counts every scheduled packet that never arrived, warm-up
// included, for comparison with the drops the program counted.
func (ol *openLoop) undelivered() uint64 {
	var n uint64
	for i := uint64(0); i < ol.total; i++ {
		if ol.delivered[i/64]&(1<<(i%64)) == 0 {
			n++
		}
	}
	return n
}

func (ol *openLoop) flowsStarted() uint64 { return ol.flowOf(ol.total-1) + 1 }

// flowsDelivered counts flows with at least one delivered packet: the
// connections the egress edge has recorded.
func (ol *openLoop) flowsDelivered() int {
	seen := map[uint64]bool{}
	for i := uint64(0); i < ol.total; i++ {
		if ol.delivered[i/64]&(1<<(i%64)) != 0 {
			seen[ol.flowOf(i)] = true
		}
	}
	return len(seen)
}
