package main

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

// chain-closed: one site, no WAN delay, one chain firewall → NAT, an echo
// server replying through the chain. closedFlows flows each keep
// closedWindow requests outstanding; a reply immediately triggers the
// slot's next request, so the system sets the pace.
const (
	closedFlows   = 256
	closedWindow  = 4
	closedTimeout = time.Second
	closedSetups  = 5
	warmup        = time.Second
	traceEvery    = 64 // one request in traceEvery carries a path trace
	payloadBytes  = 8  // the 8-byte stamp; simnet adds a 40-byte header
	slotBits      = 20
)

func runChainClosed(cfg config) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	clientIP := uint32(0x0A000000) | uint32(rng.Intn(1<<24-2)+1)
	keys := make([]packet.FlowKey, closedFlows)
	for i, port := range rng.Perm(65535 - 1024)[:closedFlows] {
		keys[i] = packet.FlowKey{SrcIP: clientIP, DstIP: serverIP, SrcPort: uint16(1024 + port), DstPort: serverPort, Proto: 6}
	}

	setupTimeouts := 0
	d, setupS, err := timedSetups(closedSetups, func() (*dataBed, error) {
		d, err := deployDataChain(cfg.seed, bedSpec{
			gs: "G", sites: []simnet.SiteID{"A"}, vnfSites: []simnet.SiteID{"A"},
			chain: dataSpec("A"), clientIPs: []uint32{clientIP},
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

	res := newResult()
	ws := makeWindows(warmup, cfg)
	cl := &closedLoop{d: d, keys: keys, ws: ws, res: res, timeout: closedTimeout.Nanoseconds()}
	cl.slots = make([]slot, closedFlows*closedWindow)
	cl.flowDone = make([]bool, closedFlows)
	fwds, err := forwarders(d.bed.G, d.rec)
	if err != nil {
		return nil, err
	}
	cl.start()
	measureWindows(ws, d.bed.Net)
	cl.stop()
	heap := liveHeapMiB()

	w0 := ws[0]
	for _, w := range ws {
		res.attempted += w.attempted
		res.failed += w.failed
	}
	countSetupTimeouts(res, setupTimeouts)
	res.metrics["setup_s"] = setupS
	res.metrics["ops_per_s"] = w0.done.rate()
	res.metrics["lat_p50_us"] = us(w0.lat.quantile(0.5))
	res.metrics["workload.lat_p90_us"] = us(w0.lat.quantile(0.9))
	res.detail["lat_p90_us"] = res.metrics["workload.lat_p90_us"]
	res.metrics["live_heap_mb"] = heap
	res.detail["rt_per_s"] = res.metrics["ops_per_s"]
	res.detail["rtt_p50_us"] = res.metrics["lat_p50_us"]
	res.detail["rtt_n"] = w0.lat.all().n
	res.detail["late_replies"] = cl.late
	res.detail["rt_each_second"] = w0.done.perSec
	res.detail["request_timeouts"] = cl.timeouts
	res.detail["server_requests"] = cl.served.Load()

	if cl.timeouts > 0 {
		res.detail["path"] = pathDiag(d)
	}
	if n := cl.badAtServer.Load(); n > 0 {
		res.violate("%d requests reached the server without a NAT public source", n)
	}
	if !cfg.trace {
		return res, nil
	}
	// Flows whose requests crossed the egress edge, each in both
	// directions: the edge keeps one connection per direction.
	conns := 0
	for _, done := range cl.flowDone {
		if done {
			conns += 2
		}
	}
	dr := &dataRun{
		d:  d,
		ws: ws, pktsPerOp: 2, conns: conns, undelivered: cl.timeouts, mix: closedMix(keys), rng: rng,
		fwds: fwds, out: cfg.out, name: cfg.workload, seed: cfg.seed,
	}
	return res, dr.layerMetrics(res)
}

// slot is one outstanding-request position of the closed loop.
type slot struct {
	gen    uint64
	seq    uint64
	sentNs int64
	out    bool
	lost   bool // the send itself failed; reissued by the next scan
	// expired marks a request that timed out: a reply may still come
	// back late, after it was counted failed.
	expired bool
}

type closedLoop struct {
	d       *dataBed
	keys    []packet.FlowKey
	slots   []slot
	ws      []*window
	res     *result
	timeout int64

	stopIssue   atomic.Bool
	quit        chan struct{}
	wg          sync.WaitGroup
	served      atomic.Uint64
	badAtServer atomic.Uint64
	flowDone    []bool // flows with at least one completed round trip
	late        uint64
	timeouts    uint64 // requests never answered or never sent, warm-up included
	sampled     uint64
	outCount    int
}

func (cl *closedLoop) start() {
	cl.quit = make(chan struct{})
	cl.wg.Add(2)
	go cl.serve()
	go cl.client()
}

// stop ends issuing, waits until every outstanding request has been
// answered or timed out, then stops both goroutines.
func (cl *closedLoop) stop() {
	cl.stopIssue.Store(true)
	cl.wg.Wait()
}

// serve echoes every request back through the egress edge with the
// reversed 5-tuple, as a server answering its client would.
func (cl *closedLoop) serve() {
	defer cl.wg.Done()
	ep := cl.d.server
	to := cl.d.egress.Addr()
	buf := make([]simnet.Message, 64)
	for {
		n := recvOrQuit(ep, buf, cl.quit)
		if n == 0 {
			return
		}
		for _, m := range buf[:n] {
			req, ok := m.Payload.(*packet.Packet)
			if !ok {
				continue
			}
			cl.served.Add(1)
			if !isNATSource(req.Key) || req.Key.DstIP != serverIP {
				cl.badAtServer.Add(1)
			}
			resp := &packet.Packet{Key: req.Key.Reverse(), Payload: req.Payload, Trace: req.Trace}
			if tr := resp.Trace; tr != nil {
				now := time.Now().UnixNano()
				tr.Hops = append(tr.Hops, packet.TraceHop{Node: "server", ArriveNs: now, DepartNs: now, Batch: n})
			}
			_ = ep.Send(to, resp, payloadBytes+40) // a lost reply times out at the client and counts as failed
		}
		clear(buf[:n])
	}
}

// recvOrQuit blocks for at least one message, then drains what is
// queued; it returns 0 once quit is closed.
func recvOrQuit(ep *simnet.Endpoint, buf []simnet.Message, quit <-chan struct{}) int {
	select {
	case <-quit:
		return 0
	case m, ok := <-ep.Inbox():
		if !ok {
			return 0
		}
		buf[0] = m
		return 1 + ep.TryRecvBatch(buf[1:])
	}
}

func (cl *closedLoop) issue(i int, now int64) {
	s := &cl.slots[i]
	s.gen++
	s.seq = s.gen<<slotBits | uint64(i)
	s.sentNs = now
	s.out, s.expired = true, false
	cl.outCount++
	p := &packet.Packet{Key: cl.keys[i%len(cl.keys)], Payload: make([]byte, payloadBytes)}
	binary.BigEndian.PutUint64(p.Payload, s.seq)
	w := windowAt(cl.ws, now)
	if w != nil {
		w.attempted++
		if w.traced {
			cl.sampled++
			if cl.sampled%traceEvery == 0 {
				p.Trace = packet.NewTrace(s.seq)
				p.Trace.Hops = append(p.Trace.Hops, packet.TraceHop{Node: "client", ArriveNs: now, DepartNs: time.Now().UnixNano(), Batch: 1})
			}
		}
	}
	if err := cl.d.client.Send(cl.d.ingress.Addr(), p, payloadBytes+40); err != nil {
		// The request never entered the system: it fails now and its
		// slot is reissued by the next timeout scan.
		s.out, s.lost = false, true
		cl.outCount--
		cl.timeouts++
		if w != nil {
			w.failed++
			w.lat.add(s.sentNs, failedNs)
		}
	}
}

// client issues requests, matches replies to slots and times out lost
// requests, reissuing their slots so the offered load never shrinks.
func (cl *closedLoop) client() {
	defer cl.wg.Done()
	defer close(cl.quit)
	ep := cl.d.client
	now := time.Now().UnixNano()
	for i := range cl.slots {
		cl.issue(i, now)
	}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	buf := make([]simnet.Message, 256)
	for {
		select {
		case <-tick.C:
			cl.scanTimeouts(time.Now().UnixNano())
		case m, ok := <-ep.Inbox():
			if !ok {
				return
			}
			buf[0] = m
			n := 1 + ep.TryRecvBatch(buf[1:])
			recvNs := time.Now().UnixNano()
			for _, m := range buf[:n] {
				if p, ok := m.Payload.(*packet.Packet); ok {
					cl.reply(p, recvNs)
				}
			}
			clear(buf[:n])
		}
		if cl.stopIssue.Load() && cl.outCount == 0 {
			return
		}
	}
}

func (cl *closedLoop) reply(p *packet.Packet, recvNs int64) {
	if len(p.Payload) != payloadBytes {
		cl.res.violate("reply with %d-byte payload", len(p.Payload))
		return
	}
	seq := binary.BigEndian.Uint64(p.Payload)
	i := int(seq & (1<<slotBits - 1))
	if i >= len(cl.slots) {
		cl.res.violate("reply carries unknown sequence number %d", seq)
		return
	}
	s := &cl.slots[i]
	if seq != s.seq {
		if seq>>slotBits < s.gen {
			cl.late++ // its request already timed out and was counted failed
			return
		}
		cl.res.violate("reply carries sequence number %d never issued", seq)
		return
	}
	if !s.out {
		if s.expired {
			cl.late++
			s.expired = false // a second late copy would be a duplicate
			return
		}
		cl.res.violate("second reply for sequence number %d", seq)
		return
	}
	s.out = false
	cl.outCount--
	cl.flowDone[i%len(cl.keys)] = true
	if want := cl.keys[i%len(cl.keys)].Reverse(); p.Key != want {
		cl.res.violate("reply 5-tuple %v, want the request's reverse %v", p.Key, want)
	}
	if w := windowAt(cl.ws, s.sentNs); w != nil {
		w.lat.add(s.sentNs, recvNs-s.sentNs)
		if p.Trace != nil && w.traced {
			p.Trace.Hops = append(p.Trace.Hops, packet.TraceHop{Node: "client", ArriveNs: recvNs})
			w.traces = append(w.traces, p.Trace)
		}
	}
	if w := windowAt(cl.ws, recvNs); w != nil {
		w.done.add(recvNs)
	}
	if !cl.stopIssue.Load() {
		cl.issue(i, recvNs)
		if w := windowAt(cl.ws, recvNs); w != nil && w.traced {
			w.genLag.add(time.Now().UnixNano() - recvNs)
		}
	}
}

func (cl *closedLoop) scanTimeouts(now int64) {
	for i := range cl.slots {
		s := &cl.slots[i]
		if s.lost && !cl.stopIssue.Load() {
			s.lost = false
			cl.issue(i, now)
			continue
		}
		if !s.out || now-s.sentNs < cl.timeout {
			continue
		}
		s.out, s.expired = false, true
		cl.outCount--
		cl.timeouts++
		if w := windowAt(cl.ws, s.sentNs); w != nil {
			w.failed++
			w.lat.add(s.sentNs, failedNs) // a failed request misses any latency limit
		}
		if !cl.stopIssue.Load() {
			cl.issue(i, now)
		}
	}
}
