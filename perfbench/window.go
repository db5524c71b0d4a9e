package main

import (
	"strings"
	"time"

	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

// window is one measured phase of a run. A run has a fixed-length
// warm-up, then one window (untraced runs) or two back-to-back windows
// (traced runs: untraced first, traced second, so the tracing overhead
// is measured on the same deployment). Every operation is attributed to
// the window in which it was due or issued.
type window struct {
	start, end int64 // unix ns
	traced     bool

	attempted, failed uint64
	done              counter // operations completed inside the window
	lat               *latRec // per-operation latency, from due or issue time
	genLag            *hist   // how late the generator issued each operation
	proc              procDelta
	msgs              uint64 // simnet messages delivered over the window
	traces            []*packet.Trace
}

// makeWindows lays out the measured windows after warm-up.
func makeWindows(warmup time.Duration, cfg config) []*window {
	t0 := time.Now().Add(warmup).UnixNano()
	total := int64(cfg.seconds * 1e9)
	if !cfg.trace {
		return []*window{newWindow(t0, t0+total, false)}
	}
	half := total / 2
	return []*window{newWindow(t0, t0+half, false), newWindow(t0+half, t0+total, true)}
}

func newWindow(start, end int64, traced bool) *window {
	return &window{start: start, end: end, traced: traced, lat: newLatRec(start, end), genLag: newHist(), done: newCounter(start, end)}
}

// counter counts completions over a window, in total and per whole
// second of it.
type counter struct {
	start  int64
	n      uint64
	perSec []uint64
}

func newCounter(start, end int64) counter {
	return counter{start: start, perSec: make([]uint64, (end-start)/1e9)}
}

func (c *counter) add(ns int64) {
	c.n++
	if i := (ns - c.start) / 1e9; i >= 0 && int(i) < len(c.perSec) {
		c.perSec[i]++
	}
}

// rate is the median of the per-second completion counts: one slow
// second (a collection, a neighbour's burst on the host) moves it less
// than it moves the mean.
func (c *counter) rate() float64 {
	xs := make([]float64, len(c.perSec))
	for i, n := range c.perSec {
		xs[i] = float64(n)
	}
	return median(xs)
}

// windowAt returns the window containing instant ns, or nil.
func windowAt(ws []*window, ns int64) *window {
	for _, w := range ws {
		if ns >= w.start && ns < w.end {
			return w
		}
	}
	return nil
}

// measureWindows sleeps through the windows, sampling the process's
// resource use and the network's delivered-message count at their edges.
func measureWindows(ws []*window, net *simnet.Network) {
	for _, w := range ws {
		sleepUntil(time.Unix(0, w.start))
		p0, m0 := sampleProc(), net.Stats().MsgsDelivered
		sleepUntil(time.Unix(0, w.end))
		w.proc, w.msgs = p0.to(sampleProc()), net.Stats().MsgsDelivered-m0
	}
}

// hopStats breaks sampled packet paths down by layer. A hop's at-time is
// its departure minus its arrival stamp (processing plus the wait behind
// the rest of its burst); its to-time is its arrival minus the previous
// hop's departure (transit plus the wait in its inbox).
type hopStats struct {
	at, to  map[string]*samples
	visits  map[string]float64 // hops per sampled packet, by layer
	bursts  float64
	nBursts float64
	paths   int
}

// layerOf maps a trace node name to its layer. Edge hops are split into
// ingress (packet came from a host) and egress (packet came from a
// forwarder).
func layerOf(node, prev string) string {
	switch {
	case strings.HasPrefix(node, "fwd:"):
		return "forwarder"
	case strings.HasPrefix(node, "vnf:firewall"):
		return "vnf.firewall"
	case strings.HasPrefix(node, "vnf:nat"):
		return "vnf.nat"
	case strings.HasPrefix(node, "vnf:"):
		return "vnf"
	case strings.HasPrefix(node, "edge:"):
		if strings.HasPrefix(prev, "fwd:") {
			return "edge.egress"
		}
		return "edge.ingress"
	}
	return node
}

// analyzeTraces folds completed paths into per-layer hop statistics and
// records each path as a request span with one child span per hop.
func analyzeTraces(traces []*packet.Trace, spans *spanLog) *hopStats {
	hs := &hopStats{at: map[string]*samples{}, to: map[string]*samples{}, visits: map[string]float64{}}
	get := func(m map[string]*samples, k string) *samples {
		h := m[k]
		if h == nil {
			h = &samples{}
			m[k] = h
		}
		return h
	}
	for _, tr := range traces {
		hops := tr.Hops
		if len(hops) < 2 {
			continue
		}
		hs.paths++
		first, last := hops[0], hops[len(hops)-1]
		root := spans.add(0, tr.ID, "workload.request", first.ArriveNs, last.ArriveNs)
		for i := 1; i < len(hops); i++ {
			h, prev := hops[i], hops[i-1]
			layer := layerOf(h.Node, prev.Node)
			if prev.DepartNs > 0 && h.ArriveNs > 0 {
				get(hs.to, layer).add(h.ArriveNs - prev.DepartNs)
				spans.add(root, tr.ID, "wait:"+h.Node, prev.DepartNs, h.ArriveNs)
			}
			if h.DepartNs > 0 {
				get(hs.at, layer).add(h.DepartNs - h.ArriveNs)
				spans.add(root, tr.ID, h.Node, h.ArriveNs, h.DepartNs)
			}
			hs.visits[layer]++
			if layer == "forwarder" {
				hs.bursts += float64(h.Batch)
				hs.nBursts++
			}
		}
	}
	if hs.paths > 0 {
		for k := range hs.visits {
			hs.visits[k] /= float64(hs.paths)
		}
	}
	return hs
}

// atP and toP return a layer's hop-time quantile in µs (NaN when the
// layer never appeared on a sampled path).
func (hs *hopStats) atP(layer string, q float64) float64 { return hopQ(hs.at, layer, q) }
func (hs *hopStats) toP(layer string, q float64) float64 { return hopQ(hs.to, layer, q) }

func hopQ(m map[string]*samples, layer string, q float64) float64 {
	merged := &samples{}
	for k, h := range m {
		if k == layer || strings.HasPrefix(k, layer+".") {
			merged.v = append(merged.v, h.v...)
		}
	}
	return us(merged.quantile(q))
}

func (hs *hopStats) avgBurst() float64 {
	if hs.nBursts == 0 {
		return nan
	}
	return hs.bursts / hs.nBursts
}

func (hs *hopStats) visitsOf(prefix string) float64 {
	v := 0.0
	for k, n := range hs.visits {
		if k == prefix || strings.HasPrefix(k, prefix+".") {
			v += n
		}
	}
	return v
}
