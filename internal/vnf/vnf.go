// Package vnf provides Switchboard's VNF framework — the per-instance
// runtime that attaches a network function to a forwarder — and a small
// catalog of concrete functions used throughout the evaluation: a
// stateful NAT, a stateful firewall, a shared web cache, a traffic
// shaper, and a toy video-anonymizing function. Each VNF service is
// managed by its own controller (package controller), mirroring the
// paper's service-oriented design.
package vnf

import (
	"context"
	"sync/atomic"

	"switchboard/internal/metrics"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

// Function is the packet-processing logic of a network function.
// Implementations may mutate the packet (e.g. NAT rewrites addresses) and
// decide whether it continues along the chain.
type Function interface {
	// Name identifies the function type ("nat", "firewall", ...).
	Name() string
	// Process handles one packet; returning false drops it.
	Process(p *packet.Packet) (forward bool)
}

// Stats counts an instance's packet outcomes.
type Stats struct {
	Processed uint64
	Dropped   uint64
	// SendErrs counts forwarded packets the network refused (full
	// gateway inbox).
	SendErrs uint64
}

// Instance is one deployed VNF instance: it receives packets from its
// gateway forwarder, runs the function, and returns survivors to the
// forwarder (Section 5.1: the forwarder is the instance's proxy gateway;
// instance and forwarder share a site).
type Instance struct {
	id      string
	fn      Function
	ep      *simnet.Endpoint
	gateway simnet.Addr
	weight  float64

	processed atomic.Uint64
	dropped   atomic.Uint64
	sendErrs  atomic.Uint64
}

// NewInstance attaches a function to the simulated network. gateway is
// the forwarder serving this instance.
func NewInstance(id string, fn Function, ep *simnet.Endpoint, gateway simnet.Addr, weight float64) *Instance {
	return &Instance{id: id, fn: fn, ep: ep, gateway: gateway, weight: weight}
}

// ID returns the instance identifier.
func (i *Instance) ID() string { return i.id }

// Function returns the instance's packet-processing function, letting
// the migration coordinator reach per-flow state (FlowStateMigrator).
func (i *Instance) Function() Function { return i.fn }

// Weight returns the load-balancing weight the instance publishes.
func (i *Instance) Weight() float64 { return i.weight }

// Addr returns the instance's network address.
func (i *Instance) Addr() simnet.Addr { return i.ep.Addr() }

// Stats returns a snapshot of the counters.
func (i *Instance) Stats() Stats {
	return Stats{Processed: i.processed.Load(), Dropped: i.dropped.Load(), SendErrs: i.sendErrs.Load()}
}

// Backlog returns the number of inbox messages queued but not yet
// processed. The migration coordinator polls it to decide when the old
// instance has truly drained: the throughput counters alone can look
// stable while a burst still sits in the queue.
func (i *Instance) Backlog() int { return len(i.ep.Inbox()) }

// RegisterMetrics publishes the instance's counters into a metrics
// registry under "vnf.<id>.*". All are cumulative packet counts:
//
//	vnf.<id>.processed packets the function forwarded
//	vnf.<id>.dropped   packets the function dropped
//	vnf.<id>.send_errs forwarded packets the network refused (full gateway inbox)
func (i *Instance) RegisterMetrics(r *metrics.Registry) {
	prefix := "vnf." + i.id + "."
	r.CounterFunc(prefix+"processed", i.processed.Load)
	r.CounterFunc(prefix+"dropped", i.dropped.Load)
	r.CounterFunc(prefix+"send_errs", i.sendErrs.Load)
}

// Run processes packets until the context is cancelled or the endpoint
// closes. It drains bursts from the inbox and returns survivors to the
// gateway forwarder as one batch per burst, so a chain hop costs one
// inbox operation per burst instead of per packet. Dropped packets, and
// packets the network refuses, are recycled into the originating batch's
// pool when it has one.
func (i *Instance) Run(ctx context.Context) {
	msgs := make([]simnet.Message, packet.DefaultBatchSize)
	node := "vnf:" + i.id
	for {
		n := i.ep.RecvBatchContext(ctx, msgs)
		if n == 0 {
			return
		}
		out := packet.GetBatch()
		var processed, dropped uint64
		// Traced packets stamp arrival per burst (one clock read);
		// departure is stamped after the whole burst is processed, so
		// at-hop latency covers the function's processing time.
		var arrive, depart packet.LazyNow
		handle := func(p *packet.Packet, pool *packet.Pool, burst int) {
			packet.TraceArrive(p, node, &arrive, burst)
			if !i.fn.Process(p) {
				dropped++
				if pool != nil {
					pool.Put(p)
				}
				return
			}
			processed++
			out.Append(p, len(p.Payload)+40)
		}
		for k := 0; k < n; k++ {
			switch pl := msgs[k].Payload.(type) {
			case *packet.Packet:
				handle(pl, nil, 1)
			case *packet.Batch:
				if out.Pool == nil {
					out.Pool = pl.Pool
				}
				burst := pl.Len()
				for _, p := range pl.Pkts {
					handle(p, pl.Pool, burst)
				}
				packet.PutBatch(pl)
			}
			msgs[k] = simnet.Message{}
		}
		if processed > 0 {
			i.processed.Add(processed)
		}
		if dropped > 0 {
			i.dropped.Add(dropped)
		}
		for _, p := range out.Pkts {
			packet.TraceDepart(p, &depart)
		}
		switch out.Len() {
		case 0:
			packet.PutBatch(out)
		case 1:
			if i.ep.Send(i.gateway, out.Pkts[0], out.Sizes[0]) != nil {
				out.ReleasePackets()
				i.sendErrs.Add(1)
			}
			packet.PutBatch(out)
		default:
			if sent := out.Len(); i.ep.SendBatch(i.gateway, out) != nil {
				out.ReleasePackets()
				packet.PutBatch(out)
				i.sendErrs.Add(uint64(sent))
			}
		}
	}
}

// Start launches Run on a goroutine and returns a stop function.
func (i *Instance) Start() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		i.Run(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// PassThrough is the identity function, useful in tests and benchmarks.
type PassThrough struct{}

// Name implements Function.
func (PassThrough) Name() string { return "passthrough" }

// Process implements Function.
func (PassThrough) Process(*packet.Packet) bool { return true }
