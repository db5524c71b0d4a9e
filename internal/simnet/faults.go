package simnet

import (
	"sync"
	"sync/atomic"
	"time"
)

// faultState holds the dynamically injected failures. Faults act at the
// send boundary: a faulted message is swallowed silently (Send returns
// nil), exactly as a WAN loss — senders cannot tell a partition from a
// lossy path, which is what makes the control plane's reliability layer
// necessary.
type faultState struct {
	mu sync.RWMutex
	// blocked holds directional site-pair partitions.
	blocked map[[2]SiteID]bool
	// blackout marks whole sites as dead: nothing is delivered to or
	// from any endpoint of the site, including intra-site traffic.
	blackout map[SiteID]bool
	// installed counts the entries of blocked and blackout. It changes
	// under mu after the maps do, so a send that reads 0 can skip the
	// maps and the lock: no fault was installed when it started.
	installed atomic.Int32
}

// drops reports whether a message from→to is swallowed by an injected
// fault.
func (f *faultState) drops(from, to SiteID) bool {
	if f.installed.Load() == 0 {
		return false
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.blackout[from] || f.blackout[to] || f.blocked[[2]SiteID{from, to}]
}

// setFault installs (on) or clears one entry of a fault map, keeping
// the installed count in step.
func setFault[K comparable](f *faultState, m *map[K]bool, k K, on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if (*m)[k] == on {
		return
	}
	if on {
		if *m == nil {
			*m = make(map[K]bool)
		}
		(*m)[k] = true
		f.installed.Add(1)
	} else {
		delete(*m, k)
		f.installed.Add(-1)
	}
}

// PartitionOneWay blocks delivery from→to (asymmetric link failure).
// Messages in the reverse direction still flow.
func (n *Network) PartitionOneWay(from, to SiteID) {
	setFault(&n.faults, &n.faults.blocked, [2]SiteID{from, to}, true)
}

// Partition blocks delivery between a and b in both directions
// (symmetric link partition).
func (n *Network) Partition(a, b SiteID) {
	n.PartitionOneWay(a, b)
	n.PartitionOneWay(b, a)
}

// HealOneWay clears a one-directional partition.
func (n *Network) HealOneWay(from, to SiteID) {
	setFault(&n.faults, &n.faults.blocked, [2]SiteID{from, to}, false)
}

// Heal clears the partition between a and b in both directions.
func (n *Network) Heal(a, b SiteID) {
	n.HealOneWay(a, b)
	n.HealOneWay(b, a)
}

// BlackoutSite kills a site: every message to or from any of its
// endpoints (intra-site included) is dropped until RestoreSite. This
// models a whole-site crash — compute, forwarders, and the site's bus
// proxy all go dark at once.
func (n *Network) BlackoutSite(s SiteID) {
	setFault(&n.faults, &n.faults.blackout, s, true)
}

// RestoreSite brings a blacked-out site back.
func (n *Network) RestoreSite(s SiteID) {
	setFault(&n.faults, &n.faults.blackout, s, false)
}

// FaultDrops returns how many messages injected faults have swallowed.
func (n *Network) FaultDrops() uint64 { return n.stats.dropsFault.Load() }

// ScheduleFlap partitions a↔b for `down`, heals for `up`, and repeats
// `cycles` times (cycles <= 0 flaps until cancelled). The returned
// cancel function stops the flapping, heals the path, and only returns
// once the flap goroutine has exited.
func (n *Network) ScheduleFlap(a, b SiteID, down, up time.Duration, cycles int) (cancel func()) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(done)
		defer n.Heal(a, b)
		for i := 0; cycles <= 0 || i < cycles; i++ {
			n.Partition(a, b)
			select {
			case <-stop:
				return
			case <-time.After(down):
			}
			n.Heal(a, b)
			select {
			case <-stop:
				return
			case <-time.After(up):
			}
		}
	}()
	return func() {
		once.Do(func() { close(stop) })
		<-done
	}
}
