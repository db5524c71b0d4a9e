package simnet

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"switchboard/internal/packet"
)

// TestMessageSize pins Message at 56 bytes on 64-bit platforms: inbox
// rings are allocated at capacity, and every hop copies a Message into
// and out of one.
func TestMessageSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Message{}); got != 56 {
		t.Errorf("unsafe.Sizeof(Message{}) = %d, want 56", got)
	}
}

// TestReattachDeliversToNewEndpoint checks that a sender's cached link
// dies with Detach: after the address is attached again, the next send
// reaches the new endpoint.
func TestReattachDeliversToNewEndpoint(t *testing.T) {
	n := New(1)
	defer n.Close()
	a := attach(t, n, "s1", "a")
	old := attach(t, n, "s1", "b")
	if err := a.Send(old.Addr(), 1, 0); err != nil {
		t.Fatal(err)
	}
	n.Detach(old.Addr())
	if err := a.Send(old.Addr(), 2, 0); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("send to detached endpoint = %v, want ErrNoEndpoint", err)
	}
	fresh := attach(t, n, "s1", "b")
	if err := a.Send(fresh.Addr(), 3, 0); err != nil {
		t.Fatal(err)
	}
	if m := <-fresh.Inbox(); m.Payload != 3 {
		t.Errorf("re-attached endpoint got %v, want 3", m.Payload)
	}
	if m, ok := <-old.Inbox(); !ok || m.Payload != 1 {
		t.Errorf("detached inbox: got %v (open %v), want the one message sent before Detach", m.Payload, ok)
	}
	if _, ok := <-old.Inbox(); ok {
		t.Error("detached inbox received a message after Detach")
	}
}

// TestSetPathReroutesNextSend checks that SetPath from a zero profile
// to a delayed one sends the very next message through the pipe.
func TestSetPathReroutesNextSend(t *testing.T) {
	n := New(1)
	defer n.Close()
	a := attach(t, n, "s1", "a")
	b := attach(t, n, "s2", "b")
	if err := a.Send(b.Addr(), 1, 0); err != nil {
		t.Fatal(err)
	}
	if len(b.Inbox()) != 1 {
		t.Fatal("zero-profile send was not delivered immediately")
	}
	<-b.Inbox()

	const delay = 30 * time.Millisecond
	n.SetPath("s1", "s2", PathProfile{Delay: delay})
	start := time.Now()
	if err := a.Send(b.Addr(), 2, 0); err != nil {
		t.Fatal(err)
	}
	if len(b.Inbox()) != 0 {
		t.Fatal("send after SetPath was delivered immediately, not through the pipe")
	}
	<-b.Inbox()
	if el := time.Since(start); el < delay*5/6 {
		t.Errorf("delivery took %v, want ≥ ~%v", el, delay)
	}
}

// TestFaultAfterCachedLinkDrops checks that a blackout or partition
// installed after a sender cached its link swallows the next send and
// counts it, and that clearing the fault lets the next send through.
func TestFaultAfterCachedLinkDrops(t *testing.T) {
	for _, tc := range []struct {
		name          string
		install, heal func(n *Network)
	}{
		{"blackout", func(n *Network) { n.BlackoutSite("s2") }, func(n *Network) { n.RestoreSite("s2") }},
		{"partition", func(n *Network) { n.PartitionOneWay("s1", "s2") }, func(n *Network) { n.HealOneWay("s1", "s2") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(1)
			defer n.Close()
			a := attach(t, n, "s1", "a")
			b := attach(t, n, "s2", "b")
			if err := a.Send(b.Addr(), 1, 0); err != nil {
				t.Fatal(err)
			}
			<-b.Inbox()

			tc.install(n)
			if err := a.Send(b.Addr(), 2, 0); err != nil {
				t.Fatalf("faulted send = %v, want silent drop", err)
			}
			if len(b.Inbox()) != 0 {
				t.Error("faulted send was delivered")
			}
			if got := n.Stats().DropsFault; got != 1 {
				t.Errorf("DropsFault = %d, want 1", got)
			}
			if got := n.FaultDrops(); got != 1 {
				t.Errorf("FaultDrops = %d, want 1", got)
			}

			tc.heal(n)
			if err := a.Send(b.Addr(), 3, 0); err != nil {
				t.Fatal(err)
			}
			if len(b.Inbox()) != 1 {
				t.Error("send after the fault cleared was not delivered")
			}
		})
	}
}

// TestSharedSenderRacesAttachChurn has many goroutines send through one
// endpoint, as RunnerPool workers do, while destinations are detached
// and attached again. Under -race it checks the copy-on-write link set;
// a send delivering over a stale link into a closed inbox would panic.
// Every accepted message must be delivered or counted as a queue drop.
func TestSharedSenderRacesAttachChurn(t *testing.T) {
	n := New(1)
	src := attachOrFatal(t, n, "A", "src")
	dsts := []Addr{{Site: "A", Host: "d0"}, {Site: "A", Host: "d1"}, {Site: "A", Host: "d2"}, {Site: "A", Host: "d3"}}
	var drains sync.WaitGroup
	attachDrained := func(a Addr) {
		ep, err := n.Attach(a, 16)
		if err != nil {
			t.Error(err)
			return
		}
		drains.Add(1)
		go func() {
			defer drains.Done()
			for range ep.Inbox() {
			}
		}()
	}
	for _, a := range dsts {
		attachDrained(a)
	}

	stop := make(chan struct{})
	var senders sync.WaitGroup
	for w := 0; w < 4; w++ {
		senders.Add(1)
		go func(w int) {
			defer senders.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := src.Send(dsts[i%len(dsts)], i, 0)
				if err != nil && !errors.Is(err, ErrNoEndpoint) && !errors.Is(err, ErrQueueFull) {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(w)
	}
	for round := 0; round < 200; round++ {
		// Let the senders make progress between churn steps.
		for before := n.Stats().MsgsSent; n.Stats().MsgsSent == before; {
			runtime.Gosched()
		}
		a := dsts[round%len(dsts)]
		n.Detach(a)
		attachDrained(a)
	}
	close(stop)
	senders.Wait()
	n.Close()
	drains.Wait()

	st := n.Stats()
	if st.MsgsSent == 0 || st.MsgsSent != st.MsgsDelivered+st.DropsQueueFull {
		t.Errorf("sent %d != delivered %d + queue-full drops %d", st.MsgsSent, st.MsgsDelivered, st.DropsQueueFull)
	}
}

// TestSendAllocs pins the send path at zero allocations: steady-state
// Send and SendBatch, and a Send refused by a full inbox, whose error
// still matches ErrQueueFull.
func TestSendAllocs(t *testing.T) {
	n := New(1)
	defer n.Close()
	a := attach(t, n, "s1", "a")
	b := attach(t, n, "s1", "b")
	p := &packet.Packet{}
	buf := make([]Message, 1)

	if avg := testing.AllocsPerRun(100, func() {
		_ = a.Send(b.Addr(), p, 64)
		b.TryRecvBatch(buf)
	}); avg != 0 {
		t.Errorf("Send: %.1f allocs/op, want 0", avg)
	}

	batch := packet.GetBatch()
	batch.Append(p, 64)
	batch.Append(p, 64)
	if avg := testing.AllocsPerRun(100, func() {
		_ = a.SendBatch(b.Addr(), batch)
		b.TryRecvBatch(buf)
	}); avg != 0 {
		t.Errorf("SendBatch: %.1f allocs/op, want 0", avg)
	}

	full, err := n.Attach(Addr{Site: "s1", Host: "full"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(full.Addr(), p, 64); err != nil {
		t.Fatal(err)
	}
	var refused error
	if avg := testing.AllocsPerRun(100, func() {
		refused = a.Send(full.Addr(), p, 64)
	}); avg != 0 {
		t.Errorf("Send into a full inbox: %.1f allocs/op, want 0", avg)
	}
	if !errors.Is(refused, ErrQueueFull) {
		t.Errorf("Send into a full inbox = %v, want ErrQueueFull", refused)
	}
}

// BenchmarkSendRecv measures one same-site message: Send plus its share
// of the receiver's batched drain, 64 sends per TryRecvBatch.
func BenchmarkSendRecv(b *testing.B) {
	n := New(1)
	defer n.Close()
	src, errSrc := n.Attach(Addr{Site: "A", Host: "a"}, 4096)
	dst, errDst := n.Attach(Addr{Site: "A", Host: "b"}, 4096)
	if errSrc != nil || errDst != nil {
		b.Fatal(errSrc, errDst)
	}
	p := &packet.Packet{}
	buf := make([]Message, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(dst.Addr(), p, 104); err != nil {
			b.Fatal(err)
		}
		if i%len(buf) == len(buf)-1 {
			dst.TryRecvBatch(buf)
		}
	}
}
