package main

import (
	"bufio"
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hist counts every timing sample it is given: no reservoir, no
// sampling. Values below 128 ns have their own bucket; above that each
// power of two is split into 128 buckets, so a quantile is exact to
// within 0.8 %. The bucket array (16 KiB, no pointers) is allocated
// once per recorder. A failed operation is recorded as slower than any
// limit.
type hist struct {
	counts []uint32
	inf    uint64
	n      uint64
}

const (
	subBits     = 7
	histBuckets = 34 << subBits // values below 2^40 ns
	failedNs    = math.MaxInt64 // the latency recorded for a failed operation
)

var nan = math.NaN()

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func bucketOf(ns int64) int {
	if ns < 1<<subBits {
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - subBits - 1
	return (e+1)<<subBits + int(ns>>e) - 1<<subBits
}

// bucketMid is the middle of bucket i's range, in ns.
func bucketMid(i int) float64 {
	if i < 1<<subBits {
		return float64(i)
	}
	e := i>>subBits - 1
	lower := int64(1<<subBits+i&(1<<subBits-1)) << e
	return float64(lower) + float64(int64(1)<<e)/2
}

func (h *hist) add(ns int64) {
	h.n++
	if ns < 0 {
		ns = 0
	}
	if b := bucketOf(ns); b < len(h.counts) {
		h.counts[b]++
		return
	}
	h.inf++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.inf += o.inf
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) in ns:
// failedNs when it falls among failed operations, NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return nan
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return failedNs
}

// tail reports the highest of the standard percentiles that still has at
// least ten samples beyond it, with its value in ns.
func (h *hist) tail() (pct, ns float64) {
	pct = 50
	for _, p := range []float64{90, 99, 99.9, 99.99, 99.999} {
		if float64(h.n)*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct, h.quantile(pct / 100)
}

// latRec records a window's operation latencies per slice of sliceNs,
// by the slice in which each operation was due or issued. Its quantiles
// are the median over those slices of each slice's quantile, so a
// disturbed stretch (a collection, a neighbour's burst on the host)
// moves them less than it moves a quantile over the whole window.
type latRec struct {
	start int64
	secs  []*hist
}

const sliceNs = 250e6

func newLatRec(start, end int64) *latRec {
	r := &latRec{start: start, secs: make([]*hist, max(1, (end-start)/sliceNs))}
	for i := range r.secs {
		r.secs[i] = newHist()
	}
	return r
}

// add records latency ns of an operation due or issued at instant at;
// a nil record ignores it.
func (r *latRec) add(at, ns int64) {
	if r == nil {
		return
	}
	i := int((at - r.start) / sliceNs)
	r.secs[max(0, min(i, len(r.secs)-1))].add(ns)
}

func (r *latRec) quantile(q float64) float64 {
	var qs []float64
	for _, h := range r.secs {
		if h.n > 0 {
			qs = append(qs, h.quantile(q))
		}
	}
	return median(qs)
}

// each returns every non-empty slice's q-quantile in µs, rounded, for
// the details.
func (r *latRec) each(q float64) []int {
	var out []int
	for _, h := range r.secs {
		if h.n > 0 {
			out = append(out, int(math.Round(us(h.quantile(q)))))
		}
	}
	return out
}

// all merges every second into one record.
func (r *latRec) all() *hist {
	h := newHist()
	for _, s := range r.secs {
		h.merge(s)
	}
	return h
}

// samples keeps every value of a low-volume timing (control-plane
// operations, sampled packet hops) and sorts on demand.
type samples struct{ v []float64 }

func (s *samples) add(ns int64) { s.v = append(s.v, float64(ns)) }
func (s *samples) n() int       { return len(s.v) }

// quantile returns the nearest-rank q-quantile in ns (NaN when empty).
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return nan
	}
	sort.Float64s(s.v)
	rank := int(math.Ceil(q * float64(len(s.v))))
	if rank < 1 {
		rank = 1
	}
	return s.v[rank-1]
}

// span is one interval the benchmark timed around a call into a layer,
// or one hop of a sampled packet's path. Spans of one request share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	mu    sync.Mutex
	next  atomic.Uint64
	spans []span
	max   int
	lost  uint64
}

func newSpanLog(max int) *spanLog { return &spanLog{max: max} }

// add records a finished span and returns its ID (0 when nil or full).
func (l *spanLog) add(parent, req uint64, name string, start, end int64) uint64 {
	if l == nil {
		return 0
	}
	id := l.next.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= l.max {
		l.lost++
		return id
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// procSample is the process's resource use at one instant.
type procSample struct {
	wall   time.Time
	cpuNs  int64
	allocB uint64
	gcs    uint64
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := append([]metrics.Sample(nil), procMetrics...)
	metrics.Read(ms)
	return procSample{
		wall:   time.Now(),
		cpuNs:  ru.Utime.Nano() + ru.Stime.Nano(),
		allocB: ms[0].Value.Uint64(),
		gcs:    ms[1].Value.Uint64(),
	}
}

// procDelta is resource use over an interval.
type procDelta struct {
	wallNs  int64
	cpuNs   int64
	allocB  uint64
	gcs     uint64
	maxProc int
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wallNs:  b.wall.Sub(a.wall).Nanoseconds(),
		cpuNs:   b.cpuNs - a.cpuNs,
		allocB:  b.allocB - a.allocB,
		gcs:     b.gcs - a.gcs,
		maxProc: runtime.GOMAXPROCS(0),
	}
}

func (d procDelta) busyFrac() float64 {
	return float64(d.cpuNs) / (float64(d.wallNs) * float64(d.maxProc))
}

// liveHeapMiB forces two collections and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	return float64(ms[0].Value.Uint64()) / (1 << 20)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
