// Command perfbench is the repository benchmark: it deploys Switchboard
// (simulated WAN, message bus, Global Switchboard, one Local Switchboard
// per site, VNF controllers) through the public packages, drives one of
// three workloads against it, checks the outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones; with -trace 1 they are the per-layer
// ones, taken from a traced run plus isolated replays of each layer.
//
// See README.md for the workloads, the metrics and how they interact.
//
//	bash perfbench/run.sh --workload chain-closed --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported for every
// workload by the untraced run. Their per-workload meaning is in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the metrics of single layers, reported for every
// workload by the traced run.
var perLayer = []metricDef{
	{"workload.lat_p90_us", "us"},
	{"workload.gen_lag_p99_us", "us"},
	{"workload.lat_tail_us", "us"},
	{"workload.lat_tail_pct", "%"},
	{"workload.lat_n", "count"},
	{"workload.stream_lat_p50_us", "us"},
	{"workload.stream_lat_p90_us", "us"},
	{"simnet.msgs_per_pkt", "ratio"},
	{"simnet.send_recv_ns_per_msg", "ns"},
	{"simnet.queue_full_drops", "count"},
	{"edge.ingress_ns_per_pkt", "ns"},
	{"edge.egress_ns_per_pkt", "ns"},
	{"edge.at_p50_us", "us"},
	{"edge.to_p50_us", "us"},
	{"edge.conns", "count"},
	{"forwarder.batch_ns_per_pkt", "ns"},
	{"forwarder.allocs_per_burst", "count"},
	{"forwarder.bytes_per_burst", "B"},
	{"forwarder.avg_burst", "pkts"},
	{"forwarder.at_p50_us", "us"},
	{"forwarder.at_p90_us", "us"},
	{"forwarder.to_p50_us", "us"},
	{"forwarder.drops", "count"},
	{"forwarder.install_us", "us"},
	{"dht.lookup_ns_per_pkt", "ns"},
	{"dht.insert_ns_per_flow", "ns"},
	{"dht.new_flow_ratio", "ratio"},
	{"dht.entries", "count"},
	{"vnf.firewall_ns_per_pkt", "ns"},
	{"vnf.nat_ns_per_pkt", "ns"},
	{"vnf.at_p50_us", "us"},
	{"vnf.nat_bindings", "count"},
	{"vnf.dropped", "count"},
	{"gs.create_chain_ms_p50", "ms"},
	{"gs.path_compute_ms_p50", "ms"},
	{"gs.delete_chain_ms_p50", "ms"},
	{"gs.replan_ms_p50", "ms"},
	{"vnfctl.allocate_ms_p50", "ms"},
	{"ls.install_ms_p50", "ms"},
	{"ls.install_ms_p90", "ms"},
	{"ls.republished_routes", "count"},
	{"te.dp_solve_us_p50", "us"},
	{"te.lp_solve_ms_p50", "ms"},
	{"bus.msgs_per_chain", "ratio"},
	{"bus.retransmits", "count"},
	{"bus.publish_to_deliver_ms_p50", "ms"},
	{"proc.cpu_ns_per_op", "ns"},
	{"proc.busy_frac", "ratio"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_cycles", "count"},
	{"loss.uncounted_pkts", "count"},
	{"recon.unexplained_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// result is what a workload run reports.
type result struct {
	attempted, failed uint64
	// violations lists failed output checks; any entry fails the run.
	violations []string
	metrics    map[string]float64
	// detail holds sample counts, workload-specific names for the
	// end-to-end figures, and other context printed before the result.
	detail map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, detail: map[string]any{}}
}

func (r *result) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*result, error){
	"chain-closed": runChainClosed,
	"chain-open":   runChainOpen,
	"admit-churn":  runAdmitChurn,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: chain-closed, chain-open or admit-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".", "directory for the result and span files")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (chain-closed|chain-open|admit-churn), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := report(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// hostFacts records where and how a result was measured.
func hostFacts(cfg config) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// report prints the human-readable table, writes the full result file,
// and prints the contract line last.
func report(cfg config, res *result) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	correct := len(res.violations) == 0
	out := map[string]any{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	facts := hostFacts(cfg)
	fmt.Printf("# host: %s, nproc %d, GOMAXPROCS %d, %s; workload %s, seed %d, %gs, trace %v\n",
		facts["cpu_model"], facts["nproc"], facts["gomaxprocs"], facts["go_version"],
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, d := range defs {
		fmt.Printf("%-32s %16.4f %s\n", d.name, res.metrics[d.name], d.unit)
	}
	keys := make([]string, 0, len(res.detail))
	for k := range res.detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %-30s %v\n", k, res.detail[k])
	}
	for _, v := range res.violations {
		fmt.Printf("# CHECK FAILED: %s\n", v)
	}
	full := map[string]any{
		"host": facts, "correct": correct, "attempted": res.attempted, "failed": res.failed,
		"metrics": res.metrics, "detail": res.detail, "violations": res.violations,
	}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace))
	if err := os.WriteFile(filepath.Join(cfg.out, name), b, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// timedSetups builds a deployment n times, keeping the last one, and
// returns it with the median set-up time in seconds. Repeating set-up
// steadies setup_s; the discarded deployments are torn down at once.
func timedSetups[T any](n int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var times []float64
	var d T
	for i := 0; i < n; i++ {
		start := time.Now()
		var err error
		d, err = build()
		if err != nil {
			return d, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			teardown(d)
		}
	}
	return d, median(times), nil
}

// countSetupTimeouts reports set-up admissions that timed out (and were
// replaced, or republished in admit-churn), over every repetition of
// set-up. Set-up is not one of the measured operations, so they appear
// in the details, not in failed.
func countSetupTimeouts(res *result, n int) {
	res.detail["setup_admit_timeouts"] = n
}

// sleepUntil sleeps until the wall clock reaches t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }
