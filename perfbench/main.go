// Command perfbench is the repository's serving benchmark. One invocation
// boots fresh dmfbd processes, warms them, drives one workload for a fixed
// window from closed-loop clients in this process (no more clients than
// CPUs), verifies every answer against an in-process oracle, scrapes the
// server's /metrics around the window for per-layer counts, and prints one
// JSON result line last:
//
//	perfbench -dmfbd BIN -workload plan-hot -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, which add a traced in-process replay of the
// workload's request sequence (replay.go). -steady N repeats every workload
// N times with seeds seed..seed+N-1, alternating workloads, and prints each
// metric's median, quartiles and spread. perfbench/run.sh builds everything
// from source and is the entry point; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's settings.
type options struct {
	dmfbd    string
	workdir  string
	workload string
	seed     int64
	seconds  int
	trace    bool
	clients  int
}

// setups is how many times a run sets up from the same state; setup_s is
// their median, and the last set-up's server is measured.
const setups = 9

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.dmfbd, "dmfbd", "", "path of the dmfbd binary under test")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/run", "directory for the traced replay's temporary files")
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (first seed with -steady)")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics (adds the traced replay)")
	steady := fs.Int("steady", 0, "repeat each workload N times and print the spread of every metric")
	list := fs.String("workloads", strings.Join(workloadNames, ","), "workloads repeated by -steady")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	// One closed-loop client per CPU: the load generator never has more
	// requests in flight than the machine has cores.
	o.clients = runtime.NumCPU()
	if o.dmfbd == "" || o.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -dmfbd, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		return steadiness(o, *steady, strings.Split(*list, ","), stdout, stderr)
	}
	res, err := run(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setUp boots a fresh dmfbd and runs the workload's warm-up traffic.
func setUp(o options, w *Workload) (*daemon, *Phase, error) {
	d, err := startDaemon(o.dmfbd, []string{"-addr", "127.0.0.1:0"})
	if err != nil {
		return nil, nil, err
	}
	ph, err := drive(d.addr, w, w.Warm, 0)
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	return d, ph, nil
}

// run performs one benchmark run and returns its result line.
func run(o options, out io.Writer) (*result, error) {
	w, err := Generate(o.workload, o.seed, o.clients, timedPerClient(o.workload))
	if err != nil {
		return nil, err
	}
	runDir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%d trace=%t clients=%d setups=%d\n",
		w.Name, w.Seed, o.seconds, o.trace, o.clients, setups)

	// Set up several times from the same state and keep the last server
	// for the window; setup_s is the median.
	var setupS []float64
	var d *daemon
	var warm *Phase
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		d, warm, err = setUp(o, w)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.stop()

	m, err := measure(o, w, d)
	if err != nil {
		return nil, err
	}
	calm := 0.0
	for _, sl := range m.calmSlices() {
		calm = max(calm, sl.steal)
	}
	fmt.Fprintf(out, "perfbench: host steal share %.4f of the window's CPU time (time the hypervisor ran something else); at most %.4f in the calm slices the timings use\n", m.steal, calm)
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Verification runs after the window, so it costs no window CPU. The
	// warm-up answers are checked too: session timelines run through them.
	chk := newChecker(w)
	wv := chk.check(warm, w.Warm)
	tv := chk.check(m.phase, w.Timed)
	problems := append(append([]string{}, wv.problems...), tv.problems...)
	if wv.ok != wv.attempted {
		problems = append(problems, fmt.Sprintf("%d of %d warm-up answers wrong", wv.attempted-wv.ok, wv.attempted))
	}
	a := m.layerCounts(tv.ok)
	if a["audit.violations"] != 0 {
		problems = append(problems, fmt.Sprintf("audit.violations = %v in the window", a["audit.violations"]))
	}

	e2e := map[string]metric{}
	for name, v := range map[string]float64{
		"throughput_rps":        m.calmMedian(func(s slice) float64 { return float64(s.ok) / s.dur.Seconds() }),
		"latency_p50_ms":        m.calmMedian(func(s slice) float64 { return quantileMS(s.latencies, 0.50) }),
		"server_cpu_us_per_req": m.calmMedian(func(s slice) float64 { return s.cpu / float64(max(s.ok, 1)) * 1e6 }),
		"server_peak_rss_mb":    m.peakRSS,
		"ok_ratio":              float64(tv.ok) / float64(tv.attempted),
		"setup_s":               median(setupS),
	} {
		e2e[name] = metric{v, endToEndUnits[name]}
	}
	layers := map[string]metric{}
	for k, v := range a {
		layers[k] = metric{v, layerUnit(k)}
	}
	layers["edge.overhead_ms"] = metric{m.meanLatencyMS() - a["server.handler_ms"], "ms"}
	layers["loadgen.cpu_us_per_req"] = metric{m.phase.CPU.Seconds() / float64(max(tv.ok, 1)) * 1e6, "us"}
	var perSlice, stealSlice []float64
	for _, sl := range m.slices {
		perSlice = append(perSlice, float64(sl.ok)/sl.dur.Seconds())
		stealSlice = append(stealSlice, sl.steal)
	}
	fmt.Fprintf(out, "perfbench: req/s per slice: %s\n", fmtList(perSlice))
	fmt.Fprintf(out, "perfbench: steal share per slice: %s\n", fmtList(stealSlice))
	// p99 over the whole window: a slice holds too few samples beyond it.
	// It does not repeat within a tenth on this class of machine, so it is
	// a per-layer diagnostic rather than a gated end-to-end metric.
	layers["latency_p99_ms"] = metric{quantileMS(m.latencies, 0.99), "ms"}
	layers["latency_samples"] = metric{float64(len(m.latencies)), "count"}
	fmt.Fprintf(out, "perfbench: window %.3fs, %d whole %v slices; whole window: %.1f req/s, p50 %.4f ms, p99 %.4f ms over %d samples, %.2f server CPU us/req\n",
		m.window.Seconds(), len(m.slices), sliceLen, float64(tv.ok)/m.window.Seconds(),
		quantileMS(m.latencies, 0.5), quantileMS(m.latencies, 0.99), len(m.latencies), m.serverCPU/float64(max(tv.ok, 1))*1e6)

	if o.trace {
		// The replay times calls in this process: drop the window's answers
		// and the oracle's plans first, so their heap does not slow it.
		m, warm, chk = nil, nil, nil
		runtime.GC()
		rep, err := replay(w, a, filepath.Join(runDir, "replay"))
		if err != nil {
			return nil, err
		}
		for k, v := range rep.metrics {
			layers[k] = v
		}
		if err := rep.write(filepath.Join(filepath.Dir(o.workdir), "trace"), w, out); err != nil {
			return nil, err
		}
	}

	fmt.Fprintf(out, "perfbench: setups %s s\n", fmtList(setupS))
	printTable(out, "end-to-end", e2e)
	printTable(out, "per-layer", layers)
	for _, p := range problems {
		fmt.Fprintln(out, "perfbench: MISMATCH", p)
	}
	res := &result{
		Correct:   len(problems) == 0 && tv.ok == tv.attempted,
		Attempted: tv.attempted,
		Failed:    tv.attempted - tv.ok,
		Metrics:   e2e,
	}
	if o.trace {
		res.Metrics = map[string]metric{}
		for _, name := range perLayerNames {
			v, ok := layers[name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", name)
			}
			res.Metrics[name] = v
		}
	}
	return res, nil
}

// sliceLen is the length of the slices the window is cut into. Each
// end-to-end timing is the median over the window's calm slices
// (calmSlices).
const sliceLen = time.Second

// slice is one whole slice of the timed window.
type slice struct {
	dur       time.Duration
	ok        int       // 200 answers completed in the slice
	cpu       float64   // server CPU seconds in the slice
	steal     float64   // share of the machine's CPU time stolen in the slice
	latencies []float64 // ms, sorted
}

// readCPUStat returns the machine-wide CPU time counters of /proc/stat
// (user, nice, system, idle, iowait, irq, softirq, steal, ...).
func readCPUStat() ([]float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("parse /proc/stat: %q", line)
		}
		out = append(out, v)
	}
	if len(out) < 8 {
		return nil, fmt.Errorf("parse /proc/stat: no steal field in %q", line)
	}
	return out, nil
}

// stealShare is the share of CPU time between two /proc/stat readings that
// the hypervisor gave to other guests. On a shared machine it is the main
// reason two runs of the same code differ; the report prints it so a slow
// run can be told from a slow program. Guest time (fields 9 and 10) is
// already counted in user time and is left out of the total.
func stealShare(a, b []float64) float64 {
	total := 0.0
	for i := 0; i < 8; i++ {
		total += b[i] - a[i]
	}
	return share(b[7]-a[7], total)
}

// measurement is what the timed window yields.
type measurement struct {
	phase     *Phase
	window    time.Duration
	slices    []slice
	latencies []float64 // ms over the whole window, sorted
	serverCPU float64   // seconds over the whole window
	peakRSS   float64   // MiB
	delta     metrics   // /metrics after − before
	steal     float64   // share of the machine's CPU time stolen by the hypervisor
}

// cpuSample is the server's CPU time, and the machine's CPU counters, at
// one instant.
type cpuSample struct {
	at   time.Time
	cpu  float64
	stat []float64
}

func sampleCPU(d *daemon) (cpuSample, error) {
	s := cpuSample{at: time.Now()}
	var err error
	if s.stat, err = readCPUStat(); err != nil {
		return s, err
	}
	s.cpu, err = d.cpuSeconds()
	return s, err
}

// measure drives the timed window against a warmed server. It reads the
// server's /metrics just before and just after the window, and samples its
// CPU time every slice while it runs.
func measure(o options, w *Workload, d *daemon) (*measurement, error) {
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	first, err := sampleCPU(d)
	if err != nil {
		return nil, err
	}
	samples := []cpuSample{first}
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		t := time.NewTicker(sliceLen)
		defer t.Stop()
		for {
			select {
			case <-stop:
				sampled <- nil
				return
			case <-t.C:
				s, err := sampleCPU(d)
				if err != nil {
					sampled <- err
					return
				}
				samples = append(samples, s)
			}
		}
	}()
	ph, err := drive(d.addr, w, w.Timed, time.Duration(o.seconds)*time.Second)
	last, lerr := sampleCPU(d)
	close(stop)
	if serr := <-sampled; err == nil {
		err = serr
	}
	if err == nil {
		err = lerr
	}
	if err != nil {
		return nil, err
	}
	m := &measurement{phase: ph, window: ph.End.Sub(ph.Start), serverCPU: last.cpu - first.cpu, steal: stealShare(first.stat, last.stat)}
	if m.peakRSS, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	m.delta = delta(before, after)

	// Whole slices: both ends sampled inside the window. whole maps a
	// sample interval to its slice, or -1.
	whole := make([]int, len(samples)-1)
	for i := range whole {
		a, b := samples[i], samples[i+1]
		whole[i] = -1
		if !a.at.Before(ph.Start) && !b.at.After(ph.End) {
			whole[i] = len(m.slices)
			m.slices = append(m.slices, slice{dur: b.at.Sub(a.at), cpu: b.cpu - a.cpu, steal: stealShare(a.stat, b.stat)})
		}
	}
	for _, l := range ph.Clients {
		for _, r := range l.resps {
			ms := float64(r.Latency) / 1e6
			m.latencies = append(m.latencies, ms)
			// The interval whose end is the first sample after r.Done.
			i := sort.Search(len(samples), func(j int) bool { return samples[j].at.After(r.Done) }) - 1
			if i < 0 || i >= len(whole) || whole[i] < 0 {
				continue
			}
			sl := &m.slices[whole[i]]
			sl.latencies = append(sl.latencies, ms)
			if r.Status == 200 {
				sl.ok++
			}
		}
	}
	sort.Float64s(m.latencies)
	for i := range m.slices {
		sort.Float64s(m.slices[i].latencies)
	}
	if len(m.slices) == 0 {
		return nil, fmt.Errorf("the %v window holds no whole %v slice", m.window, sliceLen)
	}
	return m, nil
}

// quantileMS returns the q-quantile (nearest rank) of sorted latencies.
func quantileMS(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// calmSlices returns the calm slices of the window: every whole slice in
// which the hypervisor stole no more CPU time from this machine than in
// the median slice. Other guests' load arrives in bursts of seconds
// to minutes and slows every layer at once, so it would otherwise decide a
// run's figures; which slices it hits is outside the program. Ties are
// kept, so on a calm host, where most slices have no steal, the whole
// window counts, and a cost that builds up over it is not left out.
func (m *measurement) calmSlices() []slice {
	steal := make([]float64, len(m.slices))
	for i, s := range m.slices {
		steal[i] = s.steal
	}
	limit := median(steal)
	var out []slice
	for _, s := range m.slices {
		if s.steal <= limit {
			out = append(out, s)
		}
	}
	return out
}

// calmMedian returns the median of f over the calm slices.
func (m *measurement) calmMedian(f func(s slice) float64) float64 {
	var xs []float64
	for _, s := range m.calmSlices() {
		xs = append(xs, f(s))
	}
	return median(xs)
}

func (m *measurement) meanLatencyMS() float64 {
	sum := 0.0
	for _, l := range m.latencies {
		sum += l
	}
	return sum / float64(max(len(m.latencies), 1))
}

// layerCounts derives the per-layer counts of the window (the A metrics)
// from the /metrics delta, per successful request.
func (m *measurement) layerCounts(ok int) map[string]float64 {
	d := m.delta
	v := d.values
	n := float64(max(ok, 1))
	plans := max(v["server.requests.plan"], 1)
	lookups := v["plancache.hits"] + v["plancache.misses"]
	a := map[string]float64{
		"server.handler_ms":               d.mean("server.latency_ms.plan"),
		"server.coalesced_share":          v["server.flights.coalesced"] / plans,
		"server.queued_share":             v["server.admission.queued"] / plans,
		"server.sessions_created_per_req": v["server.sessions.created"] / n,
		"server.sessions_evicted_per_req": v["server.sessions.evicted"] / n,
		"core.requests_per_req":           v["core.requests"] / n,
		"stream.runs_per_req":             v["stream.runs"] / n,
		"plancache.lookups_per_req":       lookups / n,
		"plancache.hit_ratio":             ratioOf(v["plancache.hits"], lookups),
		"plancache.builds_per_req":        v["plancache.builds"] / n,
		"plancache.evictions_per_req":     v["plancache.evictions"] / n,
		"sched.schedules_per_req":         v["sched.schedules"] / n,
		"audit.violations":                v["audit.violations"],
		"wal.appends_per_req":             v["wal.appends"] / n,
		"wal.fsyncs_per_append":           ratioOf(v["wal.fsyncs"], v["wal.appends"]),
		"wal.append_ms":                   d.mean("wal.append_ms"),
		"wal.fsync_ms":                    d.mean("wal.fsync_ms"),
		"artifact.disk_puts_per_req":      v["artifact.disk.puts"] / n,
		"artifact.disk_hits_per_req":      v["artifact.disk.hits"] / n,
		"server.disk_promotions_per_req":  v["server.artifact.disk_promotions"] / n,
		"cluster.push_per_req":            (v["cluster.push.ok"] + v["cluster.push.errors"] + v["cluster.push.not_found"]) / n,
		"cluster.fetch_per_req":           (v["cluster.fetch.ok"] + v["cluster.fetch.errors"] + v["cluster.fetch.not_found"]) / n,
	}
	return a
}

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndUnits are the end-to-end metrics of a -trace 0 result and their
// units, as BENCHMARK.json declares them.
var endToEndUnits = map[string]string{
	"throughput_rps":        "1/s",
	"latency_p50_ms":        "ms",
	"server_cpu_us_per_req": "us",
	"server_peak_rss_mb":    "MB",
	"ok_ratio":              "ratio",
	"setup_s":               "s",
}

// perLayerNames lists the per-layer metrics of a -trace 1 result, in the
// order BENCHMARK.json declares them.
var perLayerNames = []string{
	"edge.overhead_ms", "edge.decode_us", "edge.encode_us",
	"server.handler_ms", "server.coalesced_share", "server.queued_share",
	"server.sessions_created_per_req", "server.sessions_evicted_per_req", "server.handler_us",
	"core.requests_per_req", "core.new_us", "core.request_self_us",
	"mixgraph.build_us",
	"stream.runs_per_req", "stream.run_self_us", "stream.scan_us",
	"plancache.lookups_per_req", "plancache.hit_ratio", "plancache.builds_per_req",
	"plancache.evictions_per_req", "plancache.get_us", "plancache.put_us",
	"sched.schedules_per_req", "forest.build_us", "forest.materialize_us", "sched.kernel_us", "sched.materialize_us",
	"audit.violations", "audit.check_plan_us",
	"wal.appends_per_req", "wal.fsyncs_per_append", "wal.append_ms", "wal.fsync_ms", "wal.append_us",
	"artifact.disk_puts_per_req", "artifact.disk_hits_per_req", "server.disk_promotions_per_req",
	"artifact.encode_us", "artifact.decode_verified_us", "artifact.store_put_us", "artifact.store_get_us",
	"cluster.push_per_req", "cluster.fetch_per_req", "cluster.push_us", "cluster.fetch_us",
	"trace.unattributed_share", "trace.overhead_share", "loadgen.cpu_us_per_req", "latency_p99_ms", "latency_samples",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_req"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_per_append"):
		return "ratio"
	case strings.HasSuffix(name, "_per_req"):
		return "1/req"
	default:
		return "count"
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

func printTable(out io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "perfbench: %s\n", title)
	for _, k := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
