package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/artifact"
	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
)

// The traced replay runs in this process, after the server is gone. It
// replays the first replayRequests requests of the workload's timed
// sequence and records a span around every call it makes into a layer's
// public functions. The replay cannot open spans inside a package, so it
// calls each layer's entry points itself, in three trees per request:
//
//	request  edge.decode → core.new → core.request → edge.encode
//	         (what a stateless /v1/plan does between the socket and the
//	         kernel, on a plan cache warmed like the daemon's)
//	warm     core.request.warm, stream.run.warm (the same plan again, warm)
//	kernel   mixgraph.build, stream.scan, plancache.get, forest.build,
//	         sched.kernel, forest.materialize, sched.materialize,
//	         audit.check_plan, plancache.put, artifact.encode,
//	         artifact.decode_verified (each lower layer's public call on the
//	         request's plan)
//
// then, for the first ioProbeCalls requests, the calls that leave the
// process (wal.append, artifact.store_put/get, cluster.push/fetch against a
// live in-process peer), one layer at a time under io roots.
//
// and, in a pass of its own before those, one server.handler span per
// request around server.Handler().ServeHTTP through httptest (no socket).
// A layer's cost per request is its per-call time here multiplied by its
// calls per request counted by the daemon in the untraced window.
const (
	replayRequests = 1500
	replayBudget   = 4 * time.Second // per pass
	ioProbeCalls   = 150             // cap on fsync'd WAL appends, disk puts and peer calls
)

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Req    int    `json:"req"`    // request id: position in the replayed sequence
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
}

func (t *tracer) begin(name string, req int) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// call runs fn inside a span.
func (t *tracer) call(name string, req int, fn func() error) error {
	id := t.begin(name, req)
	err := fn()
	t.end(id)
	if err != nil {
		return fmt.Errorf("%s (request %d): %w", name, req, err)
	}
	return nil
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name    string
	Calls   int
	TotalUS float64
	SelfUS  float64 // total minus the time covered by child spans
}

func (l layerStat) perCall() float64 { return l.TotalUS / float64(max(l.Calls, 1)) }

func (t *tracer) stats() map[string]*layerStat {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			out[s.Name] = st
		}
		st.Calls++
		st.TotalUS += float64(s.End-s.Start) / 1e3
		st.SelfUS += float64(s.End-s.Start-child[s.ID]) / 1e3
	}
	return out
}

// replayReport is what the replay hands back to the run.
type replayReport struct {
	tr          *tracer
	metrics     map[string]metric
	attribution []attribution
}

// attribution is one layer's estimated cost per request: B µs per call
// times A calls per request.
type attribution struct {
	layer        string
	callsPerReq  float64
	usPerCall    float64
	usPerRequest float64
}

// interleave merges the first n requests of the clients' streams the way
// they reach the server, one request per client in turn.
func interleave(streams [][]Request, n int) []Request {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	total = min(total, n)
	var out []Request
	for i := 0; len(out) < total; i++ {
		for _, s := range streams {
			if i < len(s) && len(out) < total {
				out = append(out, s[i])
			}
		}
	}
	return out
}

// replay runs the traced replay of w. a holds the window's per-request
// counts (the A metrics) used to weigh the per-call times.
func replay(w *Workload, a map[string]float64, dir string) (*replayReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The daemon always runs with observability on; so does the replay.
	obs.Enable(obs.Options{})
	defer obs.Disable()
	ctx := context.Background()
	seq := interleave(w.Timed, replayRequests)
	warm := interleave(w.Warm, math.MaxInt)
	tr := &tracer{t0: time.Now()}

	// Pass 1: the whole handler in process, configured like the daemon,
	// once untraced and once traced, each on a fresh server. Their
	// difference is the tracer's own cost.
	untracedUS, err := handlerPass(w, warm, seq, nil)
	if err != nil {
		return nil, err
	}
	if _, err := handlerPass(w, warm, seq, tr); err != nil {
		return nil, err
	}

	// Pass 2: the layer calls, on a mirror plan cache warmed like the
	// daemon's.
	stream.PurgeScanMemo()
	lp, err := newLayerProbe(ctx, w, dir)
	if err != nil {
		return nil, err
	}
	defer lp.close()
	for _, r := range warm {
		eng, err := engineFor(w.Specs[r.Spec], lp.mirror)
		if err != nil {
			return nil, err
		}
		if _, err := eng.RequestCtx(ctx, w.Specs[r.Spec].Demand); err != nil {
			return nil, err
		}
	}
	getsPerWarmRun, runs := 0.0, 0
	deadline := time.Now().Add(replayBudget)
	for i, r := range seq {
		if time.Now().After(deadline) {
			break
		}
		gets, err := lp.one(tr, i, w.Body(r))
		if err != nil {
			return nil, err
		}
		getsPerWarmRun += float64(gets)
		runs++
	}
	getsPerWarmRun /= float64(max(runs, 1))
	if err := lp.io(tr); err != nil {
		return nil, err
	}

	rep := &replayReport{tr: tr, metrics: map[string]metric{}}
	st := tr.stats()
	us := func(name string) float64 {
		if s := st[name]; s != nil {
			return s.perCall()
		}
		return 0
	}
	for _, name := range []string{
		"edge.decode", "edge.encode", "server.handler", "core.new", "mixgraph.build", "stream.scan",
		"plancache.get", "plancache.put", "forest.build", "forest.materialize", "sched.kernel",
		"sched.materialize", "audit.check_plan", "wal.append", "artifact.encode",
		"artifact.decode_verified", "artifact.store_put", "artifact.store_get", "cluster.push", "cluster.fetch",
	} {
		rep.metrics[name+"_us"] = metric{us(name), "us"}
	}
	rep.metrics["core.request_self_us"] = metric{us("core.request.warm") - us("stream.run.warm"), "us"}
	rep.metrics["stream.run_self_us"] = metric{us("stream.run.warm") - getsPerWarmRun*us("plancache.get"), "us"}

	// Calls per request of the layers the handler's time runs through. A
	// stateless request builds one engine; a session builds one when it is
	// created.
	newsPerReq := 1.0
	if w.Sessions {
		newsPerReq = a["server.sessions_created_per_req"]
	}
	rep.attribution = []attribution{
		{"edge.decode", 1, us("edge.decode"), 0},
		{"core.new", newsPerReq, us("core.new"), 0},
		{"core.request", a["core.requests_per_req"], us("core.request"), 0},
		{"edge.encode", 1, us("edge.encode"), 0},
	}
	attributed := 0.0
	for i := range rep.attribution {
		at := &rep.attribution[i]
		at.usPerRequest = at.callsPerReq * at.usPerCall
		attributed += at.usPerRequest
	}
	handlerUS := us("server.handler")
	rep.metrics["trace.unattributed_share"] = metric{1 - share(attributed, handlerUS), "ratio"}
	rep.metrics["trace.overhead_share"] = metric{share(handlerUS-untracedUS, untracedUS), "ratio"}
	return rep, nil
}

// handlerPass drives seq through a fresh in-process server, configured
// like the daemon, after its warm-up and returns the mean time per
// request. With a tracer each request is a server.handler span. The
// process-wide demand-scan memo is emptied first, so each pass meets the
// scans as cold as the daemon did.
func handlerPass(w *Workload, warm, seq []Request, tr *tracer) (float64, error) {
	stream.PurgeScanMemo()
	h := server.New(server.Config{PlanCache: plancache.New(planCacheCap)}).Handler()
	var err error
	serve := func(r Request) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(w.Body(r)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	for _, r := range warm {
		if err := serve(r); err != nil {
			return 0, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	t0 := time.Now()
	n := 0
	for i, r := range seq {
		if time.Since(t0) > replayBudget {
			break
		}
		if tr != nil {
			err = tr.call("server.handler", i, func() error { return serve(r) })
		} else {
			err = serve(r)
		}
		if err != nil {
			return 0, err
		}
		n++
	}
	return float64(time.Since(t0).Microseconds()) / float64(max(n, 1)), nil
}

// layerProbe holds the state of the layer pass: the mirror plan cache
// (warmed like the daemon's), a scratch cache for the kernel tree's puts,
// and the I/O layers' live objects.
type layerProbe struct {
	ctx     context.Context
	w       *Workload
	mirror  *plancache.Cache
	scratch *plancache.Cache
	pb      forest.PackedBuilder
	kern    sched.Kernel
	store   *artifact.Store
	wlog    *wal.Log
	peer    *httptest.Server
	peerSrv *server.Server
	node    *cluster.Node
	// artifacts are the first requests' encoded plans, for the I/O probes.
	artifacts []probeArtifact
}

func newLayerProbe(ctx context.Context, w *Workload, dir string) (*layerProbe, error) {
	lp := &layerProbe{ctx: ctx, w: w, mirror: plancache.New(planCacheCap), scratch: plancache.New(planCacheCap)}
	var err error
	if lp.store, err = artifact.OpenStore(filepath.Join(dir, "probe-artifacts"), 0); err != nil {
		return nil, err
	}
	if lp.wlog, _, err = wal.Open(filepath.Join(dir, "probe.wal")); err != nil {
		return nil, err
	}
	peerStore, err := artifact.OpenStore(filepath.Join(dir, "peer-artifacts"), 0)
	if err != nil {
		lp.wlog.Close()
		return nil, err
	}
	lp.peerSrv = server.New(server.Config{PlanCache: plancache.New(planCacheCap), Artifacts: peerStore})
	lp.peer = httptest.NewServer(lp.peerSrv.Handler())
	if lp.node, err = cluster.NewNode(cluster.Config{Self: "bench", Peers: []cluster.Peer{{ID: "peer", URL: lp.peer.URL}}}); err != nil {
		lp.close()
		return nil, err
	}
	return lp, nil
}

func (lp *layerProbe) close() {
	lp.peer.Close()
	lp.wlog.Close()
}

// one replays a single request through the three trees and returns how
// many plan-cache reads a warm run of its plan makes (one per distinct
// pass demand).
func (lp *layerProbe) one(tr *tracer, i int, body []byte) (int, error) {
	ctx := lp.ctx
	var req server.PlanRequest
	var eng *core.Engine
	var b *core.Batch
	root := tr.begin("request", i)
	err := tr.call("edge.decode", i, func() error { return json.Unmarshal(body, &req) })
	if err == nil {
		err = tr.call("core.new", i, func() (err error) { eng, err = engineFor(req, lp.mirror); return err })
	}
	if err == nil {
		err = tr.call("core.request", i, func() (err error) { b, err = eng.RequestCtx(ctx, req.Demand); return err })
	}
	if err == nil {
		err = tr.call("edge.encode", i, func() error {
			_, err := json.Marshal(planResponse(req, eng, b))
			return err
		})
	}
	tr.end(root)
	if err != nil {
		return 0, err
	}

	cfg := stream.Config{Base: eng.Base(), Mixers: eng.Mixers(), Storage: req.Storage, Scheduler: b.Result.Config.Scheduler, Cache: lp.mirror}
	root = tr.begin("warm", i)
	err = tr.call("core.request.warm", i, func() error { _, err := eng.RequestCtx(ctx, req.Demand); return err })
	if err == nil {
		err = tr.call("stream.run.warm", i, func() error { _, err := stream.RunCtx(ctx, cfg, req.Demand); return err })
	}
	tr.end(root)
	if err != nil {
		return 0, err
	}
	gets := 1
	if last := b.Result.Passes[len(b.Result.Passes)-1].Demand; last != b.Result.PerPassDemand {
		gets = 2
	}

	root = tr.begin("kernel", i)
	err = lp.kernel(tr, i, req, eng, cfg, b.Result.PerPassDemand)
	tr.end(root)
	return gets, err
}

// kernel runs the lower layers' public calls on the request's full-pass
// plan: the packed build pipeline a plan-cache miss runs, then the
// artifact, peer and WAL calls that carry a plan off the node.
func (lp *layerProbe) kernel(tr *tracer, i int, req server.PlanRequest, eng *core.Engine, cfg stream.Config, d int) error {
	target, err := ratio.Parse(req.Ratio)
	if err != nil {
		return err
	}
	if err := tr.call("mixgraph.build", i, func() error { _, err := core.MM.Build(target); return err }); err != nil {
		return err
	}
	if req.Storage > 0 {
		stream.PurgeScanMemo()
		if err := tr.call("stream.scan", i, func() error { _, err := stream.MaxSinglePassDemandCtx(lp.ctx, cfg, req.Demand); return err }); err != nil {
			return err
		}
	}
	key := plancache.KeyFor(eng.Base(), d, eng.Mixers(), cfg.Scheduler.String(), plancache.PristinePolicy)
	if err := tr.call("plancache.get", i, func() error {
		if _, ok := lp.mirror.Get(key); !ok {
			return fmt.Errorf("plan %s not in the mirror cache", key.Canonical())
		}
		return nil
	}); err != nil {
		return err
	}
	var pf *forest.PackedForest
	var f *forest.Forest
	var s *sched.Schedule
	steps := []struct {
		name string
		fn   func() error
	}{
		{"forest.build", func() (err error) { pf, err = forest.BuildPacked(&lp.pb, eng.Base(), d); return err }},
		{"sched.kernel", func() error {
			if cfg.Scheduler == stream.SRS {
				return lp.kern.SRS(pf, eng.Mixers())
			}
			return lp.kern.MMS(pf, eng.Mixers())
		}},
		{"forest.materialize", func() error { f = pf.Materialize(); return nil }},
		{"sched.materialize", func() error { s = lp.kern.Materialize(f); return nil }},
		{"audit.check_plan", func() error { return audit.CheckPlan(f, s).Err() }},
	}
	for _, st := range steps {
		if err := tr.call(st.name, i, st.fn); err != nil {
			return err
		}
	}
	plan := plancache.NewPlan(f, s)
	if err := tr.call("plancache.put", i, func() error { lp.scratch.Put(key, plan); return nil }); err != nil {
		return err
	}
	var data []byte
	if err := tr.call("artifact.encode", i, func() (err error) { data, err = artifact.Encode(key, plan); return err }); err != nil {
		return err
	}
	if err := tr.call("artifact.decode_verified", i, func() error { _, err := artifact.DecodeVerified(data); return err }); err != nil {
		return err
	}
	if len(lp.artifacts) < ioProbeCalls {
		lp.artifacts = append(lp.artifacts, probeArtifact{req: i, addr: artifact.AddressFor(key), data: data, demand: req.Demand})
	}
	return nil
}

// probeArtifact is one replayed request's encoded plan, kept for the I/O
// probes.
type probeArtifact struct {
	req    int
	addr   string
	data   []byte
	demand int
}

// io times the layers that leave the process: the disk tier, a live peer
// and the fsync'd WAL. Each layer runs as its own consecutive burst, so
// one layer's file writes do not land in another's fsync.
func (lp *layerProbe) io(tr *tracer) error {
	type probe struct {
		name string
		fn   func(a probeArtifact) error
	}
	bursts := [][]probe{
		{{"wal.append", func(a probeArtifact) error {
			return lp.wlog.Append(wal.Record{Kind: wal.KindBatchAccept, Session: "replay", Batch: a.req + 1, Demand: a.demand})
		}}},
		{{"artifact.store_put", func(a probeArtifact) error { return lp.store.Put(a.addr, a.data) }},
			{"artifact.store_get", func(a probeArtifact) error {
				if _, ok := lp.store.Get(a.addr); !ok {
					return fmt.Errorf("artifact %s missing after put", a.addr)
				}
				return nil
			}}},
		{{"cluster.push", func(a probeArtifact) error { return lp.node.Push(lp.ctx, "peer", a.addr, a.data) }},
			{"cluster.fetch", func(a probeArtifact) error { _, err := lp.node.Fetch(lp.ctx, "peer", a.addr); return err }}},
	}
	for _, burst := range bursts {
		for _, a := range lp.artifacts {
			root := tr.begin("io", a.req)
			for _, p := range burst {
				if err := tr.call(p.name, a.req, func() error { return p.fn(a) }); err != nil {
					tr.end(root)
					return err
				}
			}
			tr.end(root)
		}
	}
	return nil
}

// planResponse renders the answer /v1/plan gives for a stateless batch.
func planResponse(req server.PlanRequest, eng *core.Engine, b *core.Batch) server.PlanResponse {
	res := b.Result
	resp := server.PlanResponse{
		Ratio: req.Ratio, Algorithm: core.MM.String(), Scheduler: res.Config.Scheduler.String(),
		Mixers: eng.Mixers(), Storage: req.Storage, Demand: res.Demand, Emitted: res.Emitted,
		TotalCycles: res.TotalCycles, TotalInputs: res.TotalInputs, TotalWaste: res.TotalWaste,
		FirstEmission: res.FirstEmission(), StartCycle: b.StartCycle,
	}
	for _, p := range res.Passes {
		resp.Passes = append(resp.Passes, server.PassSummary{Demand: p.Demand, Cycles: p.Schedule.Cycles, Storage: p.Storage, StartCycle: p.StartCycle})
	}
	return resp
}

// write stores the spans (JSON lines) and the per-layer self-time table
// under dir, and prints the table and the attribution to out.
func (r *replayReport) write(dir string, w *Workload, out io.Writer) error {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.Name, w.Seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	var tbl bytes.Buffer
	st := r.tr.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&tbl, "perfbench: traced replay of %s seed %d: self time per layer\n", w.Name, w.Seed)
	fmt.Fprintf(&tbl, "  %-26s %8s %14s %14s %12s\n", "span", "calls", "total_us", "self_us", "us/call")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(&tbl, "  %-26s %8d %14.1f %14.1f %12.3f\n", n, s.Calls, s.TotalUS, s.SelfUS, s.perCall())
	}
	fmt.Fprintf(&tbl, "perfbench: handler time attributed per request (A calls/req x B us/call)\n")
	for _, at := range r.attribution {
		fmt.Fprintf(&tbl, "  %-26s %10.4f x %10.3f = %10.3f us\n", at.layer, at.callsPerReq, at.usPerCall, at.usPerRequest)
	}
	fmt.Fprintf(&tbl, "  trace.unattributed_share %.4f, trace.overhead_share %.4f\n",
		r.metrics["trace.unattributed_share"].Value, r.metrics["trace.overhead_share"].Value)
	if err := os.WriteFile(base+".layers.txt", tbl.Bytes(), 0o644); err != nil {
		return err
	}
	_, err = out.Write(tbl.Bytes())
	return err
}
