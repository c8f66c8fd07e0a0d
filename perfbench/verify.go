package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/server"
	"repro/internal/stream"
)

// summary is the part of a plan answer the oracle checks.
type summary struct {
	Emitted     int
	TotalCycles int
	TotalInputs int64
	TotalWaste  int64
	Passes      []server.PassSummary
}

// oracle plans each spec in-process with the repository's core/stream
// packages and memoises the expected answer per spec.
type oracle struct {
	cache *plancache.Cache
	mu    sync.Mutex
	memo  map[int]summary
}

func newOracle() *oracle {
	return &oracle{cache: plancache.New(planCacheCap), memo: map[int]summary{}}
}

// engineFor builds the stateless engine a request describes, planning
// through cache.
func engineFor(req server.PlanRequest, cache *plancache.Cache) (*core.Engine, error) {
	target, err := ratio.Parse(req.Ratio)
	if err != nil {
		return nil, err
	}
	sch := stream.MMS
	if req.Scheduler == "SRS" {
		sch = stream.SRS
	}
	return core.New(core.Config{
		Target:    target,
		Algorithm: core.MM,
		Scheduler: sch,
		Mixers:    req.Mixers,
		Storage:   req.Storage,
		PlanCache: cache,
	})
}

func summarize(res *stream.Result) summary {
	s := summary{
		Emitted:     res.Emitted,
		TotalCycles: res.TotalCycles,
		TotalInputs: res.TotalInputs,
		TotalWaste:  res.TotalWaste,
	}
	for _, p := range res.Passes {
		s.Passes = append(s.Passes, server.PassSummary{
			Demand: p.Demand, Cycles: p.Schedule.Cycles, Storage: p.Storage, StartCycle: p.StartCycle,
		})
	}
	return s
}

func (o *oracle) expect(w *Workload, spec int) (summary, error) {
	o.mu.Lock()
	s, ok := o.memo[spec]
	o.mu.Unlock()
	if ok {
		return s, nil
	}
	req := w.Specs[spec]
	eng, err := engineFor(req, o.cache)
	if err != nil {
		return summary{}, err
	}
	b, err := eng.Request(req.Demand)
	if err != nil {
		return summary{}, fmt.Errorf("oracle %s: %w", specKey(req), err)
	}
	s = summarize(b.Result)
	o.mu.Lock()
	o.memo[spec] = s
	o.mu.Unlock()
	return s, nil
}

// prefetch plans every spec the streams use on one worker per CPU, so
// verifying a window of cold plans takes a fraction of the window. Errors
// are left for expect to report in order.
func (o *oracle) prefetch(w *Workload, streams [][]Request) {
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range next {
				o.expect(w, spec) // a failing spec fails again, in order, in check
			}
		}()
	}
	seen := map[int]bool{}
	for _, s := range streams {
		for _, r := range s {
			if !seen[r.Spec] {
				seen[r.Spec] = true
				next <- r.Spec
			}
		}
	}
	close(next)
	wg.Wait()
}

// verdict is the outcome of checking one phase's answers.
type verdict struct {
	attempted, ok int
	problems      []string // the first few mismatches, for the report
}

func (v *verdict) fail(format string, args ...any) {
	if len(v.problems) < 8 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// checker verifies answers across the phases of one run. It carries the
// state that spans phases: each session's timeline end.
type checker struct {
	w       *Workload
	oracle  *oracle
	ends    map[string]int                    // session → last cycle of its latest batch
	batches map[string]int                    // session → ordinal of its latest batch
	parsed  map[*clientLog]map[int]parsedBody // distinct bodies, decoded once
}

type parsedBody struct {
	resp server.PlanResponse
	err  error
}

func newChecker(w *Workload) *checker {
	return &checker{
		w: w, oracle: newOracle(),
		ends: map[string]int{}, batches: map[string]int{},
		parsed: map[*clientLog]map[int]parsedBody{},
	}
}

// body decodes one distinct stored body of a client, once.
func (c *checker) body(l *clientLog, i int) (server.PlanResponse, error) {
	m := c.parsed[l]
	if m == nil {
		m = map[int]parsedBody{}
		c.parsed[l] = m
	}
	p, ok := m[i]
	if !ok {
		p.err = json.Unmarshal(l.bodies[i], &p.resp)
		m[i] = p
	}
	return p.resp, p.err
}

// check verifies every answer of a phase in each client's send order.
func (c *checker) check(ph *Phase, streams [][]Request) verdict {
	var sent [][]Request
	for ci, l := range ph.Clients {
		if n := len(l.resps); n > 0 {
			sent = append(sent, streams[ci][:min(n, len(streams[ci]))])
		}
	}
	c.oracle.prefetch(c.w, sent)
	var v verdict
	for ci, l := range ph.Clients {
		for _, r := range l.resps {
			v.attempted++
			req := streams[ci][r.Index%len(streams[ci])]
			if err := c.one(l, r, req); err != nil {
				v.fail("client %d request %d: %v", ci, r.Index, err)
				continue
			}
			v.ok++
		}
	}
	return v
}

func (c *checker) one(l *clientLog, r Response, req Request) error {
	if r.Body < 0 {
		return fmt.Errorf("no answer")
	}
	if r.Status != 200 {
		return fmt.Errorf("status %d: %s", r.Status, l.bodies[r.Body])
	}
	resp, err := c.body(l, r.Body)
	if err != nil {
		return fmt.Errorf("undecodable answer: %w", err)
	}
	want, err := c.oracle.expect(c.w, req.Spec)
	if err != nil {
		return err
	}
	got := summary{
		Emitted: resp.Emitted, TotalCycles: resp.TotalCycles,
		TotalInputs: resp.TotalInputs, TotalWaste: resp.TotalWaste, Passes: resp.Passes,
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("answer %+v differs from the in-process plan %+v", got, want)
	}
	if req.Session != "" {
		if req.Batch == 1 {
			// A new session, or a name that a wrapped stream reuses long
			// after the pool evicted it: its timeline starts afresh.
			delete(c.batches, req.Session)
			delete(c.ends, req.Session)
		}
		if resp.Session != req.Session {
			return fmt.Errorf("answer names session %q, want %q", resp.Session, req.Session)
		}
		if prev := c.batches[req.Session]; req.Batch != prev+1 {
			return fmt.Errorf("session %s batch %d follows batch %d", req.Session, req.Batch, prev)
		}
		if wantStart := c.ends[req.Session] + 1; resp.StartCycle != wantStart {
			return fmt.Errorf("session %s batch %d starts at cycle %d, want %d (previous batch ends at %d)",
				req.Session, req.Batch, resp.StartCycle, wantStart, wantStart-1)
		}
		c.batches[req.Session] = req.Batch
		c.ends[req.Session] = resp.StartCycle + resp.TotalCycles - 1
	}
	return nil
}
