package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/server"
)

// The three workloads. Each is stationary: its per-request work does not
// drift over the timed window, and every run starts from a fresh process
// and fresh temporary directories, so a seed fixes the whole run.
//
//   - plan-hot: stateless /v1/plan over a small hot set that set-up warms.
//     Every timed request hits the plan cache, so the HTTP/JSON edge, the
//     server's admission and single-flight, core.New and plan-cache reads
//     are all the work there is. It bypasses the kernel entirely.
//   - plan-cold: stateless /v1/plan over a key space far larger than the
//     plan cache (1024) and the base-graph LRU (256). A quarter of the
//     requests repeat a small warm set; the rest are keys never seen
//     before, so base-graph builds, the packed kernel, the audit and
//     plan-cache insert+evict dominate. One request in eight is
//     storage-limited and runs the multi-pass demand scan.
//   - session-stream: session-routed /v1/plan, the demand-driven droplet
//     stream. Each client keeps a few sessions in flight and retires each
//     after a fixed number of batches, so session create/evict and timeline
//     continuity are steady state while the pool (128) stays bounded. It
//     runs without -wal: fsync'd appends made every figure of a WAL
//     workload follow the host's disk rather than the program (README.md).
var workloadNames = []string{"plan-hot", "plan-cold", "session-stream"}

const (
	planCacheCap = 1024 // plancache.DefaultCapacity
	scanMemoCap  = 4096 // the demand-scan memo's capacity in package stream
	sessionPool  = 128  // dmfbd -sessions default

	hotSetSize  = 96   // plan-hot keys: every hot shape once
	warmSetSize = 32   // plan-cold's warm repeat set
	hotWarmup   = 2048 // plan-hot set-up requests after each key is planned once
	hotTimed    = 8192 // plan-hot timed requests per client, cyclic

	coldRepeatEvery  = 4    // plan-cold: one request in four repeats the warm set
	coldStorageEvery = 8    // plan-cold: one request in eight is storage-limited
	coldWarmup       = 1536 // plan-cold set-up requests: fills the plan cache past capacity
	// coldTimed is plan-cold's cyclic timed stream per client. Each cycle
	// holds more distinct storage-limited keys than the demand-scan memo,
	// and far more keys than the plan cache and the base-graph LRU, so a
	// key that comes round again finds none of its work cached.
	coldTimed = 1 << 16

	sessionsInFlight = 4    // live sessions per client
	batchesPerSess   = 4    // batches before a session retires
	sessionWarmup    = 2048 // set-up requests: the pool is full and evicting after them
	// sessionTimed is session-stream's cyclic timed stream per client. A
	// cycle opens far more sessions than the pool holds, so a session name
	// that comes round again was evicted long before and starts afresh.
	sessionTimed = 1 << 16
)

// timedPerClient is the length of each client's timed stream. Every
// stream wraps, so its length does not depend on the window.
func timedPerClient(workload string) int {
	switch workload {
	case "plan-hot":
		return hotTimed
	case "plan-cold":
		return coldTimed
	default:
		return sessionTimed
	}
}

// Request is one generated /v1/plan request.
type Request struct {
	Spec    int    // index into Workload.Specs
	Session string // non-empty for session-routed requests
	Batch   int    // 1-based batch ordinal within the session
}

// Workload is the complete, seeded input of one run. The server sees only
// the generated requests.
type Workload struct {
	Name     string
	Seed     int64
	Sessions bool                 // requests are session-routed
	Specs    []server.PlanRequest // distinct stateless specs (Demand included)
	Warm     [][]Request          // per client: set-up traffic
	// Timed is each client's timed stream. It wraps when a fast run uses
	// it up: plan-hot draws its keys uniformly, and plan-cold's keys and
	// session-stream's sessions are evicted long before they come round,
	// so wrapping changes nothing.
	Timed [][]Request
	raws  [][]byte // per spec: the stateless request's HTTP/1.1 bytes
}

// Stats are the properties a workload is designed to have; the self-check
// test compares them across seeds.
type Stats struct {
	DistinctKeys     int     // distinct stateless plan keys in the timed stream
	HotSetSize       int     // plan-hot: keys in the hot set
	MissShare        float64 // plan-cold: timed requests whose key was never requested before
	StorageShare     float64 // share of storage-limited timed requests
	SessionsInFlight int     // session-stream: live sessions at any time
	Sessions         int     // session-stream: distinct sessions in the timed stream
}

// genRatio draws a target ratio whose parts sum to 2^k. At least one part
// is odd, so the ratio is irreducible and every distinct string is a
// distinct base graph.
func genRatio(rng *rand.Rand, minParts, maxParts, minK, maxK int) string {
	for {
		n := minParts + rng.Intn(maxParts-minParts+1)
		sum := 1 << (minK + rng.Intn(maxK-minK+1))
		cuts := map[int]bool{}
		for len(cuts) < n-1 {
			cuts[1+rng.Intn(sum-1)] = true
		}
		pos := make([]int, 0, n+1)
		pos = append(pos, 0)
		for c := range cuts {
			pos = append(pos, c)
		}
		pos = append(pos, sum)
		sort.Ints(pos)
		parts := make([]string, n)
		odd := false
		for i := 0; i < n; i++ {
			p := pos[i+1] - pos[i]
			odd = odd || p%2 == 1
			parts[i] = strconv.Itoa(p)
		}
		if odd {
			return strings.Join(parts, ":")
		}
	}
}

func genScheduler(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return "MMS"
	}
	return "SRS"
}

// genMixers draws the mixer count; 0 selects Mlb of the MM tree.
func genMixers(rng *rand.Rand) int { return []int{0, 2, 3, 4}[rng.Intn(4)] }

// specKey canonicalizes a spec for de-duplication.
func specKey(s server.PlanRequest) string {
	return fmt.Sprintf("%s|%s|m%d|q%d|d%d", s.Ratio, s.Scheduler, s.Mixers, s.Storage, s.Demand)
}

// rawRequest renders the HTTP/1.1 bytes of POST /v1/plan with body.
func rawRequest(body []byte) []byte {
	head := fmt.Sprintf("POST /v1/plan HTTP/1.1\r\nHost: dmfbd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	return append([]byte(head), body...)
}

// Body returns the JSON body of r.
func (w *Workload) Body(r Request) []byte {
	req := w.Specs[r.Spec]
	req.Session = r.Session
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // PlanRequest always marshals
	}
	return body
}

// Raw returns the HTTP/1.1 bytes of r. Stateless requests share one
// rendering per spec; a session request is rendered when it is sent.
func (w *Workload) Raw(r Request) []byte {
	if r.Session == "" {
		return w.raws[r.Spec]
	}
	return rawRequest(w.Body(r))
}

// addSpec appends s unless an identical spec exists, returning its index.
func (w *Workload) addSpec(index map[string]int, s server.PlanRequest) int {
	k := specKey(s)
	if i, ok := index[k]; ok {
		return i
	}
	index[k] = len(w.Specs)
	w.Specs = append(w.Specs, s)
	return len(w.Specs) - 1
}

// Generate builds the seeded workload for clients closed-loop clients.
// timedPerClient bounds the pre-generated timed stream of each client.
func Generate(name string, seed int64, clients, timedPerClient int) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(len(name))))
	w := &Workload{Name: name, Seed: seed}
	w.Warm = make([][]Request, clients)
	w.Timed = make([][]Request, clients)
	index := map[string]int{}
	switch name {
	case "plan-hot":
		hot := w.hotSet(rng, index, hotSetSize)
		for i, s := range hot {
			w.Warm[i%clients] = append(w.Warm[i%clients], Request{Spec: s})
		}
		for c := 0; c < clients; c++ {
			for i := 0; i < hotWarmup/clients; i++ {
				w.Warm[c] = append(w.Warm[c], Request{Spec: hot[rng.Intn(len(hot))]})
			}
			for i := 0; i < timedPerClient; i++ {
				w.Timed[c] = append(w.Timed[c], Request{Spec: hot[rng.Intn(len(hot))]})
			}
		}
	case "plan-cold":
		hot := w.hotSet(rng, index, warmSetSize)
		seen := map[string]bool{}
		cold := func() int {
			for {
				s := server.PlanRequest{
					Ratio:     genRatio(rng, 3, 7, 5, 7),
					Demand:    32 + rng.Intn(225),
					Mixers:    genMixers(rng),
					Scheduler: genScheduler(rng),
				}
				if rng.Intn(coldStorageEvery) == 0 {
					// A multi-pass plan: the storage budget caps a pass at
					// D' < D. log2(sum)+1 units always fit a two-droplet
					// pass of these trees (checked by the self-test).
					s.Storage = bitsLen(s.Ratio) + 1 + rng.Intn(3)
				}
				if !seen[s.Ratio] {
					seen[s.Ratio] = true
					return w.addSpec(index, s)
				}
			}
		}
		draw := func() int {
			if rng.Intn(coldRepeatEvery) == 0 {
				return hot[rng.Intn(len(hot))]
			}
			return cold()
		}
		for i, s := range hot {
			w.Warm[i%clients] = append(w.Warm[i%clients], Request{Spec: s})
		}
		for c := 0; c < clients; c++ {
			for i := 0; i < coldWarmup/clients; i++ {
				w.Warm[c] = append(w.Warm[c], Request{Spec: draw()})
			}
		}
		for i := 0; i < timedPerClient; i++ {
			for c := 0; c < clients; c++ {
				w.Timed[c] = append(w.Timed[c], Request{Spec: draw()})
			}
		}
	case "session-stream":
		w.Sessions = true
		w.genSessions(rng, index, clients, timedPerClient)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	w.raws = make([][]byte, len(w.Specs))
	for i := range w.Specs {
		w.raws[i] = rawRequest(w.Body(Request{Spec: i}))
	}
	return w, nil
}

// shape is the part of a spec the seed does not choose: the number of
// ratio parts, log2 of their sum, the mixer count (0 selects Mlb of the MM
// tree) and the scheduler. Plan size, and so per-request cost, follows the
// shape far more than the particular ratio, so workloads walk a fixed list
// of shapes and the seed draws only the ratios and demands. Every seed then
// asks for the same mix of plan sizes, and two seeds cost the server the
// same per request.
type shape struct {
	parts, bits, mixers int
	sched               string
}

// shapes lists every shape with parts in [p0, p1] and bits in [b0, b1],
// each with every mixer count and both schedulers, in a fixed order.
func shapes(p0, p1, b0, b1 int) []shape {
	var out []shape
	for _, sched := range []string{"MMS", "SRS"} {
		for _, mixers := range []int{0, 2, 3, 4} {
			for bits := b0; bits <= b1; bits++ {
				for parts := p0; parts <= p1; parts++ {
					out = append(out, shape{parts, bits, mixers, sched})
				}
			}
		}
	}
	return out
}

// hotSet draws n distinct storage-unlimited stateless specs over the hot
// shapes. It steps through them by a stride coprime to their count, so
// each lap visits every shape once and a set shorter than a lap still
// mixes schedulers, mixer counts and sizes.
func (w *Workload) hotSet(rng *rand.Rand, index map[string]int, n int) []int {
	sh := shapes(3, 6, 4, 6)
	out := make([]int, 0, n)
	have := map[int]bool{}
	for len(out) < n {
		x := sh[len(out)*37%len(sh)]
		s := w.addSpec(index, server.PlanRequest{
			Ratio:     genRatio(rng, x.parts, x.parts, x.bits, x.bits),
			Demand:    8 + rng.Intn(33),
			Mixers:    x.mixers,
			Scheduler: x.sched,
		})
		if !have[s] {
			have[s] = true
			out = append(out, s)
		}
	}
	return out
}

// genSessions builds the per-client session streams. Each engine
// configuration has one seeded ratio per session shape, and sessions take
// the configurations in turn. A session asks for each of a few demands
// once, from a seeded starting point, so every plan is a cache hit after
// set-up and the window's cost is the session lifecycle and the timeline.
// Each client keeps sessionsInFlight sessions and retires each after
// batchesPerSess batches for a fresh one; set-up is the start of the same
// stream.
func (w *Workload) genSessions(rng *rand.Rand, index map[string]int, clients, timedPerClient int) {
	demands := []int{6, 10, 16, 20}
	// specs[c][d] is the spec of configuration c at demand demands[d].
	var specs [][]int
	for _, x := range shapes(3, 5, 4, 5) {
		ratio := genRatio(rng, x.parts, x.parts, x.bits, x.bits)
		var ds []int
		for _, d := range demands {
			ds = append(ds, w.addSpec(index, server.PlanRequest{Ratio: ratio, Demand: d, Mixers: x.mixers, Scheduler: x.sched}))
		}
		specs = append(specs, ds)
	}
	type live struct {
		name  string
		cfg   int
		first int // index into demands of the first batch's demand
		batch int // batches issued so far
	}
	prefix := fmt.Sprintf("s%d-", w.Seed)
	serial := 0
	newSession := func() *live {
		serial++
		return &live{name: prefix + strconv.Itoa(serial), cfg: serial % len(specs), first: rng.Intn(len(demands))}
	}
	issue := func(l *live) Request {
		r := Request{Spec: specs[l.cfg][(l.first+l.batch)%len(demands)], Session: l.name, Batch: l.batch + 1}
		l.batch++
		return r
	}
	for c := 0; c < clients; c++ {
		warm := sessionWarmup / clients
		slots := make([]*live, sessionsInFlight)
		stream := make([]Request, 0, warm+timedPerClient)
		for i := 0; len(stream) < warm+timedPerClient; i++ {
			k := i % sessionsInFlight
			if slots[k] == nil || slots[k].batch == batchesPerSess {
				slots[k] = newSession()
			}
			stream = append(stream, issue(slots[k]))
		}
		w.Warm[c], w.Timed[c] = stream[:warm], stream[warm:]
	}
}

// bitsLen returns log2 of a ratio's part sum.
func bitsLen(ratio string) int {
	sum := 0
	for _, p := range strings.Split(ratio, ":") {
		v, _ := strconv.Atoi(p)
		sum += v
	}
	n := 0
	for sum > 1 {
		sum >>= 1
		n++
	}
	return n
}

// Stats computes the designed properties of the timed stream.
func (w *Workload) Stats() Stats {
	var st Stats
	seen := map[int]bool{}
	for _, reqs := range w.Warm {
		for _, r := range reqs {
			seen[r.Spec] = true
		}
	}
	distinct := map[int]bool{}
	sessions := map[string]bool{}
	n, fresh, storage := 0, 0, 0
	for i := 0; ; i++ {
		any := false
		for _, reqs := range w.Timed {
			if i >= len(reqs) {
				continue
			}
			any = true
			r := reqs[i]
			n++
			distinct[r.Spec] = true
			if !seen[r.Spec] {
				fresh++
				seen[r.Spec] = true
			}
			if w.Specs[r.Spec].Storage > 0 {
				storage++
			}
			if r.Session != "" {
				sessions[r.Session] = true
			}
		}
		if !any {
			break
		}
	}
	st.DistinctKeys = len(distinct)
	if w.Name == "plan-hot" {
		st.HotSetSize = len(distinct)
	}
	if n > 0 {
		st.MissShare = float64(fresh) / float64(n)
		st.StorageShare = float64(storage) / float64(n)
	}
	if w.Sessions {
		st.SessionsInFlight = sessionsInFlight * len(w.Timed)
		st.Sessions = len(sessions)
	}
	return st
}
