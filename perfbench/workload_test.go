package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// Two seeds must give different request sequences with the same designed
// statistics, and one seed the same sequence every time.
func TestSeedsChangeRequestsNotStatistics(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := Generate(name, 1, 2, 3000)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Generate(name, 2, 2, 3000)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Generate(name, 1, 2, 3000)
			if err != nil {
				t.Fatal(err)
			}
			if sameStream(a, b) {
				t.Errorf("seeds 1 and 2 generate the same timed requests")
			}
			if !sameStream(a, again) {
				t.Errorf("seed 1 generates different timed requests on a second call")
			}
			sa, sb := a.Stats(), b.Stats()
			t.Logf("seed 1 %+v, seed 2 %+v", sa, sb)
			switch name {
			case "plan-hot":
				if sa.HotSetSize != hotSetSize || sb.HotSetSize != hotSetSize {
					t.Errorf("hot set sizes %d and %d, want %d", sa.HotSetSize, sb.HotSetSize, hotSetSize)
				}
				if sa.MissShare != 0 || sb.MissShare != 0 {
					t.Errorf("plan-hot timed requests outside the warmed hot set: miss shares %v, %v", sa.MissShare, sb.MissShare)
				}
			case "plan-cold":
				want := 1 - 1.0/coldRepeatEvery
				for _, s := range []Stats{sa, sb} {
					if math.Abs(s.MissShare-want) > 0.03 {
						t.Errorf("miss share %.4f, want %.2f±0.03", s.MissShare, want)
					}
					if math.Abs(s.StorageShare-want/coldStorageEvery) > 0.03 {
						t.Errorf("storage-limited share %.4f, want %.4f±0.03", s.StorageShare, want/coldStorageEvery)
					}
					if s.DistinctKeys < planCacheCap*4 {
						t.Errorf("%d distinct keys, want many times the plan cache", s.DistinctKeys)
					}
				}
			case "session-stream":
				if sa.SessionsInFlight != sb.SessionsInFlight || sa.SessionsInFlight != 2*sessionsInFlight {
					t.Errorf("sessions in flight %d and %d, want %d", sa.SessionsInFlight, sb.SessionsInFlight, 2*sessionsInFlight)
				}
				if sa.Sessions <= sessionPool || sb.Sessions <= sessionPool {
					t.Errorf("%d and %d sessions, want more than the pool holds (%d)", sa.Sessions, sb.Sessions, sessionPool)
				}
			}
		})
	}
}

// The seed draws ratios and demands, not plan shapes: every seed's
// plan-hot hot set and session-stream configurations hold each shape the
// same number of times, so two seeds cost the server the same per request.
func TestSeedsKeepTheShapeMix(t *testing.T) {
	for _, name := range []string{"plan-hot", "session-stream"} {
		var mixes []map[shape]int
		for seed := int64(1); seed <= 3; seed++ {
			w, err := Generate(name, seed, 2, 3000)
			if err != nil {
				t.Fatal(err)
			}
			mix := map[shape]int{}
			for _, s := range w.Specs {
				mix[shape{strings.Count(s.Ratio, ":") + 1, bitsLen(s.Ratio), s.Mixers, s.Scheduler}]++
			}
			mixes = append(mixes, mix)
		}
		if len(mixes[0]) < 48 {
			t.Errorf("%s: %d shapes, want at least 48", name, len(mixes[0]))
		}
		for i := 1; i < len(mixes); i++ {
			if !reflect.DeepEqual(mixes[0], mixes[i]) {
				t.Errorf("%s: seeds 1 and %d differ in their shape mix:\n%v\n%v", name, i+1, mixes[0], mixes[i])
			}
		}
	}
}

func sameStream(a, b *Workload) bool {
	for c := range a.Timed {
		if len(a.Timed[c]) != len(b.Timed[c]) {
			return false
		}
		for i := range a.Timed[c] {
			if !bytes.Equal(a.Raw(a.Timed[c][i]), b.Raw(b.Timed[c][i])) {
				return false
			}
		}
	}
	return true
}

// No generated request may fail: every spec plans in process, including
// plan-cold's storage-limited ones.
func TestEveryGeneratedSpecPlans(t *testing.T) {
	for _, name := range workloadNames {
		for seed := int64(1); seed <= 3; seed++ {
			w, err := Generate(name, seed, 2, 1000)
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle()
			for i := range w.Specs {
				if _, err := o.expect(w, i); err != nil {
					t.Errorf("%s seed %d: %v", name, seed, err)
				}
			}
		}
	}
}

// Every session numbers its batches contiguously from 1, and set-up is
// the start of the same per-client stream.
func TestSessionBatchesAreContiguous(t *testing.T) {
	w, err := Generate("session-stream", 7, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]int{}
	for c := range w.Warm {
		for _, r := range append(append([]Request{}, w.Warm[c]...), w.Timed[c]...) {
			if r.Batch != last[r.Session]+1 {
				t.Fatalf("client %d: session %s batch %d after %d", c, r.Session, r.Batch, last[r.Session])
			}
			last[r.Session] = r.Batch
		}
	}
}

// Every timed stream wraps when a fast run uses it up. Before a plan-cold
// key comes round again, more distinct keys must pass than the plan cache
// and the demand-scan memo hold, so the key is planned and scanned from
// scratch again. Before a session-stream name comes round again, far more
// sessions must open than the pool holds, so the name starts afresh.
func TestStreamsWrapWithoutHits(t *testing.T) {
	cold, err := Generate("plan-cold", 3, 2, timedPerClient("plan-cold"))
	if err != nil {
		t.Fatal(err)
	}
	for c, reqs := range cold.Timed {
		keys, scans := map[int]bool{}, map[int]bool{}
		for _, r := range reqs {
			keys[r.Spec] = true
			if cold.Specs[r.Spec].Storage > 0 {
				scans[r.Spec] = true
			}
		}
		if len(keys) < 16*planCacheCap || len(scans) <= scanMemoCap {
			t.Errorf("plan-cold client %d: a cycle holds %d distinct keys and %d storage-limited ones; want at least %d and more than %d",
				c, len(keys), len(scans), 16*planCacheCap, scanMemoCap)
		}
	}
	sess, err := Generate("session-stream", 3, 2, timedPerClient("session-stream"))
	if err != nil {
		t.Fatal(err)
	}
	for c, reqs := range sess.Timed {
		names := map[string]bool{}
		for _, r := range reqs {
			names[r.Session] = true
		}
		if len(names) < 16*sessionPool {
			t.Errorf("session-stream client %d: a cycle opens %d sessions, want at least %d", c, len(names), 16*sessionPool)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := quartiles([]float64{3, 1, 2}); got != [3]float64{1, 2, 3} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics("plancache.hits 12\nplancache.entries 3\nserver.latency_ms.plan count=4 mean=0.25 min=0.1 max=0.5\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.values["plancache.hits"] != 12 || m.values["plancache.entries"] != 3 {
		t.Errorf("values %v", m.values)
	}
	if h := m.hists["server.latency_ms.plan"]; h.count != 4 || h.sum != 1 {
		t.Errorf("histogram %+v", h)
	}
	d := delta(m, metrics{values: map[string]float64{"plancache.hits": 20}, hists: map[string]hist{"server.latency_ms.plan": {count: 6, sum: 2}}})
	if d.values["plancache.hits"] != 8 || d.mean("server.latency_ms.plan") != 0.5 {
		t.Errorf("delta %+v", d)
	}
}

// BENCHMARK.json must declare exactly the metrics a run reports, with the
// same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEndUnits))
	}
	for _, m := range b.EndToEnd {
		if u, ok := endToEndUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s %s: the benchmark reports unit %q", m.Name, m.Unit, u)
		}
	}
	if len(b.PerLayer) != len(perLayerNames) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(perLayerNames))
	}
	for i, m := range b.PerLayer {
		if i < len(perLayerNames) && (m.Name != perLayerNames[i] || m.Unit != layerUnit(m.Name)) {
			t.Errorf("per-layer %d is %s %s, the benchmark reports %s %s", i, m.Name, m.Unit, perLayerNames[i], layerUnit(perLayerNames[i]))
		}
	}
	for _, wl := range b.Workloads {
		if _, err := Generate(wl.Name, 1, 2, 10); err != nil {
			t.Errorf("workload %s: %v", wl.Name, err)
		}
	}
}
