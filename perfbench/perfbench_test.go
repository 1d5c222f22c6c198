package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/flpsim/flp/internal/distexplore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// A wrong expected value must surface as failed operations, per workload.

func TestSweepWrongExpectedFails(t *testing.T) {
	ex := sweepExplorer(1, countWant{count: sweepBudget - 1, exact: false})
	if err := ex.setup(0); err != nil {
		t.Fatal(err)
	}
	p := ex.pass(nil, 1)
	if p.ops != 1<<sweepN || p.failed != p.ops {
		t.Fatalf("wrong expected count: %d of %d roots failed, want all", p.failed, p.ops)
	}
	ok := sweepExplorer(1, sweepExpected)
	if err := ok.setup(0); err != nil {
		t.Fatal(err)
	}
	if p := ok.pass(nil, 1); p.failed != 0 || p.configs != (1<<sweepN)*sweepBudget {
		t.Fatalf("right expected count: %d failed, %d configs", p.failed, p.configs)
	}
}

func TestCensusWrongExpectedFails(t *testing.T) {
	rows := make([]explore.InitialValency, 16)
	counts := map[explore.Valency]int{}
	for i := range rows {
		v := []explore.Valency{explore.ZeroValent, explore.OneValent, explore.Bivalent}[i%3]
		rows[i].Info = explore.ValencyInfo{Valency: v, Exact: true, Complete: true, Visited: 10}
		counts[v]++
	}
	c := explore.InitialCensus{PerInput: rows, Counts: counts}
	right := censusWant{counts: counts, configs: 160}
	if f := checkCensus(c, nil, right, 16); f != 0 {
		t.Fatalf("matching census: %d roots failed", f)
	}
	wrongCounts := censusWant{counts: map[explore.Valency]int{explore.ZeroValent: 5, explore.OneValent: 5, explore.Bivalent: 6}, configs: 160}
	if f := checkCensus(c, nil, wrongCounts, 16); f != 16 {
		t.Fatalf("wrong tallies: %d roots failed, want 16", f)
	}
	wrongConfigs := censusWant{counts: counts, configs: 161}
	if f := checkCensus(c, nil, wrongConfigs, 16); f != 16 {
		t.Fatalf("wrong config total: %d roots failed, want 16", f)
	}
	if f := checkCensus(c, fmt.Errorf("boom"), right, 16); f != 16 {
		t.Fatalf("census error: %d roots failed, want 16", f)
	}
}

func TestClusterWrongExpectedFails(t *testing.T) {
	c, err := startCluster(distexplore.NewLoopback(), nil, "test", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	ins := model.AllInputs(sweepN)[:2]
	if p := clusterPass(c, ins, []int{1, 0}, sweepExpected, nil, 1, c.cks); p.failed != 0 {
		t.Fatalf("right expected count: %d of %d roots failed", p.failed, p.ops)
	}
	if p := clusterPass(c, ins, []int{0, 1}, countWant{count: sweepBudget, exact: true}, nil, 1, c.cks); p.failed != len(ins) {
		t.Fatalf("wrong expected exactness: %d of %d roots failed, want all", p.failed, p.ops)
	}
}

func TestServeWrongExpectedFails(t *testing.T) {
	key, err := buildAnswerKey()
	if err != nil {
		t.Fatal(err)
	}
	env, err := startServe(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()
	// One request of each class, answered by the real server.
	seen := map[string]bool{}
	for i := 0; len(seen) < len(streamClasses); i++ {
		r := genRequest(7, i)
		if seen[r.class] {
			continue
		}
		seen[r.class] = true
		if rec := env.do(r, key, nil); rec.err != nil {
			t.Fatalf("%s request %d: %v", r.class, i, rec.err)
		}
		// The same answer checked against a corrupted key must fail.
		bad := &answerKey{roots: map[string]explore.ValencyInfo{}, adversary: map[string]advWant{}}
		for k, v := range key.roots {
			v.Visited++
			bad.roots[k] = v
		}
		for k, v := range key.adversary {
			v.steps++
			bad.adversary[k] = v
		}
		if rec := env.do(r, bad, nil); rec.err == nil {
			t.Fatalf("%s request %d passed against a wrong answer key", r.class, i)
		}
	}
	lr := loopResult{recs: []served{{err: nil, lat: 1}, {err: fmt.Errorf("wrong")}}, wall: 1}
	if _, attempted, failed := serveMetrics(lr, 0); attempted != 2 || failed != 1 {
		t.Fatalf("serveMetrics counted %d attempted, %d failed; want 2, 1", attempted, failed)
	}
}

// The untraced cluster run must measure the engine as flpcluster runs it:
// no CheckpointHook (it forces a synchronous checkpoint flush) and no visit
// callback (it makes the coordinator materialize every configuration).

func TestClusterTaskHasNoHook(t *testing.T) {
	task := clusterTask(model.AllInputs(sweepN)[0], nil)
	if task.CheckpointHook != nil || task.Resume {
		t.Fatal("cluster task sets a CheckpointHook or Resume")
	}
	if task.Replicas != 0 || task.Shards != clusterShards || task.Options.MaxConfigs != sweepBudget {
		t.Fatalf("cluster task = %+v, want default replication, %d shards, budget %d", task, clusterShards, sweepBudget)
	}
}

func TestClusterCallsHaveNoVisit(t *testing.T) {
	// Cluster.Explore is the only entry that takes a visit callback; the
	// benchmark must reach the cluster through CountReachable alone.
	explicit := regexp.MustCompile(`\.cl\.Explore\(|Cluster\)\.Explore`)
	for _, f := range []string{"explorers.go", "layers.go", "serveload.go", "main.go"} {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if explicit.Match(src) {
			t.Fatalf("%s calls Cluster.Explore; use CountReachable", f)
		}
		if f == "explorers.go" && !strings.Contains(string(src), "c.cl.CountReachable(clusterTask(") {
			t.Fatalf("%s no longer reaches the cluster through CountReachable", f)
		}
	}
}

func TestCountingTransportForwardsInProcess(t *testing.T) {
	if !(&countingTransport{inner: distexplore.NewLoopback()}).InProcess() {
		t.Fatal("counting transport around the loopback does not report InProcess")
	}
	if (&countingTransport{inner: distexplore.TCP{}}).InProcess() {
		t.Fatal("counting transport around TCP reports InProcess")
	}
	// Offering compression through the wrapper must leave frames plain, as
	// on the bare loopback: the bytes counted equal those of a run that
	// never offered it.
	bytesFor := func(opt distexplore.RPCOptions) int64 {
		lb := distexplore.NewLoopback()
		wire := &countingTransport{inner: lb}
		c, err := startCluster(lb, wire, "cmp", "")
		if err != nil {
			t.Fatal(err)
		}
		defer c.stop()
		cl, err := distexplore.Dial(wire, []string{c.lis[0].Addr(), c.lis[1].Addr()}, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		before := wire.snapshot()
		if _, _, err := cl.CountReachable(clusterTask(model.AllInputs(sweepN)[3], nil)); err != nil {
			t.Fatal(err)
		}
		return wire.snapshot().bytes - before.bytes
	}
	plain, offered := bytesFor(distexplore.RPCOptions{}), bytesFor(distexplore.RPCOptions{Compress: true})
	if plain != offered {
		t.Fatalf("wire bytes %d plain vs %d with compression offered: compression was negotiated", plain, offered)
	}
}

// Seeded generators.

func TestStreamIsSeeded(t *testing.T) {
	dump := func(seed int64) string {
		var b bytes.Buffer
		st := &stream{seed: seed, end: 500}
		for i := 0; i < 500; i++ {
			r, _ := st.take()
			fmt.Fprintf(&b, "%s %s %s\n", r.class, r.path, r.body)
		}
		return b.String()
	}
	if dump(3) != dump(3) {
		t.Fatal("the same seed gave two different streams")
	}
	if dump(3) == dump(4) {
		t.Fatal("different seeds gave the same stream")
	}
	for i := 0; i < 60; i++ {
		a, b := genRequest(5, i), (&stream{seed: 5, next: i, end: 60})
		if got, ok := b.take(); !ok || got.class != a.class || !bytes.Equal(got.body, a.body) {
			t.Fatalf("request %d differs between genRequest and a stream started there", i)
		}
	}
	st := &stream{seed: 5, end: 2}
	st.take()
	st.take()
	if _, ok := st.take(); ok {
		t.Fatal("the stream ran past its end")
	}
}

func TestServeRequestsWholeBlocks(t *testing.T) {
	for _, secs := range []float64{1, 10, 20, 60} {
		n := serveRequests(secs)
		if n%streamBlock != 0 || n < minServeRequests {
			t.Fatalf("%v s: %d requests, want whole blocks and at least %d", secs, n, minServeRequests)
		}
	}
	if serveRequests(20) != serveRequests(20) || serveRequests(60) <= serveRequests(20) {
		t.Fatal("the request count is not a function of the measured seconds")
	}
}

func TestStreamClassesPresentThroughout(t *testing.T) {
	const n = 4000
	st := &stream{seed: 11, end: n}
	budgets := map[int]bool{}
	names := map[string]bool{}
	window := map[string]int{}
	for i := 0; i < n; i++ {
		r, _ := st.take()
		window[r.class]++
		protocol, budget := "", 0
		if r.census != nil {
			protocol, budget = r.census.Protocol, r.census.Budget
		} else if r.val != nil {
			protocol, budget = r.val.Protocol, r.val.Budget
		}
		switch r.class {
		case classStoreRead:
			// A persisted lineage at a budget no earlier request used.
			if budgets[budget] || budget <= explore.DefaultMaxConfigs || protocol == writeBase.protocol {
				t.Fatalf("store read %d reuses budget %d, is not above the default or names the write base", i, budget)
			}
			budgets[budget] = true
		case classStoreWrite:
			// A lineage no earlier request named, late in the run as early.
			if names[protocol] || protocol == writeBase.protocol || r.answers != writeBase {
				t.Fatalf("store write %d names a lineage asked before", i)
			}
			names[protocol] = true
		}
		if (i+1)%(n/20) == 0 {
			for _, c := range streamClasses {
				if window[c] == 0 {
					t.Fatalf("class %s absent from requests %d..%d", c, i+1-n/20, i)
				}
			}
			window = map[string]int{}
		}
	}
}

// Late in a run, each class still takes its own path through the server:
// a store read hits the store, a store write misses it and writes an
// artifact, a hit touches neither.
func TestServeClassPathsLateInStream(t *testing.T) {
	key, err := buildAnswerKey()
	if err != nil {
		t.Fatal(err)
	}
	env, err := startServe(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()
	if err := env.warm(); err != nil {
		t.Fatal(err)
	}
	const late = 160 // a block past the end of a 20-second run's stream
	for i := late * streamBlock; i < (late+1)*streamBlock; i++ {
		r := genRequest(3, i)
		if r.class == classAdversary {
			continue
		}
		before, err := env.scrape("flpserve_atlas_store_ops_total")
		if err != nil {
			t.Fatal(err)
		}
		if rec := env.do(r, key, nil); rec.err != nil {
			t.Fatalf("%s request %d: %v", r.class, i, rec.err)
		}
		after, err := env.scrape("flpserve_atlas_store_ops_total")
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := after["hit"]-before["hit"], after["miss"]-before["miss"]
		switch {
		case r.class == classHit && (hits != 0 || misses != 0):
			t.Fatalf("hit request %d reached the store: %v hits, %v misses", i, hits, misses)
		case r.class == classStoreRead && (hits == 0 || misses != 0):
			t.Fatalf("store read %d: %v hits, %v misses; want only hits", i, hits, misses)
		case r.class == classStoreWrite && (misses == 0 || hits != 0):
			t.Fatalf("store write %d: %v hits, %v misses; want only misses", i, hits, misses)
		}
	}
}

func TestModelSampleIsSeeded(t *testing.T) {
	keys := func(seed int64) string {
		_, sample, err := modelSample("serve", newRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, c := range sample {
			b.WriteString(c.Key())
		}
		return b.String()
	}
	if keys(1) != keys(1) {
		t.Fatal("the same seed gave two different samples")
	}
	if keys(1) == keys(2) {
		t.Fatal("different seeds gave the same sample")
	}
}

// Harness.

func TestConcurrencyGuard(t *testing.T) {
	if err := checkConcurrency(1); err == nil {
		t.Fatal("one CPU accepted for two clients and two workers")
	}
	if err := checkConcurrency(2); err != nil {
		t.Fatal(err)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "census", "--seconds", "0"},
		{"--workload", "census", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Fatalf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestResultLineShape(t *testing.T) {
	b, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {0.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 || m["correct"] == nil || m["attempted"] == nil || m["failed"] == nil || m["metrics"] == nil {
		t.Fatalf("result keys = %s", b)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	for _, s := range tr.summarize() {
		if s.Name == "parent" && math.Abs(s.SelfMS*1e6-40) > 1e-6 {
			t.Fatalf("parent self time %vns, want 40ns", s.SelfMS*1e6)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0); id != 0 {
		t.Fatal("nil tracer recorded a span")
	}
	nilTracer.end(0)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// genRequest returns request i of the stream for seed.
func genRequest(seed int64, i int) request { return genBlock(seed, i/streamBlock)[i%streamBlock] }
