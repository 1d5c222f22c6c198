package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/distexplore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// The layer suite runs in every traced run, after the traced workload. Each
// section calls one layer's public functions on the inputs of the workload
// its metrics belong to (README.md has the table), so every traced run
// prints every per-layer metric. Sizes are cut to keep a traced run short.
const (
	layerSampleConfigs = 1500 // model sample: reached configurations
	layerApplyRounds   = 5    // Apply/Hash/Intern rounds over the sample
	layerAtlasRoots    = 4    // census roots given to BuildAtlas and ExploreFiltered
	layerClusterRoots  = 8    // sweep roots given to the cluster
	layerCkPairs       = 3    // interleaved with/without checkpoint pairs
	layerCkRoots       = 4    // roots per checkpoint pair pass
	layerServeRequests = 500  // requests of the serve stream (20 blocks)
	wideLevel          = 256  // a level with at least this many nodes is wide
)

// suiteCounts tallies the answers the layer suite checks.
type suiteCounts struct{ attempted, failed int }

func (s *suiteCounts) check(ok bool) {
	s.attempted++
	if !ok {
		s.failed++
	}
}

// runLayerSuite measures every layer and adds the per-layer metrics to out.
func runLayerSuite(cfg runConfig, tr *tracer, out map[string]metric) (attempted, failed int, err error) {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x1a7e5))
	var sc suiteCounts
	var levels [][]levelTiming // per sweep root, shared by the level and cluster sections
	sections := []struct {
		name string
		run  func() error
	}{
		{"model", func() error { return modelLayer(cfg.workload, rng, tr, out) }},
		{"explore", func() error { return exploreLayer(rng, tr, out, &sc) }},
		{"levels", func() (err error) { levels, err = levelLayer(tr, out); return err }},
		{"distexplore", func() error { return distLayer(cfg, rng, tr, levels, out, &sc) }},
		{"serve", func() error { return serveLayer(cfg, tr, out, &sc) }},
	}
	for _, s := range sections {
		t0 := time.Now()
		if err := s.run(); err != nil {
			return 0, 0, fmt.Errorf("layer suite, %s: %w", s.name, err)
		}
		fmt.Fprintf(cfg.log, "layer suite: %s in %s\n", s.name, time.Since(t0).Round(time.Millisecond))
	}
	return sc.attempted, sc.failed, nil
}

// modelSample returns a seeded sample of configurations the workload itself
// reaches: atlas nodes of a census root (census: naivemajority n=4; serve:
// naivemajority n=3, the stream's lineage) or configurations visited by a
// budgeted sweep root (sweep, cluster: onethird n=4).
func modelSample(workload string, rng *rand.Rand) (model.Protocol, []*model.Config, error) {
	name, n := censusProtocol, censusN
	switch workload {
	case "sweep", "cluster":
		name, n = sweepProtocol, sweepN
	case "serve":
		name, n = hitLineages[0].protocol, hitLineages[0].n
	}
	pr, err := lookupProtocol(name, n)
	if err != nil {
		return nil, nil, err
	}
	ins := model.AllInputs(n)
	root, err := model.Initial(pr, ins[rng.Intn(len(ins))])
	if err != nil {
		return nil, nil, err
	}
	var reached []*model.Config
	if name == sweepProtocol {
		explore.Explore(pr, root, explore.Options{MaxConfigs: sweepBudget}, nil, func(c *model.Config, _ int, _ func() model.Schedule) bool {
			reached = append(reached, c)
			return false
		})
	} else {
		a, ok := explore.BuildAtlas(pr, root, explore.Options{})
		if !ok {
			return nil, nil, fmt.Errorf("%s n=%d root %s: atlas refused", name, n, root)
		}
		for id := 0; id < a.Len(); id++ {
			reached = append(reached, a.Config(int32(id)))
		}
	}
	var sample []*model.Config
	for _, i := range sampleIndices(rng, len(reached), layerSampleConfigs) {
		sample = append(sample, reached[i])
	}
	return pr, sample, nil
}

// modelLayer times model.Apply, Config.Hash on fresh successors and
// Interner.Intern over a sample of reached configurations.
func modelLayer(workload string, rng *rand.Rand, tr *tracer, out map[string]metric) error {
	pr, sample, err := modelSample(workload, rng)
	if err != nil {
		return err
	}
	events := make([][]model.Event, len(sample))
	steps := 0
	for i, c := range sample {
		events[i] = model.Events(c)
		steps += len(events[i])
	}
	if steps == 0 {
		return fmt.Errorf("sample of %d configurations enables no events", len(sample))
	}
	var applyNS, hashNS, internNS, allocs, bytes []float64
	for round := 0; round < layerApplyRounds; round++ {
		succs := make([]*model.Config, 0, steps)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := tr.begin("model.Apply", 0, int64(round))
		t0 := time.Now()
		for i, c := range sample {
			for _, e := range events[i] {
				s, err := model.Apply(pr, c, e)
				if err != nil {
					return fmt.Errorf("Apply %s: %w", e, err)
				}
				succs = append(succs, s)
			}
		}
		t1 := time.Now()
		tr.end(sp)
		sp = tr.begin("model.Config.Hash", 0, int64(round))
		var sink uint64
		for _, s := range succs {
			sink ^= s.Hash()
		}
		t2 := time.Now()
		tr.end(sp)
		runtime.ReadMemStats(&m1)
		it := model.NewInterner()
		sp = tr.begin("model.Interner.Intern", 0, int64(round))
		t3 := time.Now()
		for _, s := range succs {
			it.Intern(s)
		}
		t4 := time.Now()
		tr.end(sp)
		if sink == 0 && it.Len() == 0 {
			return fmt.Errorf("no successors hashed")
		}
		n := float64(len(succs))
		applyNS = append(applyNS, float64(t1.Sub(t0).Nanoseconds())/n)
		hashNS = append(hashNS, float64(t2.Sub(t1).Nanoseconds())/n)
		internNS = append(internNS, float64(t4.Sub(t3).Nanoseconds())/n)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	}
	out["model.apply_ns"] = metric{median(applyNS), "ns"}
	out["model.hash_ns"] = metric{median(hashNS), "ns"}
	out["model.intern_ns"] = metric{median(internNS), "ns"}
	out["model.allocs_per_step"] = metric{median(allocs), "allocs"}
	out["model.bytes_per_step"] = metric{median(bytes), "B"}
	out["model.events_per_config"] = metric{float64(steps) / float64(len(sample)), "events"}
	return nil
}

// exploreLayer builds the atlas of a seeded subset of census roots and
// explores the same roots forward only, at the same budget.
func exploreLayer(rng *rand.Rand, tr *tracer, out map[string]metric, sc *suiteCounts) error {
	pr, err := lookupProtocol(censusProtocol, censusN)
	if err != nil {
		return err
	}
	ins := model.AllInputs(censusN)
	var atlasMS, reachMS, allocsPerConfig []float64
	for k, i := range sampleIndices(rng, len(ins), layerAtlasRoots) {
		root, err := model.Initial(pr, ins[i])
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := tr.begin("explore.BuildAtlas", 0, int64(k))
		t0 := time.Now()
		a, ok := explore.BuildAtlas(pr, root, explore.Options{})
		atlasMS = append(atlasMS, ms(time.Since(t0)))
		tr.end(sp)
		runtime.ReadMemStats(&m1)
		if !ok {
			sc.check(false)
			continue
		}
		allocsPerConfig = append(allocsPerConfig, float64(m1.Mallocs-m0.Mallocs)/float64(a.Len()))
		sp = tr.begin("explore.ExploreFiltered", 0, int64(k))
		t0 = time.Now()
		complete, visited := explore.ExploreFiltered(pr, root, explore.Options{}, nil, nil)
		reachMS = append(reachMS, ms(time.Since(t0)))
		tr.end(sp)
		sc.check(complete && visited == a.Len())
	}
	if len(reachMS) == 0 {
		return fmt.Errorf("every atlas was refused")
	}
	atlas, reach := median(atlasMS), median(reachMS)
	out["explore.atlas_ms"] = metric{atlas, "ms"}
	out["explore.reach_ms"] = metric{reach, "ms"}
	out["explore.atlas_extra_frac"] = metric{1 - reach/atlas, "fraction"}
	out["explore.atlas_allocs_per_config"] = metric{median(allocsPerConfig), "allocs"}
	return nil
}

// sweepLevels explores every sweep root with a visit callback and returns,
// per root, the wall time and admitted count of each BFS level after the
// first. A level's time runs from the last visit of the level before it to
// its own last visit: the expansion of the previous level plus admission.
type levelTiming struct {
	nodes int
	wall  time.Duration
}

func sweepLevels(tr *tracer) (levels [][]levelTiming, err error) {
	pr, err := lookupProtocol(sweepProtocol, sweepN)
	if err != nil {
		return nil, err
	}
	for k, in := range model.AllInputs(sweepN) {
		root, err := model.Initial(pr, in)
		if err != nil {
			return nil, err
		}
		var last []time.Time
		var count []int
		sp := tr.begin("explore.Explore", 0, int64(k))
		explore.Explore(pr, root, explore.Options{MaxConfigs: sweepBudget}, nil, func(_ *model.Config, depth int, _ func() model.Schedule) bool {
			now := time.Now()
			for len(last) <= depth {
				last = append(last, now)
				count = append(count, 0)
			}
			last[depth] = now
			count[depth]++
			return false
		})
		tr.end(sp)
		var perLevel []levelTiming
		for d := 1; d < len(last); d++ {
			perLevel = append(perLevel, levelTiming{nodes: count[d], wall: last[d].Sub(last[d-1])})
		}
		levels = append(levels, perLevel)
	}
	return levels, nil
}

// levelLayer splits the sweep's wall time between wide and narrow levels
// and returns the levels of every sweep root.
func levelLayer(tr *tracer, out map[string]metric) ([][]levelTiming, error) {
	levels, err := sweepLevels(tr)
	if err != nil {
		return nil, err
	}
	var wideT, narrowT time.Duration
	var wideN, narrowN int
	for _, root := range levels {
		for _, l := range root {
			if l.nodes >= wideLevel {
				wideT += l.wall
				wideN += l.nodes
			} else {
				narrowT += l.wall
				narrowN += l.nodes
			}
		}
	}
	if wideN == 0 || narrowN == 0 {
		return nil, fmt.Errorf("sweep has %d wide-level and %d narrow-level configurations", wideN, narrowN)
	}
	out["explore.wide_level_us_per_config"] = metric{float64(wideT.Microseconds()) / float64(wideN), "us"}
	out["explore.narrow_level_us_per_config"] = metric{float64(narrowT.Microseconds()) / float64(narrowN), "us"}
	return levels, nil
}

// distLayer measures the cluster on a seeded subset of the sweep's roots:
// against the sequential engine, through a byte-counting transport, and
// with and without checkpoints. levels holds the BFS levels of every sweep
// root, as sweepLevels returns them.
func distLayer(cfg runConfig, rng *rand.Rand, tr *tracer, levels [][]levelTiming, out map[string]metric, sc *suiteCounts) error {
	pr, err := lookupProtocol(sweepProtocol, sweepN)
	if err != nil {
		return err
	}
	all := model.AllInputs(sweepN)
	var ins []model.Inputs
	levelsTotal := 0 // BFS levels of the chosen roots, the root's own included
	for _, i := range sampleIndices(rng, len(all), layerClusterRoots) {
		ins = append(ins, all[i])
		levelsTotal += len(levels[i]) + 1
	}
	plain, err := startCluster(distexplore.NewLoopback(), nil, "suite", filepath.Join(cfg.tmp, "suite-ck"))
	if err != nil {
		return err
	}
	defer plain.stop()
	lb := distexplore.NewLoopback()
	wire := &countingTransport{inner: lb}
	counted, err := startCluster(lb, wire, "suite-counted", filepath.Join(cfg.tmp, "suite-ck-counted"))
	if err != nil {
		return err
	}
	defer counted.stop()

	// Plain pass, with the recovery counters of every root.
	expanded, checkpoints := 0, 0
	t0 := time.Now()
	for k, in := range ins {
		sp := tr.begin("distexplore.Cluster.CountReachable", 0, int64(k))
		count, exact, err := plain.cl.CountReachable(clusterTask(in, plain.cks))
		tr.end(sp)
		sc.check(err == nil && count == sweepExpected.count && exact == sweepExpected.exact)
		st := plain.cl.RunStats()
		expanded += st.ExpandedNodes
		checkpoints += st.Checkpoints
	}
	clusterWall := time.Since(t0)

	// The sequential reference at Workers 1 on the same roots.
	t0 = time.Now()
	for k, in := range ins {
		root, err := model.Initial(pr, in)
		if err != nil {
			return err
		}
		sp := tr.begin("explore.CountReachable.w1", 0, int64(k))
		count, exact := explore.CountReachable(pr, root, explore.Options{MaxConfigs: sweepBudget, Workers: 1})
		tr.end(sp)
		sc.check(count == sweepExpected.count && exact == sweepExpected.exact)
	}
	seqWall := time.Since(t0)

	// Counted pass: wire bytes, exchanges and coordinator read wait.
	before := wire.snapshot()
	configs := 0
	t0 = time.Now()
	for k, in := range ins {
		sp := tr.begin("distexplore.Cluster.CountReachable.counted", 0, int64(k))
		count, exact, err := counted.cl.CountReachable(clusterTask(in, counted.cks))
		tr.end(sp)
		sc.check(err == nil && count == sweepExpected.count && exact == sweepExpected.exact)
		configs += count
	}
	countedWall := time.Since(t0)
	after := wire.snapshot()

	// Checkpoint overhead: interleaved pairs, the order alternating.
	var ratios []float64
	for p := 0; p < layerCkPairs; p++ {
		sub := ins[:layerCkRoots]
		pass := func(withCk bool) time.Duration {
			var cks *atlasstore.CheckpointStore
			if withCk {
				cks = plain.cks
			}
			t := time.Now()
			for _, in := range sub {
				count, exact, err := plain.cl.CountReachable(clusterTask(in, cks))
				sc.check(err == nil && count == sweepExpected.count && exact == sweepExpected.exact)
			}
			return time.Since(t)
		}
		var with, without time.Duration
		if p%2 == 0 {
			with, without = pass(true), pass(false)
		} else {
			without, with = pass(false), pass(true)
		}
		ratios = append(ratios, with.Seconds()/without.Seconds()-1)
	}

	out["distexplore.vs_sequential_x"] = metric{clusterWall.Seconds() / seqWall.Seconds(), "x"}
	out["distexplore.wire_bytes_per_config"] = metric{float64(after.bytes-before.bytes) / float64(configs), "B"}
	out["distexplore.round_trips_per_level"] = metric{float64(after.roundTrips-before.roundTrips) / float64(levelsTotal*clusterWorkers), "count"}
	out["distexplore.coord_wait_frac"] = metric{(after.wait - before.wait).Seconds() / countedWall.Seconds(), "fraction"}
	out["distexplore.expanded_nodes"] = metric{float64(expanded), "count"}
	out["atlasstore.checkpoints_per_root"] = metric{float64(checkpoints) / float64(len(ins)), "count"}
	out["atlasstore.checkpoint_overhead_frac"] = metric{median(ratios), "fraction"}
	return nil
}

// serveLayer runs a short traced session of the serve stream on a fresh
// server, reads the server's counters and job timestamps, times the store
// directly and the adversary per stage.
func serveLayer(cfg runConfig, tr *tracer, out map[string]metric, sc *suiteCounts) error {
	key, err := buildAnswerKey()
	if err != nil {
		return err
	}
	env, err := startServe(filepath.Join(cfg.tmp, "suite-serve"))
	if err != nil {
		return err
	}
	defer env.stop()
	if err := env.warm(); err != nil {
		return err
	}
	cache0, err := env.scrape("flpserve_atlas_cache_lookups_total")
	if err != nil {
		return err
	}
	store0, err := env.scrape("flpserve_atlas_store_ops_total")
	if err != nil {
		return err
	}
	lr := env.closedLoop(&stream{seed: cfg.seed, end: layerServeRequests}, key, tr)
	cache1, err := env.scrape("flpserve_atlas_cache_lookups_total")
	if err != nil {
		return err
	}
	store1, err := env.scrape("flpserve_atlas_store_ops_total")
	if err != nil {
		return err
	}
	var queue, overhead []float64
	run := map[string][]float64{}
	classTime := map[string]time.Duration{}
	var allTime time.Duration
	for _, r := range lr.recs {
		sc.check(r.err == nil)
		classTime[r.req.class] += r.lat
		allTime += r.lat
		created, started, finished, ok := r.view.times()
		if r.err != nil || !ok {
			continue
		}
		queue = append(queue, ms(started.Sub(created)))
		run[string(r.req.kind)] = append(run[string(r.req.kind)], ms(finished.Sub(started)))
		overhead = append(overhead, ms(r.lat-finished.Sub(created)))
	}
	delta := func(a, b map[string]float64, k string) float64 { return b[k] - a[k] }
	cacheHits := delta(cache0, cache1, "hit")
	cacheAll := cacheHits + delta(cache0, cache1, "miss") + delta(cache0, cache1, "merged")
	storeHits := delta(store0, store1, "hit")
	storeAll := storeHits + delta(store0, store1, "miss") + delta(store0, store1, "resume") + delta(store0, store1, "refused")
	out["serve.atlas_cache_hit_frac"] = metric{ratio(cacheHits, cacheAll), "fraction"}
	out["atlasstore.store_hit_frac"] = metric{ratio(storeHits, storeAll), "fraction"}
	out["serve.queue_wait_ms"] = metric{median(queue), "ms"}
	out["serve.http_overhead_ms"] = metric{median(overhead), "ms"}
	out["serve.census_run_ms"] = metric{median(run["census"]), "ms"}
	out["serve.valency_run_ms"] = metric{median(run["valency"]), "ms"}
	out["serve.adversary_run_ms"] = metric{median(run["adversary"]), "ms"}
	for _, c := range streamClasses {
		out["serve."+strings.ReplaceAll(c, "-", "_")+"_time_frac"] = metric{ratio(classTime[c].Seconds(), allTime.Seconds()), "fraction"}
	}

	// The adversary as the server runs it, after the session: serve's
	// options, its Atlases cache (warmed by the session's adversary
	// requests, as it is in a serve run past its first blocks), one run per
	// adversary request shape, checked against the answer key.
	var stage []float64
	for _, t := range adversaryTargets {
		pr, err := lookupProtocol(t.protocol, t.n)
		if err != nil {
			return err
		}
		for _, st := range adversaryStages {
			opt := adversaryOptions(st)
			opt.Atlases = env.srv.AtlasCache()
			k := advKey(t.protocol, t.n, st)
			sp := tr.begin("adversary.Run", 0, int64(len(stage)))
			t0 := time.Now()
			res, err := adversary.New(pr, opt).Run()
			d := time.Since(t0)
			tr.end(sp)
			want := key.adversary[k]
			sc.check(err == nil && res.Inputs.String() == want.inputs && len(res.Stages) == want.stages && res.Steps() == want.steps)
			if err == nil && len(res.Stages) > 0 {
				stage = append(stage, ms(d)/float64(len(res.Stages)))
			}
		}
	}
	if len(stage) == 0 {
		return fmt.Errorf("every adversary run failed")
	}
	out["adversary.stage_ms"] = metric{median(stage), "ms"}

	// The store on its own: a lineage persisted during the server's set-up
	// (warm) and the same lineages built and written into an empty store
	// (cold).
	var warm, cold []float64
	warmStore, err := atlasstore.Open(env.srv.Store().Dir())
	if err != nil {
		return err
	}
	coldStore, err := atlasstore.Open(filepath.Join(cfg.tmp, "suite-store-cold"))
	if err != nil {
		return err
	}
	l := hitLineages[0]
	pr, err := lookupProtocol(l.protocol, l.n)
	if err != nil {
		return err
	}
	for k, in := range model.AllInputs(l.n) {
		root, err := model.Initial(pr, in)
		if err != nil {
			return err
		}
		want := key.roots[rootKey(l.protocol, l.n, in.String())]
		for _, c := range []struct {
			st   *atlasstore.Store
			into *[]float64
			name string
		}{{warmStore, &warm, "atlasstore.GetAtlas.warm"}, {coldStore, &cold, "atlasstore.GetAtlas.cold"}} {
			sp := tr.begin(c.name, 0, int64(k))
			t0 := time.Now()
			a, ok := c.st.GetAtlas(pr, root, explore.Options{})
			*c.into = append(*c.into, ms(time.Since(t0)))
			tr.end(sp)
			sc.check(ok && a.Len() == want.Visited)
		}
	}
	if warmStore.Stats().Hits == 0 || coldStore.Stats().Misses == 0 {
		return fmt.Errorf("store probe took the wrong path: warm %+v, cold %+v", warmStore.Stats(), coldStore.Stats())
	}
	out["atlasstore.warm_get_ms"] = metric{median(warm), "ms"}
	out["atlasstore.cold_get_ms"] = metric{median(cold), "ms"}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
