package main

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"github.com/flpsim/flp/internal/atlasstore"
	"github.com/flpsim/flp/internal/distexplore"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
)

// Workload inputs. census is flpcheck's Lemma 2 census; sweep and cluster
// are the sequential reference and the distributed run of flpcluster
// selftest / flpcheck -cluster on an unbounded protocol cut off by budget.
const (
	censusProtocol = "naivemajority"
	censusN        = 4
	sweepProtocol  = "onethird"
	sweepN         = 4
	sweepBudget    = 2000
	clusterShards  = 4
)

// Set-up repetitions: setup_s is the median over them. The explorers' set-up
// takes microseconds, so many repetitions keep its median steady.
const (
	protocolSetupReps = 201 // census, sweep: build the protocol and roots
	clusterSetupReps  = 21  // start workers, Dial, open the checkpoint store
)

// censusWant is the expected Lemma 2 census of naivemajority n=4.
type censusWant struct {
	counts  map[explore.Valency]int
	configs int
}

var censusExpected = censusWant{
	counts:  map[explore.Valency]int{explore.ZeroValent: 5, explore.OneValent: 5, explore.Bivalent: 6},
	configs: 164560,
}

// countWant is the expected answer of one budgeted reachability count.
type countWant struct {
	count int
	exact bool
}

// sweepExpected holds for every root of onethird n=4: the state space is
// unbounded, so each root stops at the budget.
var sweepExpected = countWant{count: sweepBudget, exact: false}

// lookupProtocol builds a registry protocol the way the CLIs do.
func lookupProtocol(name string, n int) (model.Protocol, error) {
	f, ok := protocols.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
	return f(n)
}

// passStats is one pass of an explorer workload.
type passStats struct {
	wall    time.Duration
	configs int             // configurations admitted, summed over roots
	ops     int             // roots attempted
	failed  int             // roots with a wrong answer
	opLat   []time.Duration // latency of each operation, indexed by root (census: one operation)
	peakRSS float64         // MiB, the process's peak resident set during the pass
}

// explorer is a workload made of repeated passes over fixed roots.
type explorer struct {
	inputs    map[string]any
	setupReps int
	// setup builds the workload's state; rep counts repetitions so that a
	// setup can tear down the previous one.
	setup func(rep int) error
	// pass runs one pass; tr is nil on untraced passes.
	pass     func(tr *tracer, op int64) passStats
	teardown func()
}

// runPasses repeats pass until seconds have elapsed (at least once). Each
// pass starts from a collected heap returned to the operating system, so
// that its peak resident set does not depend on where the previous pass
// left the garbage collector.
func runPasses(seconds float64, pass func(op int64) passStats) []passStats {
	var out []passStats
	start := time.Now()
	for op := int64(1); len(out) == 0 || elapsedSince(start) < seconds; op++ {
		debug.FreeOSMemory()
		rss := startRSSPeak()
		p := pass(op)
		p.peakRSS = rss.stop()
		out = append(out, p)
	}
	return out
}

// explorerMetrics turns passes into the end-to-end metrics. Throughput and
// peak resident memory are medians over passes. Every pass runs every
// operation once, so each operation's latency is its median over the
// passes; p50 and p99 are taken over those per-operation medians, which
// keeps one stalled pass from setting the tail.
func explorerMetrics(passes []passStats, setupS float64) (map[string]metric, int, int) {
	var rates, rootRates, rss []float64
	perOp := map[int][]float64{}
	attempted, failed := 0, 0
	for _, p := range passes {
		rates = append(rates, float64(p.configs)/p.wall.Seconds())
		rootRates = append(rootRates, float64(p.ops)/p.wall.Seconds())
		rss = append(rss, p.peakRSS)
		for k, d := range p.opLat {
			perOp[k] = append(perOp[k], ms(d))
		}
		attempted += p.ops
		failed += p.failed
	}
	var latMS []float64
	for _, xs := range perOp {
		latMS = append(latMS, median(xs))
	}
	return map[string]metric{
		"configs_per_s": {median(rates), "configs/s"},
		"req_per_s":     {median(rootRates), "req/s"},
		"p50_ms":        {quantile(latMS, 0.5), "ms"},
		"p99_ms":        {quantile(latMS, 0.99), "ms"},
		"peak_rss_mb":   {median(rss), "MiB"},
		"setup_s":       {setupS, "s"},
	}, attempted, failed
}

// runExplorer runs an explorer workload, untraced or traced.
func runExplorer(cfg runConfig, ex *explorer) (*measurement, error) {
	setupS, err := timeSetup(ex.setupReps, ex.setup)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer ex.teardown()
	if !cfg.trace {
		passes := runPasses(cfg.seconds, func(op int64) passStats { return ex.pass(nil, op) })
		m, attempted, failed := explorerMetrics(passes, setupS)
		return &measurement{attempted: attempted, failed: failed, metrics: m, inputs: ex.inputs}, nil
	}

	// Traced run: plain and traced passes alternate, so the tracing
	// overhead is measured under the same conditions, then the layer suite
	// measures every layer.
	tr := newTracer()
	win := startCPUWindow()
	var plainWall, tracedWall []float64
	attempted, failed := 0, 0
	passes := runPasses(cfg.seconds, func(op int64) passStats {
		var p passStats
		if op%2 == 1 {
			p = ex.pass(nil, op)
			plainWall = append(plainWall, p.wall.Seconds())
		} else {
			p = ex.pass(tr, op)
			tracedWall = append(tracedWall, p.wall.Seconds())
		}
		return p
	})
	if len(tracedWall) == 0 {
		p := ex.pass(tr, int64(len(passes)+1))
		tracedWall = append(tracedWall, p.wall.Seconds())
		passes = append(passes, p)
	}
	cpuPerWall, gcFrac := win.stop()
	for _, p := range passes {
		attempted += p.ops
		failed += p.failed
	}
	layer := map[string]metric{
		"bench.trace_overhead_frac": {median(tracedWall)/median(plainWall) - 1, "fraction"},
		"explore.cpu_per_wall":      {cpuPerWall, "cpu/wall"},
		"go.gc_cpu_frac":            {gcFrac, "fraction"},
	}
	a, f, err := runLayerSuite(cfg, tr, layer)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(".bench_build", "spans"), cfg.workload, cfg.seed, cfg.log); err != nil {
		return nil, err
	}
	return &measurement{attempted: attempted + a, failed: failed + f, metrics: layer, inputs: ex.inputs}, nil
}

// runCensus is flpcheck's first step: explore.CensusInitial over all 16
// roots of naivemajority n=4 at the default budget and workers.
func runCensus(cfg runConfig) (*measurement, error) {
	return runExplorer(cfg, censusExplorer(censusExpected))
}

func censusExplorer(want censusWant) *explorer {
	var pr model.Protocol
	ex := &explorer{
		inputs:    map[string]any{"protocol": censusProtocol, "n": censusN, "roots": 1 << censusN, "budget": explore.DefaultMaxConfigs},
		setupReps: protocolSetupReps,
		setup: func(int) error {
			p, err := lookupProtocol(censusProtocol, censusN)
			if err != nil {
				return err
			}
			for _, in := range model.AllInputs(censusN) {
				if _, err := model.Initial(p, in); err != nil {
					return err
				}
			}
			pr = p
			return nil
		},
		teardown: func() {},
	}
	ex.pass = func(tr *tracer, op int64) passStats {
		sp := tr.begin("explore.CensusInitial", 0, op)
		t0 := time.Now()
		c, err := explore.CensusInitial(pr, explore.Options{})
		wall := time.Since(t0)
		tr.end(sp)
		roots := 1 << censusN
		return passStats{wall: wall, configs: censusConfigs(c), ops: roots, failed: checkCensus(c, err, want, roots), opLat: []time.Duration{wall}}
	}
	return ex
}

// censusConfigs sums the configurations admitted over a census's roots.
func censusConfigs(c explore.InitialCensus) int {
	total := 0
	for _, r := range c.PerInput {
		total += r.Info.Visited
	}
	return total
}

// checkCensus returns how many of the census's roots failed: every root
// when the tallies or the configuration total are wrong, otherwise the
// roots that were not classified exactly.
func checkCensus(c explore.InitialCensus, err error, want censusWant, roots int) int {
	if err != nil || len(c.PerInput) != roots || censusConfigs(c) != want.configs {
		return roots
	}
	for v, n := range want.counts {
		if c.Counts[v] != n {
			return roots
		}
	}
	failed := 0
	for _, r := range c.PerInput {
		if !r.Info.Exact || !r.Info.Complete {
			failed++
		}
	}
	return failed
}

// runSweep is the sequential reference of the cluster: explore.CountReachable
// on every root of onethird n=4 at MaxConfigs 2000, at the default workers.
func runSweep(cfg runConfig) (*measurement, error) {
	return runExplorer(cfg, sweepExplorer(cfg.seed, sweepExpected))
}

func sweepExplorer(seed int64, want countWant) *explorer {
	rng := rand.New(rand.NewSource(seed))
	var pr model.Protocol
	var roots []*model.Config
	ex := &explorer{
		inputs:    map[string]any{"protocol": sweepProtocol, "n": sweepN, "roots": 1 << sweepN, "budget": sweepBudget, "order": "seeded shuffle per pass"},
		setupReps: protocolSetupReps,
		setup: func(int) error {
			p, err := lookupProtocol(sweepProtocol, sweepN)
			if err != nil {
				return err
			}
			roots = roots[:0]
			for _, in := range model.AllInputs(sweepN) {
				c, err := model.Initial(p, in)
				if err != nil {
					return err
				}
				roots = append(roots, c)
			}
			pr = p
			return nil
		},
		teardown: func() {},
	}
	ex.pass = func(tr *tracer, op int64) passStats {
		order := rng.Perm(len(roots))
		ps := passStats{opLat: make([]time.Duration, len(roots))}
		parent := tr.begin("sweep.pass", 0, op)
		t0 := time.Now()
		for _, i := range order {
			sp := tr.begin("explore.CountReachable", parent, op)
			r0 := time.Now()
			count, exact := explore.CountReachable(pr, roots[i], explore.Options{MaxConfigs: sweepBudget})
			ps.opLat[i] = time.Since(r0)
			tr.end(sp)
			ps.ops++
			ps.configs += count
			if count != want.count || exact != want.exact {
				ps.failed++
			}
		}
		ps.wall = time.Since(t0)
		tr.end(parent)
		return ps
	}
	return ex
}

// cluster is an in-process flpcluster: workers on a transport, a
// coordinator dialed to them, and a checkpoint store.
type cluster struct {
	cl      *distexplore.Cluster
	workers []*distexplore.Worker
	lis     []distexplore.Listener
	served  sync.WaitGroup
	cks     *atlasstore.CheckpointStore
}

// startCluster starts clusterWorkers workers listening on lb, dials them
// through tr (lb itself, or a wrapper around it) and opens a checkpoint
// store in ckDir ("" = no checkpoints).
func startCluster(lb *distexplore.Loopback, tr distexplore.Transport, name, ckDir string) (*cluster, error) {
	if tr == nil {
		tr = lb
	}
	c := &cluster{}
	var addrs []string
	for i := 0; i < clusterWorkers; i++ {
		l, err := lb.Listen(fmt.Sprintf("%s-w%d", name, i))
		if err != nil {
			c.stop()
			return nil, err
		}
		w := distexplore.NewWorker(nil)
		c.lis = append(c.lis, l)
		c.workers = append(c.workers, w)
		addrs = append(addrs, l.Addr())
		c.served.Add(1)
		go func() {
			defer c.served.Done()
			w.Serve(l) // returns once stop closes the listener
		}()
	}
	cl, err := distexplore.Dial(tr, addrs, distexplore.RPCOptions{})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.cl = cl
	if ckDir != "" {
		if c.cks, err = atlasstore.OpenCheckpoints(ckDir); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// stop closes the coordinator, drains the workers and waits for them.
func (c *cluster) stop() {
	if c.cl != nil {
		c.cl.Close()
	}
	for _, w := range c.workers {
		w.Drain()
	}
	for _, l := range c.lis {
		l.Close()
	}
	c.served.Wait()
	for _, w := range c.workers {
		w.Wait()
	}
}

// clusterTask is the task flpcluster explore sends for one root: default
// replication, no visit callback and no CheckpointHook, so the run measures
// the engine as users run it.
func clusterTask(in model.Inputs, cks *atlasstore.CheckpointStore) distexplore.Task {
	return distexplore.Task{
		Protocol: sweepProtocol, N: sweepN, Inputs: in, Shards: clusterShards,
		Options:     explore.Options{MaxConfigs: sweepBudget},
		Checkpoints: cks,
	}
}

// clusterPass runs CountReachable on ins[i] for every i in order.
func clusterPass(c *cluster, ins []model.Inputs, order []int, want countWant, tr *tracer, op int64, cks *atlasstore.CheckpointStore) passStats {
	ps := passStats{opLat: make([]time.Duration, len(ins))}
	parent := tr.begin("cluster.pass", 0, op)
	t0 := time.Now()
	for _, i := range order {
		in := ins[i]
		sp := tr.begin("distexplore.Cluster.CountReachable", parent, op)
		r0 := time.Now()
		count, exact, err := c.cl.CountReachable(clusterTask(in, cks))
		ps.opLat[i] = time.Since(r0)
		tr.end(sp)
		ps.ops++
		ps.configs += count
		if err != nil || count != want.count || exact != want.exact {
			ps.failed++
		}
	}
	ps.wall = time.Since(t0)
	tr.end(parent)
	return ps
}

// runCluster runs the sweep's roots and budget through a loopback cluster
// of 2 workers, 4 shards, default replication and checkpoints on disk.
func runCluster(cfg runConfig) (*measurement, error) {
	return runExplorer(cfg, clusterExplorer(cfg, sweepExpected))
}

func clusterExplorer(cfg runConfig, want countWant) *explorer {
	rng := rand.New(rand.NewSource(cfg.seed))
	roots := model.AllInputs(sweepN)
	var plain *cluster
	ex := &explorer{
		inputs: map[string]any{"protocol": sweepProtocol, "n": sweepN, "roots": 1 << sweepN, "budget": sweepBudget,
			"workers": clusterWorkers, "shards": clusterShards, "replicas": distexplore.DefaultReplicas,
			"transport": "loopback", "checkpoints": true, "order": "seeded shuffle per pass"},
		setupReps: clusterSetupReps,
		setup: func(rep int) error {
			if plain != nil {
				plain.stop()
				plain = nil
			}
			c, err := startCluster(distexplore.NewLoopback(), nil, fmt.Sprintf("bench%d", rep), filepath.Join(cfg.tmp, fmt.Sprintf("ck%d", rep)))
			plain = c
			return err
		},
	}
	ex.teardown = func() {
		if plain != nil {
			plain.stop()
		}
	}
	ex.pass = func(tr *tracer, op int64) passStats {
		return clusterPass(plain, roots, rng.Perm(len(roots)), want, tr, op, plain.cks)
	}
	return ex
}

// countingTransport wraps the coordinator's transport and counts what
// crosses its connections: bytes, write→read exchanges, and the time some
// read is outstanding. It forwards InProcess, so wrapping it around the
// loopback keeps frame compression off exactly as on the bare loopback.
type countingTransport struct {
	inner distexplore.Transport

	mu         sync.Mutex
	bytes      int64
	roundTrips int64
	readers    int       // reads outstanding now
	waitFrom   time.Time // when readers last rose from 0
	waitTotal  time.Duration
}

var _ distexplore.InProcessTransport = (*countingTransport)(nil)

func (t *countingTransport) Listen(addr string) (distexplore.Listener, error) {
	return t.inner.Listen(addr)
}

func (t *countingTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := t.inner.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: t}, nil
}

// InProcess reports what the wrapped transport reports.
func (t *countingTransport) InProcess() bool {
	ip, ok := t.inner.(distexplore.InProcessTransport)
	return ok && ip.InProcess()
}

// wireSnapshot is a copy of the counters.
type wireSnapshot struct {
	bytes, roundTrips int64
	wait              time.Duration
}

func (t *countingTransport) snapshot() wireSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return wireSnapshot{bytes: t.bytes, roundTrips: t.roundTrips, wait: t.waitTotal}
}

type countingConn struct {
	net.Conn
	t         *countingTransport
	lastWrite bool // the last operation on this connection was a write
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.lastWrite = true
	c.t.mu.Lock()
	c.t.bytes += int64(n)
	c.t.mu.Unlock()
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	t := c.t
	t.mu.Lock()
	if c.lastWrite {
		t.roundTrips++
		c.lastWrite = false
	}
	if t.readers == 0 {
		t.waitFrom = time.Now()
	}
	t.readers++
	t.mu.Unlock()
	n, err := c.Conn.Read(b)
	t.mu.Lock()
	t.readers--
	if t.readers == 0 {
		t.waitTotal += time.Since(t.waitFrom)
	}
	t.bytes += int64(n)
	t.mu.Unlock()
	return n, err
}
