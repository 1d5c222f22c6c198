package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/flpsim/flp/internal/adversary"
	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/serve"
)

// Serve workload settings: the job pool matches the client count. A run
// answers a fixed number of whole blocks of the stream, so that every run
// asks the same mix and ends with the same cache and store contents
// whatever the server's speed: serveBlocksPerSecond blocks per measured
// second, which takes about --seconds on a 2-core machine, and at least
// minServeRequests requests, so that at least ten samples lie beyond p99.
const (
	servePool            = 2
	minServeRequests     = 1000
	serveBlocksPerSecond = 5
)

// serveRequests is the length of the request stream a run of seconds
// answers: a whole number of blocks.
func serveRequests(seconds float64) int {
	blocks := max(int(math.Ceil(seconds*serveBlocksPerSecond)), (minServeRequests+streamBlock-1)/streamBlock)
	return blocks * streamBlock
}

// serveEnv is one flpserve instance behind a real loopback HTTP listener.
type serveEnv struct {
	srv    *serve.Server
	hs     *http.Server
	served sync.WaitGroup
	base   string
	client *http.Client
}

// startServe starts a server with its atlas store and job journal in dir.
func startServe(dir string) (*serveEnv, error) {
	srv, err := serve.New(serve.Options{Workers: servePool, AtlasDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	e := &serveEnv{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients,
		}},
	}
	e.served.Add(1)
	go func() {
		defer e.served.Done()
		e.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return e, nil
}

// stop drains the job queue, shuts the HTTP server down and waits for it.
func (e *serveEnv) stop() {
	e.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	e.served.Wait()
	e.client.CloseIdleConnections()
}

// warm runs a census of every hit lineage at the default budget: the
// memory cache then answers the hit class, and every root of those
// lineages is persisted in the store.
func (e *serveEnv) warm() error {
	for _, l := range hitLineages {
		body, _ := json.Marshal(serve.CensusRequest{Protocol: l.protocol, N: l.n})
		v, _, err := e.post("/v1/census", body)
		if err != nil {
			return err
		}
		if v.State != string(serve.StateDone) {
			return fmt.Errorf("warm-up census of %s n=%d: state %q: %s", l.protocol, l.n, v.State, v.Error)
		}
	}
	return nil
}

// jobView mirrors serve.JobView with the result left undecoded.
type jobView struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	State    string          `json:"state"`
	Created  string          `json:"created"`
	Started  string          `json:"started"`
	Finished string          `json:"finished"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

// post sends one ?wait=1 request and returns the decoded job view and the
// client latency, from the POST to the decoded body.
func (e *serveEnv) post(path string, body []byte) (jobView, time.Duration, error) {
	var v jobView
	t0 := time.Now()
	resp, err := e.client.Post(e.base+path+"?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, 0, fmt.Errorf("%s: decoding response: %w", path, err)
	}
	lat := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return v, lat, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, v.Error)
	}
	return v, lat, nil
}

// scrape reads the counters named prefix{outcome="..."} from /metrics.
func (e *serveEnv) scrape(prefix string) (map[string]float64, error) {
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, prefix+`{outcome="`)
		if !ok {
			continue
		}
		label, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[label] = f
		}
	}
	return out, sc.Err()
}

// advWant is the expected outcome of one adversary request.
type advWant struct {
	inputs        string
	stages, steps int
}

// answerKey holds the expected answers of the stream, computed directly
// through the engines before set-up.
type answerKey struct {
	roots     map[string]explore.ValencyInfo // by rootKey
	adversary map[string]advWant             // by advKey
}

func rootKey(protocol string, n int, in string) string {
	return fmt.Sprintf("%s/%d/%s", protocol, n, in)
}
func advKey(protocol string, n, stages int) string {
	return fmt.Sprintf("%s/%d/%d", protocol, n, stages)
}

// adversaryOptions are the options flpserve gives the adversary on an
// unbounded protocol (directed probes, bounded searches).
func adversaryOptions(stages int) adversary.Options {
	return adversary.Options{
		Stages:  stages,
		Probe:   &explore.ProbeOptions{},
		Valency: explore.Options{MaxConfigs: 1500},
		Search:  explore.Options{MaxConfigs: 2000},
	}
}

// buildAnswerKey classifies every root the stream can ask about with
// explore.ClassifyRoot at the default budget (the store-write copies share
// writeBase's answers), and runs the adversary once per adversary request
// shape.
func buildAnswerKey() (*answerKey, error) {
	key := &answerKey{roots: map[string]explore.ValencyInfo{}, adversary: map[string]advWant{}}
	for _, l := range append(append([]lineage(nil), hitLineages...), writeBase) {
		pr, err := lookupProtocol(l.protocol, l.n)
		if err != nil {
			return nil, err
		}
		for _, in := range model.AllInputs(l.n) {
			c, err := model.Initial(pr, in)
			if err != nil {
				return nil, err
			}
			key.roots[rootKey(l.protocol, l.n, in.String())] = explore.ClassifyRoot(pr, c, explore.Options{})
		}
	}
	for _, t := range adversaryTargets {
		pr, err := lookupProtocol(t.protocol, t.n)
		if err != nil {
			return nil, err
		}
		for _, s := range adversaryStages {
			res, err := adversary.New(pr, adversaryOptions(s)).Run()
			if err != nil {
				return nil, fmt.Errorf("adversary on %s n=%d: %w", t.protocol, t.n, err)
			}
			key.adversary[advKey(t.protocol, t.n, s)] = advWant{inputs: res.Inputs.String(), stages: len(res.Stages), steps: res.Steps()}
		}
	}
	return key, nil
}

// check compares a done job's result with the answer key and returns the
// configurations the answer covers.
func (key *answerKey) check(r request, v jobView) (configs int, err error) {
	if v.State != string(serve.StateDone) {
		return 0, fmt.Errorf("state %q: %s", v.State, v.Error)
	}
	l := r.answers
	sameRoot := func(in string, valency string, exact bool, visited int) error {
		want, ok := key.roots[rootKey(l.protocol, l.n, in)]
		if !ok {
			return fmt.Errorf("no expected answer for %s", rootKey(l.protocol, l.n, in))
		}
		if valency != want.Valency.String() || exact != want.Exact || visited != want.Visited {
			return fmt.Errorf("%s: got %s exact=%v visited=%d, want %s exact=%v visited=%d",
				rootKey(l.protocol, l.n, in), valency, exact, visited, want.Valency, want.Exact, want.Visited)
		}
		return nil
	}
	switch {
	case r.census != nil:
		var res serve.CensusResult
		if err := json.Unmarshal(v.Result, &res); err != nil {
			return 0, err
		}
		if len(res.PerInput) != 1<<r.census.N {
			return 0, fmt.Errorf("census has %d rows, want %d", len(res.PerInput), 1<<r.census.N)
		}
		counts := map[string]int{}
		for _, row := range res.PerInput {
			if err := sameRoot(row.Inputs, row.Valency, row.Exact, row.Visited); err != nil {
				return 0, err
			}
			counts[row.Valency]++
			configs += row.Visited
		}
		for val, c := range counts {
			if res.Counts[val] != c {
				return 0, fmt.Errorf("census counts %v disagree with its rows", res.Counts)
			}
		}
		return configs, nil
	case r.val != nil:
		var res serve.ValencyResult
		if err := json.Unmarshal(v.Result, &res); err != nil {
			return 0, err
		}
		in := make(model.Inputs, len(r.val.Inputs))
		for i, x := range r.val.Inputs {
			in[i] = model.Value(x)
		}
		if res.Inputs != in.String() {
			return 0, fmt.Errorf("valency answered inputs %s, asked %s", res.Inputs, in)
		}
		if err := sameRoot(res.Inputs, res.Valency, res.Exact, res.Visited); err != nil {
			return 0, err
		}
		want := key.roots[rootKey(l.protocol, l.n, res.Inputs)]
		if res.Complete != want.Complete || res.Witness0 != scheduleString(want.Witness0) || res.Witness1 != scheduleString(want.Witness1) {
			return 0, fmt.Errorf("valency of %s: witnesses or completeness differ from ClassifyRoot", res.Inputs)
		}
		return res.Visited, nil
	default:
		var res serve.AdversaryResult
		if err := json.Unmarshal(v.Result, &res); err != nil {
			return 0, err
		}
		want, ok := key.adversary[advKey(r.adv.Protocol, r.adv.N, r.adv.Stages)]
		if !ok {
			return 0, fmt.Errorf("no expected adversary run for %s n=%d stages=%d", r.adv.Protocol, r.adv.N, r.adv.Stages)
		}
		if !res.Verified || res.Inputs != want.inputs || res.Stages != want.stages || res.Steps != want.steps {
			return 0, fmt.Errorf("adversary on %s: got inputs %s, %d stages, %d steps, verified=%v; want %s, %d, %d",
				r.adv.Protocol, res.Inputs, res.Stages, res.Steps, res.Verified, want.inputs, want.stages, want.steps)
		}
		return 0, nil
	}
}

// scheduleString renders a witness the way the server does ("" for none).
func scheduleString(s model.Schedule) string {
	if len(s) == 0 {
		return ""
	}
	return s.String()
}

// served is one completed request.
type served struct {
	req     request
	lat     time.Duration
	view    jobView
	configs int
	err     error
}

// loopResult is one closed-loop session.
type loopResult struct {
	recs []served
	wall time.Duration
	// peakRSS is the process's peak resident set in MiB during the session.
	peakRSS float64
}

// closedLoop runs serveClients clients, each posting its next request from
// st only after the previous one is answered, until st is exhausted.
func (e *serveEnv) closedLoop(st *stream, key *answerKey, tr *tracer) loopResult {
	var mu sync.Mutex
	var lr loopResult
	debug.FreeOSMemory()
	rss := startRSSPeak()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r, ok := st.take()
				if !ok {
					return
				}
				rec := e.do(r, key, tr)
				mu.Lock()
				lr.recs = append(lr.recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	lr.wall = time.Since(start)
	lr.peakRSS = rss.stop()
	return lr
}

// do sends one request, checks its answer and, when traced, records the
// client span with the server-reported queue and run intervals under it.
func (e *serveEnv) do(r request, key *answerKey, tr *tracer) served {
	sp := tr.begin("serve.http."+string(r.kind), 0, int64(r.index))
	v, lat, err := e.post(r.path, r.body)
	tr.end(sp)
	rec := served{req: r, lat: lat, view: v, err: err}
	if err == nil {
		rec.configs, rec.err = key.check(r, v)
	}
	// Keep the stamps, not the answer: a session holds thousands of
	// records, and their results would add to the heap being measured.
	rec.view.Result = nil
	rec.req.body = nil
	if tr != nil && err == nil {
		created, started, finished, ok := v.times()
		if ok {
			tr.add("serve.queue", sp, int64(r.index), created, started)
			tr.add("serve.job."+string(r.kind), sp, int64(r.index), started, finished)
		}
	}
	return rec
}

// times parses the job's Created, Started and Finished stamps.
func (v jobView) times() (created, started, finished time.Time, ok bool) {
	var err1, err2, err3 error
	created, err1 = time.Parse(time.RFC3339Nano, v.Created)
	started, err2 = time.Parse(time.RFC3339Nano, v.Started)
	finished, err3 = time.Parse(time.RFC3339Nano, v.Finished)
	return created, started, finished, err1 == nil && err2 == nil && err3 == nil
}

// serveMetrics turns a session into the end-to-end metrics.
func serveMetrics(lr loopResult, setupS float64) (map[string]metric, int, int) {
	var lat []time.Duration
	configs, failed := 0, 0
	for _, r := range lr.recs {
		if r.err != nil {
			failed++
			continue
		}
		lat = append(lat, r.lat)
		configs += r.configs
	}
	latMS := durationsMS(lat)
	return map[string]metric{
		"configs_per_s": {float64(configs) / lr.wall.Seconds(), "configs/s"},
		"req_per_s":     {float64(len(lr.recs)-failed) / lr.wall.Seconds(), "req/s"},
		"p50_ms":        {quantile(latMS, 0.5), "ms"},
		"p99_ms":        {quantile(latMS, 0.99), "ms"},
		"peak_rss_mb":   {lr.peakRSS, "MiB"},
		"setup_s":       {setupS, "s"},
	}, len(lr.recs), failed
}

// serveSetupReps is how many times the serve workload repeats its set-up
// (each builds and persists atlases, so it is the costliest set-up).
const serveSetupReps = 5

// setupServe starts a server in a fresh directory and warms it, serveSetupReps
// times, keeping the last; it returns the median set-up time.
func setupServe(tmp string) (*serveEnv, float64, error) {
	var env *serveEnv
	setupS, err := timeSetup(serveSetupReps, func(rep int) error {
		if env != nil {
			env.stop()
			env = nil
		}
		e, err := startServe(filepath.Join(tmp, fmt.Sprintf("serve%d", rep)))
		if err != nil {
			return err
		}
		env = e
		return e.warm()
	})
	if err != nil && env != nil {
		env.stop()
		env = nil
	}
	return env, setupS, err
}

// runServe is flpserve under two closed-loop clients posting a seeded
// stream of census, valency and adversary requests.
func runServe(cfg runConfig) (*measurement, error) {
	key, err := buildAnswerKey()
	if err != nil {
		return nil, fmt.Errorf("answer key: %w", err)
	}
	env, setupS, err := setupServe(cfg.tmp)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer env.stop()
	requests := serveRequests(cfg.seconds)
	inputs := map[string]any{
		"pool": servePool, "clients": serveClients, "loop": "closed", "requests": requests,
		"block": streamBlock, "hit": streamHits, "store_read": streamStoreRead, "store_write": streamStoreWrite,
		"adversary": streamAdversary, "hit_lineages": lineageNames(hitLineages),
		"store_write_base":  fmt.Sprintf("protogen seed %d, default dials, n=%d", writeBaseSeed, writeN),
		"adversary_targets": lineageNames(adversaryTargets), "adversary_stages": adversaryStages,
	}
	logFailures := func(lr loopResult) {
		for _, r := range lr.recs {
			if r.err != nil {
				fmt.Fprintf(cfg.log, "serve: request %d (%s %s): %v\n", r.req.index, r.req.class, r.req.path, r.err)
			}
		}
	}
	if !cfg.trace {
		lr := env.closedLoop(&stream{seed: cfg.seed, end: requests}, key, nil)
		logFailures(lr)
		m, attempted, failed := serveMetrics(lr, setupS)
		return &measurement{attempted: attempted, failed: failed, metrics: m, inputs: inputs}, nil
	}

	// Traced run: an untraced half and a traced half of the same stream,
	// each a whole number of blocks and so the same mix, then the layer
	// suite.
	tr := newTracer()
	win := startCPUWindow()
	half := requests / streamBlock / 2 * streamBlock
	plain := env.closedLoop(&stream{seed: cfg.seed, end: half}, key, nil)
	traced := env.closedLoop(&stream{seed: cfg.seed, next: half, end: 2 * half}, key, tr)
	cpuPerWall, gcFrac := win.stop()
	logFailures(plain)
	logFailures(traced)
	_, a1, f1 := serveMetrics(plain, setupS)
	_, a2, f2 := serveMetrics(traced, setupS)
	plainRate := float64(len(plain.recs)) / plain.wall.Seconds()
	tracedRate := float64(len(traced.recs)) / traced.wall.Seconds()
	layer := map[string]metric{
		"bench.trace_overhead_frac": {plainRate/tracedRate - 1, "fraction"},
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
	return &measurement{attempted: a1 + a2 + a, failed: f1 + f2 + f, metrics: layer, inputs: inputs}, nil
}

func lineageNames(ls []lineage) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = fmt.Sprintf("%s/%d", l.protocol, l.n)
	}
	return out
}
