// Command perfbench is the repository's benchmark: it drives the model
// checker through the public entry points of flpcheck, flpcluster and
// flpserve on one of four seeded workloads, checks every answer, and prints
// one JSON result line.
//
//	perfbench --workload census|sweep|cluster|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured by a traced run of the same
// workload plus the layer suite (layers.go). README.md in this directory is
// the metric dictionary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Concurrency of the workloads. Both must fit the machine: the benchmark
// refuses to run where either exceeds the CPU count, because the numbers
// would then measure oversubscription instead of the program.
const (
	serveClients   = 2
	clusterWorkers = 2
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tmp is a scratch directory inside the working directory, removed at
	// exit; atlas stores and checkpoints live there.
	tmp string
	// log receives progress lines (standard error).
	log io.Writer
}

// measurement is what a workload run reports back to main.
type measurement struct {
	attempted, failed int
	metrics           map[string]metric
	// inputs describes the generated inputs, for the stamp.
	inputs map[string]any
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]func(runConfig) (*measurement, error){
	"census":  runCensus,
	"sweep":   runSweep,
	"cluster": runCluster,
	"serve":   runServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: census, sweep, cluster or serve")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload census|sweep|cluster|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	ncpu := runtime.NumCPU()
	if err := checkConcurrency(ncpu); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	runtime.GOMAXPROCS(ncpu)

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	cfg := runConfig{workload: *name, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, tmp: tmp, log: stderr}
	m, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	stamp := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     ncpu,
		"go":         runtime.Version(),
		"git_rev":    os.Getenv("PERFBENCH_GIT_REV"),
		"src_digest": sourceDigest(),
		"inputs":     m.inputs,
	}
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		return 1
	}
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: m.metrics}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// checkConcurrency refuses machines with fewer CPUs than the workloads'
// client connections or cluster workers.
func checkConcurrency(ncpu int) error {
	if serveClients > ncpu || clusterWorkers > ncpu {
		return fmt.Errorf("%d client connections and %d cluster workers need at least that many CPUs; this machine has %d",
			serveClients, clusterWorkers, ncpu)
	}
	return nil
}

// sourceDigest names the code under test by a digest of the Go sources and
// module files under the working directory, since a benchmark checkout
// need not be a repository (run.sh passes the git revision when it is).
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (path[0] == '.' || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (filepath.Ext(path) == ".go" || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	return digestFiles(files)
}

// elapsedSince returns seconds since t.
func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }
