package explore

import (
	"github.com/flpsim/flp/internal/model"
)

// Visit is called once per distinct reachable configuration, in
// breadth-first order, starting with the root itself at depth 0. path
// reconstructs the schedule from the root to this configuration on demand.
// Returning stop=true ends the exploration early.
//
// Visit callbacks are always invoked from a single goroutine (the
// exploration coordinator), in deterministic breadth-first order,
// regardless of Options.Workers; they may freely mutate caller state
// without synchronization.
type Visit func(cfg *model.Config, depth int, path func() model.Schedule) (stop bool)

// Explore performs budgeted breadth-first reachability from c under
// protocol pr, deduplicating configurations by canonical key. If avoid is
// non-nil, events Same as *avoid are never applied — this realizes the set
// ℰ of "configurations reachable from C without applying e" from Lemma 3.
//
// It reports whether the reachable set was exhausted within the budget
// (complete) and how many distinct configurations were visited.
func Explore(pr model.Protocol, c *model.Config, opt Options, avoid *model.Event, visit Visit) (complete bool, visited int) {
	return ExploreFiltered(pr, c, opt, AvoidFilter(avoid), visit)
}

// node is one entry of the breadth-first frontier. Parent links let path
// reconstruction walk back to the root without storing schedules.
type node struct {
	cfg    *model.Config
	depth  int
	parent int
	via    model.Event
}

// ExploreFiltered is Explore with an arbitrary event filter: events for
// which skip returns true are never applied. A nil skip admits everything.
// The Lemma 2 proof walk uses it to explore runs in which a whole process
// takes no steps.
//
// With Options.Workers > 1, node expansion — event enumeration, protocol
// steps, and successor fingerprinting, the dominant costs — runs on a
// worker pool one breadth-first level at a time, while a single
// coordinator merges successors into the frontier in canonical order.
// Results are byte-identical to the sequential engine. skip must be safe
// for concurrent calls (the filters used by the checkers are pure
// functions of the event); pr must honour the Protocol contract of being
// deterministic and side-effect free, which also makes it safe to call
// from several workers.
//
// The distributed engine (package distexplore) runs the same algorithm
// with the frontier partitioned by configuration hash range across worker
// processes; it shares ExpandConfig and Ledger with this implementation,
// which is what keeps its results byte-identical too.
func ExploreFiltered(pr model.Protocol, c *model.Config, opt Options, skip func(model.Event) bool, visit Visit) (complete bool, visited int) {
	opt = opt.withDefaults()

	nodes := []node{{cfg: c, depth: 0, parent: -1}}
	seen := model.NewInterner()
	seen.Intern(c)
	led := NewLedger(opt)

	pathOf := func(i int) func() model.Schedule {
		return func() model.Schedule {
			var rev model.Schedule
			for j := i; nodes[j].parent >= 0; j = nodes[j].parent {
				rev = append(rev, nodes[j].via)
			}
			// Reverse into root-to-node order.
			sigma := make(model.Schedule, len(rev))
			for k := range rev {
				sigma[k] = rev[len(rev)-1-k]
			}
			return sigma
		}
	}

	// expand computes the successors of node i via the shared engine
	// core, appending into a buffer recycled across levels. It is a pure
	// function of the node and its buffer, so workers may run it ahead of
	// the coordinator without changing results.
	expand := func(i int, dst []Successor) []Successor {
		n := nodes[i]
		if opt.DepthCapped(n.depth) {
			return dst[:0]
		}
		return AppendSuccessors(pr, n.cfg, skip, dst)
	}

	// merge folds one node's successors into the frontier: first-seen
	// configurations are appended in canonical event order until the
	// budget is reached. Only the coordinator calls merge, so frontier
	// growth — and therefore node indices, paths, and truncation — is
	// deterministic for every worker count.
	merge := func(parent int, succs []Successor) {
		for _, s := range succs {
			if _, fresh := seen.Intern(s.Cfg); !fresh {
				continue
			}
			if !led.Admit() {
				break
			}
			nodes = append(nodes, node{cfg: s.Cfg, depth: nodes[parent].depth + 1, parent: parent, via: s.Via})
		}
	}

	if opt.Workers <= 1 {
		// Sequential engine: expansion and merging are fused so the event
		// loop can break the moment a fresh successor overflows the budget,
		// skipping the protocol steps and fingerprints for the rest of the
		// node's events.
		for i := 0; i < len(nodes); i++ {
			n := nodes[i]
			if visit != nil && visit(n.cfg, n.depth, pathOf(i)) {
				return false, len(nodes)
			}
			if !led.ShouldExpand(n.depth) {
				continue
			}
			if led.Sealed() {
				continue
			}
			for _, e := range model.Events(n.cfg) {
				nc := successor(pr, n.cfg, e, skip)
				if nc == nil {
					continue
				}
				if _, fresh := seen.Intern(nc); !fresh {
					continue
				}
				if !led.Admit() {
					break
				}
				nodes = append(nodes, node{cfg: nc, depth: n.depth + 1, parent: i, via: e})
			}
		}
		return led.Complete(), len(nodes)
	}

	// Parallel engine: breadth-first levels are contiguous index ranges
	// (successors always land after every node of the current depth), so
	// each level [start, end) is expanded by the worker pool as a whole,
	// then visited and merged in index order. Workers may expand nodes the
	// budget will discard (the level is speculated as a whole); that slack
	// is bounded by one level and never reaches an observable.
	pool := &succPool{}
	for start, end := 0, 1; start < end; start, end = end, len(nodes) {
		var exps [][]Successor
		if !led.Sealed() {
			exps = expandLevel(start, end, expand, opt.Workers, pool)
		}
		for i := start; i < end; i++ {
			n := nodes[i]
			if visit != nil && visit(n.cfg, n.depth, pathOf(i)) {
				return false, len(nodes)
			}
			if !led.ShouldExpand(n.depth) {
				continue
			}
			if exps != nil {
				merge(i, exps[i-start])
			}
		}
		if exps != nil {
			pool.recycle(exps)
		}
	}
	return led.Complete(), len(nodes)
}

// Reachable reports whether target is reachable from c (by configuration
// key equality), returning a witness schedule when it is.
func Reachable(pr model.Protocol, c, target *model.Config, opt Options) (model.Schedule, bool) {
	var witness model.Schedule
	found := false
	Explore(pr, c, opt, nil, func(cfg *model.Config, _ int, path func() model.Schedule) bool {
		if cfg.Equal(target) {
			witness = path()
			found = true
			return true
		}
		return false
	})
	return witness, found
}

// CountReachable returns the number of distinct configurations reachable
// from c within the budget and whether the count is exact.
func CountReachable(pr model.Protocol, c *model.Config, opt Options) (count int, exact bool) {
	complete, visited := Explore(pr, c, opt, nil, nil)
	return visited, complete
}
