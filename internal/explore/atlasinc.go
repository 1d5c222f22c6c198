package explore

import (
	"bytes"
	"fmt"

	"github.com/flpsim/flp/internal/model"
)

// This file is the incremental/persistent side of the valency atlas: a
// resumable builder whose exploration state can be captured at a node
// boundary, serialized (by package atlasstore), and extended later —
// including in a different process — without re-expanding anything, plus
// the snapshot form a complete Atlas round-trips through for disk-backed
// loads.
//
// The invariant everything here rests on: atlas construction is a
// deterministic trajectory. Nodes are admitted in breadth-first canonical
// order, each node's successor list depends only on the node and the
// protocol, and the expanded set is always a prefix [0, Expanded) of the
// admission order. Any sequence of Extend calls therefore walks the same
// trajectory as a single uninterrupted build — a depth-d state extended by
// k is byte-identical to a one-shot depth-(d+k) build, which is what makes
// frontier resume safe to persist.

// AtlasSnapshot is the serializable exploration state behind an Atlas (or
// a partial build on its way to one): the struct-of-arrays node table, the
// successor CSR closed through the expanded prefix, and — for complete
// snapshots — the two backward-distance columns. Keys carries each node's
// binary canonical key (model.Config.KeyBytes) by dense id; it is both
// the identity table a loaded atlas answers IDOf from and the integrity
// check replay is verified against.
//
// Slices in a snapshot alias the live atlas/builder arrays — treat a
// snapshot as read-only.
type AtlasSnapshot struct {
	Depth     []int32
	Parent    []int32
	ParentVia []model.Event
	SuccStart []int32 // len = Expanded()+1
	SuccTo    []int32
	SuccVia   []model.Event
	Keys      [][]byte
	Complete  bool
	// Dist0/Dist1 are the backward shortest-distance columns (valency
	// bits + witness lengths). Present only on Complete snapshots taken
	// from a finished Atlas; a complete *builder's* snapshot omits them
	// (the two backward passes run in Finish), and LoadAtlas requires
	// them.
	Dist0, Dist1 []int32
}

// Len returns the number of admitted nodes.
func (s *AtlasSnapshot) Len() int { return len(s.Depth) }

// Expanded returns the number of nodes whose successor lists are closed;
// nodes [Expanded, Len) are the stored frontier.
func (s *AtlasSnapshot) Expanded() int { return len(s.SuccStart) - 1 }

// validateShape checks the cross-array invariants a well-formed snapshot
// satisfies, so a mangled artifact surfaces as an error instead of an
// index panic deep in replay.
func (s *AtlasSnapshot) validateShape() error {
	v := len(s.Depth)
	if v == 0 {
		return fmt.Errorf("explore: snapshot has no nodes")
	}
	if len(s.Parent) != v || len(s.ParentVia) != v || len(s.Keys) != v {
		return fmt.Errorf("explore: snapshot column lengths disagree")
	}
	x := len(s.SuccStart) - 1
	if x < 0 || x > v {
		return fmt.Errorf("explore: snapshot expanded count %d out of range [0,%d]", x, v)
	}
	if s.Complete && x != v {
		return fmt.Errorf("explore: complete snapshot with %d of %d nodes expanded", x, v)
	}
	if s.Complete && !(len(s.Dist0) == v && len(s.Dist1) == v) && !(len(s.Dist0) == 0 && len(s.Dist1) == 0) {
		return fmt.Errorf("explore: complete snapshot with malformed distance columns")
	}
	if !s.Complete && (len(s.Dist0) != 0 || len(s.Dist1) != 0) {
		return fmt.Errorf("explore: truncated snapshot carries distance columns")
	}
	e := len(s.SuccTo)
	if len(s.SuccVia) != e {
		return fmt.Errorf("explore: snapshot edge columns disagree")
	}
	prev := int32(0)
	if x >= 0 && len(s.SuccStart) > 0 && s.SuccStart[0] != 0 {
		return fmt.Errorf("explore: snapshot CSR does not start at 0")
	}
	for _, off := range s.SuccStart {
		if off < prev || int(off) > e {
			return fmt.Errorf("explore: snapshot CSR offsets not monotonic")
		}
		prev = off
	}
	if x >= 0 && len(s.SuccStart) > 0 && int(s.SuccStart[x]) != e {
		return fmt.Errorf("explore: snapshot CSR does not close at %d edges", e)
	}
	for _, to := range s.SuccTo {
		if to < 0 || int(to) >= v {
			return fmt.Errorf("explore: snapshot edge target %d out of range", to)
		}
	}
	if s.Parent[0] != -1 {
		return fmt.Errorf("explore: snapshot root has a parent")
	}
	for i := 1; i < v; i++ {
		p := s.Parent[i]
		if p < 0 || int(p) >= i {
			return fmt.Errorf("explore: snapshot node %d has non-tree parent %d", i, p)
		}
		if s.Depth[i] != s.Depth[p]+1 {
			return fmt.Errorf("explore: snapshot node %d depth disagrees with its parent", i)
		}
	}
	return nil
}

// AtlasBuilder is the atlas loop: the breadth-first materialization every
// atlas is built by (BuildAtlas is one Extend and Finish). Truncation (by
// budget or depth) leaves a usable state — every node admitted so far, the
// successor CSR closed through the last expanded node — and Extend resumes
// expansion from exactly that point. It stops *before* the first node
// whose fresh successors would overflow the budget, so the captured state
// is always at a clean node boundary.
//
// An AtlasBuilder is not safe for concurrent use; the store serializes
// access per artifact.
type AtlasBuilder struct {
	pr   model.Protocol
	root *model.Config
	nodeTable

	complete bool
	finished bool
}

// NewAtlasBuilder returns a builder holding just the root, nothing
// expanded.
func NewAtlasBuilder(pr model.Protocol, root *model.Config) *AtlasBuilder {
	return &AtlasBuilder{pr: pr, root: root, nodeTable: newNodeTable(root)}
}

// Configs exposes the admitted configurations by dense id. The slice
// aliases the builder's arrays — callers must treat it as read-only. Its
// main consumer is checkpoint recovery: RestoreAtlasBuilder has already
// replayed and key-verified every configuration, and a resuming
// coordinator needs them back without paying a second replay.
func (b *AtlasBuilder) Configs() []*model.Config { return b.cfgs }

// Complete reports whether the reachable set is exhausted (empty
// frontier).
func (b *AtlasBuilder) Complete() bool { return b.complete }

// FrontierDepth returns the depth of the next node Extend would expand,
// ok=false when the build is complete.
func (b *AtlasBuilder) FrontierDepth() (int, bool) {
	x := b.Expanded()
	if x >= len(b.cfgs) {
		return 0, false
	}
	return int(b.depth[x]), true
}

// freshAmong counts the distinct configurations in succs not yet admitted
// — the budget cost of expanding their node — without interning anything.
func (b *AtlasBuilder) freshAmong(succs []Successor) int {
	fresh := 0
	for i := range succs {
		if _, known := b.index.Tag(succs[i].Cfg); known {
			continue
		}
		dup := false
		for j := 0; j < i; j++ {
			if succs[j].Cfg.Equal(succs[i].Cfg) {
				dup = true
				break
			}
		}
		if !dup {
			fresh++
		}
	}
	return fresh
}

// Extend expands frontier nodes in admission order under opt's bounds and
// reports how many nodes this call expanded. It stops — leaving the state
// at a node boundary — before the first node at depth ≥ opt.MaxDepth (when
// set), or before the first node whose distinct fresh successors would push
// the node count past opt.MaxConfigs. When neither bound intervenes the
// reachable set is exhausted and the builder becomes complete.
//
// This is the only atlas loop; the independent reference it is checked
// against is the sequential ExploreFiltered engine. The trajectory is
// deterministic: any sequence of Extend calls reaching the same bounds
// yields byte-identical arrays to a single call, which is the contract
// frontier persistence rests on. Expansion honours opt.Workers
// level-synchronously exactly like the parallel engine; the merge order
// (and therefore every array) is worker-count independent.
func (b *AtlasBuilder) Extend(opt Options) (newlyExpanded int) {
	if b.finished {
		panic("explore: AtlasBuilder used after Finish")
	}
	opt = opt.withDefaults()
	pool := &succPool{}
	var seqBuf []Successor

	for {
		u := b.Expanded()
		if u >= len(b.cfgs) {
			b.complete = true
			return newlyExpanded
		}
		if opt.MaxDepth > 0 && int(b.depth[u]) >= opt.MaxDepth {
			return newlyExpanded
		}
		// Batch: the contiguous run of pending nodes at this depth (one
		// breadth-first level's remainder), expanded together when the
		// worker pool is on.
		end := u
		for end < len(b.cfgs) && b.depth[end] == b.depth[u] {
			end++
		}
		var exps [][]Successor
		if opt.Workers > 1 {
			exps = expandLevel(u, end, func(v int, dst []Successor) []Successor {
				return AppendSuccessors(b.pr, b.cfgs[v], nil, dst)
			}, opt.Workers, pool)
		}
		for v := u; v < end; v++ {
			var succs []Successor
			if exps != nil {
				succs = exps[v-u]
			} else {
				seqBuf = AppendSuccessors(b.pr, b.cfgs[v], nil, seqBuf)
				succs = seqBuf
			}
			// Only a node that could overflow the budget pays for the
			// fresh count.
			if len(b.cfgs)+len(succs) > opt.MaxConfigs && len(b.cfgs)+b.freshAmong(succs) > opt.MaxConfigs {
				if exps != nil {
					pool.recycle(exps)
				}
				return newlyExpanded // budget: stop before this node
			}
			for _, s := range succs {
				id := int32(len(b.cfgs))
				if got, fresh := b.index.InternTag(s.Cfg, uint64(id)); fresh {
					b.admit(s.Cfg, int32(v), s.Via)
				} else {
					id = int32(got)
				}
				b.succTo = append(b.succTo, id)
				b.succVia = append(b.succVia, s.Via)
			}
			b.succStart = append(b.succStart, int32(len(b.succTo)))
			newlyExpanded++
		}
		if exps != nil {
			pool.recycle(exps)
		}
	}
}

// Snapshot captures the builder's exploration state. The returned arrays
// alias the builder's; do not Extend while a snapshot is being serialized.
func (b *AtlasBuilder) Snapshot() *AtlasSnapshot {
	s := b.snapshot(nil)
	s.Complete = b.complete
	return s
}

// Finish converts a complete builder into an Atlas: the builder hands its
// node table over whole, and Finish adds the predecessor CSR and the two
// backward passes. This is how every built atlas is made, BuildAtlas's
// included. ok=false when the frontier is not empty. The builder must not
// be used afterwards.
func (b *AtlasBuilder) Finish() (*Atlas, bool) {
	if !b.complete {
		return nil, false
	}
	b.finished = true
	a := &Atlas{pr: b.pr, root: b.root, nodeTable: b.nodeTable}
	a.buildPred()
	a.dist0 = a.distToValue(model.V0)
	a.dist1 = a.distToValue(model.V1)
	return a, true
}

// RestoreAtlasBuilder reconstructs a resumable builder from a snapshot by
// replaying the breadth-first tree: node i's configuration is
// parentVia[i] applied to its parent's, verified byte-for-byte against the
// stored canonical key. One protocol step per node — no re-exploration, no
// dedup sweeps — and any corruption (or a protocol whose semantics have
// drifted since the snapshot was taken) surfaces as an error on the first
// divergent node, never as a wrong atlas.
func RestoreAtlasBuilder(pr model.Protocol, root *model.Config, snap *AtlasSnapshot) (*AtlasBuilder, error) {
	t, err := snap.table(root)
	if err != nil {
		return nil, err
	}
	b := &AtlasBuilder{pr: pr, root: root, nodeTable: t, complete: snap.Complete}
	b.index = model.NewInterner()
	b.index.InternTag(root, 0)
	for i := 1; i < len(b.cfgs); i++ {
		c, err := b.replay(pr, snap.Keys, int32(i))
		if err != nil {
			return nil, err
		}
		// Two ids for one configuration would let Extend admit the copy
		// as a fresh node and finish with one node too many.
		if first, fresh := b.index.InternTag(c, uint64(i)); !fresh {
			return nil, fmt.Errorf("explore: snapshot node %d repeats the configuration of node %d", i, first)
		}
	}
	return b, nil
}

// table validates snap as a snapshot of root and returns its node table
// with only the root materialized and no index.
func (s *AtlasSnapshot) table(root *model.Config) (nodeTable, error) {
	if err := s.validateShape(); err != nil {
		return nodeTable{}, err
	}
	if !bytes.Equal(s.Keys[0], root.KeyBytes()) {
		return nodeTable{}, fmt.Errorf("explore: snapshot root key does not match the requested root")
	}
	t := nodeTable{
		cfgs:  make([]*model.Config, len(s.Depth)),
		depth: s.Depth, parent: s.Parent, parentVia: s.ParentVia,
		succStart: s.SuccStart, succTo: s.SuccTo, succVia: s.SuccVia,
	}
	t.cfgs[0] = root
	return t, nil
}

// Snapshot captures a complete atlas's state, distance columns included,
// for persistence. Arrays alias the atlas's (which is immutable).
func (a *Atlas) Snapshot() *AtlasSnapshot {
	s := a.snapshot(a.keys)
	s.Complete = true
	s.Dist0, s.Dist1 = a.dist0, a.dist1
	return s
}

// LoadAtlas reconstructs an Atlas from a complete snapshot without
// replaying a single protocol step: classifications, witness lengths,
// witness schedules, and frontier walks all run off the persisted arrays,
// and configurations materialize lazily (by replaying the parent chain)
// only if a caller asks for one. IDOf answers from the persisted key
// table. This is the warm path — loading is array decoding, not
// exploration.
//
// The snapshot must describe root under pr; the root key is verified here
// and every lazily materialized configuration is verified against its
// stored key, so a stale or corrupt snapshot fails loudly instead of
// answering wrongly.
func LoadAtlas(pr model.Protocol, root *model.Config, snap *AtlasSnapshot) (*Atlas, error) {
	if !snap.Complete {
		return nil, fmt.Errorf("explore: cannot load a partial snapshot as an atlas")
	}
	t, err := snap.table(root)
	if err != nil {
		return nil, err
	}
	if len(snap.Dist0) != len(snap.Depth) {
		return nil, fmt.Errorf("explore: snapshot lacks distance columns")
	}
	a := &Atlas{
		pr: pr, root: root, nodeTable: t,
		dist0: snap.Dist0, dist1: snap.Dist1,
		keys: snap.Keys,
	}
	a.buildPred()
	return a, nil
}
