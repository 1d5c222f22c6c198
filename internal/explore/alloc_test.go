package explore_test

// Allocation-regression guard for a whole exploration: the per-visited-
// configuration allocation budget of Explore on a small finite protocol.
// The model-layer guards (internal/model/alloc_test.go) pin the key
// machinery in isolation; this one pins the engine on top — frontier
// growth, successor buffers, interning — so a regression anywhere in the
// level loop (say, successor slices no longer recycling) fails here even
// if each piece still looks fine alone.

import (
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
)

// exploreAllocsPerConfig runs a full budgeted exploration and returns
// allocations per visited configuration.
func exploreAllocsPerConfig(t *testing.T, workers int) float64 {
	t.Helper()
	pr := registryFixture(t, "waitall")
	in := model.Inputs{model.V0, model.V1, model.V0}
	opt := explore.Options{MaxConfigs: 100000, Workers: workers}
	_, visited := explore.Explore(pr, model.MustInitial(pr, in), opt, nil, nil)
	if visited == 0 {
		t.Fatal("explored nothing")
	}
	allocs := testing.AllocsPerRun(5, func() {
		explore.Explore(pr, model.MustInitial(pr, in), opt, nil, nil)
	})
	return allocs / float64(visited)
}

// TestAllocsExploreSequential pins the sequential engine. The measured
// cost on the waitall(3) fixture is ~53 allocs per visited configuration
// (dominated by successor materialization: states slice, buffer entries,
// protocol state, key build — across every expanded candidate, not just
// the admitted ones); the ceiling leaves a third of headroom for harness
// noise, not for a return of per-candidate string keys or a second
// protocol step per null event, each of which costs more.
func TestAllocsExploreSequential(t *testing.T) {
	per := exploreAllocsPerConfig(t, 1)
	const ceiling = 70
	if per > ceiling {
		t.Fatalf("sequential Explore allocates %.1f/config, ceiling %d", per, ceiling)
	}
}

// TestAllocsExploreParallel pins the parallel engine to the same budget
// plus pool overhead: with successor buffers recycled across levels, the
// level-synchronous engine must stay within a few percent of sequential,
// not a multiple of it.
func TestAllocsExploreParallel(t *testing.T) {
	per := exploreAllocsPerConfig(t, 4)
	const ceiling = 75
	if per > ceiling {
		t.Fatalf("parallel Explore allocates %.1f/config, ceiling %d", per, ceiling)
	}
}

// TestAllocsBuildAtlas pins the atlas build — the level loop plus the
// edge CSR, the predecessor inversion and the two backward passes — per
// admitted configuration on the same fixture. The measured cost is 54.3
// allocs/config at one worker and 56.4 at four; the ceilings keep
// TestAllocsExploreSequential's headroom ratio (70/52.6) over those.
func TestAllocsBuildAtlas(t *testing.T) {
	pr := registryFixture(t, "waitall")
	in := model.Inputs{model.V0, model.V1, model.V0}
	for _, tc := range []struct {
		workers int
		ceiling float64
	}{{1, 72}, {4, 75}} {
		opt := explore.Options{MaxConfigs: 100000, Workers: tc.workers}
		a, ok := explore.BuildAtlas(pr, model.MustInitial(pr, in), opt)
		if !ok {
			t.Fatal("BuildAtlas refused within budget")
		}
		allocs := testing.AllocsPerRun(5, func() {
			explore.BuildAtlas(pr, model.MustInitial(pr, in), opt)
		})
		if per := allocs / float64(a.Len()); per > tc.ceiling {
			t.Errorf("BuildAtlas at %d workers allocates %.1f/config, ceiling %.0f", tc.workers, per, tc.ceiling)
		}
	}
}
