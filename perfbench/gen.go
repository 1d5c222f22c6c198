package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"sync"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/protogen"
	"github.com/flpsim/flp/internal/serve"
)

// The serve workload's request stream. Requests come in blocks of
// streamBlock; every block holds a fixed number of each class in a seeded
// order, so every class is present throughout a run, not only at its
// start, and any whole number of blocks asks the same mix.
//
// The mix is a chosen proxy, not a measured trace: flpserve has no
// recorded production traffic. Memory-cache hits are the majority, as the
// serving layer is built for repeated queries; each store path and the
// adversary get enough requests per block to be measured in every run.
// streamAdversary is a multiple of len(adversaryTargets).
const (
	streamBlock      = 25
	streamHits       = 20 // census/valency repeats answered from the memory cache
	streamStoreRead  = 2  // census/valency of a persisted lineage at a fresh budget: memory miss, store read
	streamStoreWrite = 1  // valency of a never-stored lineage: memory miss, build, store write
	streamAdversary  = 2  // Theorem 1 adversary runs
)

// Request classes.
const (
	classHit        = "hit"
	classStoreRead  = "store-read"
	classStoreWrite = "store-write"
	classAdversary  = "adversary"
)

// streamClasses lists the classes in report order.
var streamClasses = []string{classHit, classStoreRead, classStoreWrite, classAdversary}

// lineage names a protocol instance the stream asks about.
type lineage struct {
	protocol string
	n        int
}

var (
	// hitLineages are warmed during set-up: a census of each at the
	// default budget fills the memory cache and persists every root, so
	// the hit class is answered from memory and the store-read class
	// from disk.
	hitLineages = []lineage{{"naivemajority", 3}, {"waitall", 3}, {"2pc", 3}}
	// adversaryTargets are the unbounded protocols the adversary runs on.
	adversaryTargets = []lineage{{"paxos", 3}, {"benor", 3}}
	adversaryStages  = []int{2, 3}
)

// The store-write class asks for the valency of one root of a copy of one
// generated protocol (protogen seed writeBaseSeed at its default dials,
// n=3: 8 roots of 125 configurations each, every one 1-valent). Each copy
// is the base's table under a name no earlier request used, so every
// store-write request misses the memory cache and the store, builds an
// atlas of the same size and writes a new artifact, at the same cost early
// and late in a run. Valency, not census: every atlas a request builds
// stays in the server's memory cache, and one root per write keeps that
// growth to about 0.2 MB per request.
const (
	writeBaseSeed = 2
	writeN        = 3
)

// writeBase is the generated protocol the store-write copies share. Its
// answers are the answers of every copy.
var writeBase = lineage{protogen.Derive(writeBaseSeed, protogen.DefaultDials(writeN)).Name(), writeN}

// writeCopy returns the name of the copy of writeBase that request index
// of seed's stream asks about. A spec without dials does not use its Seed
// field, so the copy behaves exactly as the base; the field only makes
// the name, and with it the lineage, new.
func writeCopy(seed int64, index int) string {
	sp := protogen.Derive(writeBaseSeed, protogen.DefaultDials(writeN))
	sp.Dials = nil
	sp.Seed = uint64(seed)<<32 | uint64(index)
	return sp.Name()
}

// request is one generated serve request.
type request struct {
	index int
	class string
	// answers names the lineage whose answers apply: the asked lineage,
	// or writeBase for a store-write copy.
	answers lineage
	path    string
	kind    serve.JobKind
	body    []byte
	census  *serve.CensusRequest
	val     *serve.ValencyRequest
	adv     *serve.AdversaryRequest
}

// shape is what a request asks, before its seeded parameters are drawn.
type shape struct {
	class  string
	census bool    // census, else valency (hit and store classes)
	target lineage // lineage asked about, or the adversary's protocol
}

// blockShapes lists the requests of block b. The mix is the same in every
// block and for every seed (hits and store reads alternate census and
// valency over the hit lineages; store writes are valency requests; one
// adversary run per target), so the work per block does not
// depend on the seed; the seed decides the order, the valency roots, the
// copies' names and the adversary's stage counts.
func blockShapes(b int) []shape {
	shapes := make([]shape, 0, streamBlock)
	for k := 0; k < streamHits; k++ {
		shapes = append(shapes, shape{class: classHit, census: k%2 == 0, target: hitLineages[k%len(hitLineages)]})
	}
	for k := 0; k < streamStoreRead; k++ {
		slot := b*streamStoreRead + k
		shapes = append(shapes, shape{class: classStoreRead, census: slot%2 == 0, target: hitLineages[slot%len(hitLineages)]})
	}
	for k := 0; k < streamStoreWrite; k++ {
		shapes = append(shapes, shape{class: classStoreWrite, target: writeBase})
	}
	for k := 0; k < streamAdversary; k++ {
		shapes = append(shapes, shape{class: classAdversary, target: adversaryTargets[k%len(adversaryTargets)]})
	}
	return shapes
}

// genBlock returns block b of the stream for seed. The stream is a pure
// function of (seed, index): each block is drawn from its own PRNG, so any
// stretch of it can be regenerated without the rest.
func genBlock(seed int64, b int) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(b)))
	shapes := blockShapes(b)
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	reqs := make([]request, len(shapes))
	for k, sh := range shapes {
		reqs[k] = drawRequest(rng, seed, sh, b*streamBlock+k)
	}
	return reqs
}

// stream hands out requests [next, end) of one seed's stream, in order, to
// concurrent clients.
type stream struct {
	mu    sync.Mutex
	seed  int64
	next  int
	end   int
	block []request
}

// take returns the next request, or false once the stream has reached end.
func (s *stream) take() (request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= s.end {
		return request{}, false
	}
	if s.block == nil || s.next%streamBlock == 0 {
		s.block = genBlock(s.seed, s.next/streamBlock)
	}
	r := s.block[s.next%streamBlock]
	s.next++
	return r, true
}

// drawRequest draws the seeded parameters of one request.
func drawRequest(rng *rand.Rand, seed int64, sh shape, index int) request {
	r := request{index: index, class: sh.class, answers: sh.target}
	l := sh.target
	switch sh.class {
	case classAdversary:
		r.adv = &serve.AdversaryRequest{Protocol: l.protocol, N: l.n, Stages: adversaryStages[rng.Intn(len(adversaryStages))]}
		r.path, r.kind = "/v1/adversary", serve.KindAdversary
	default:
		budget := 0
		switch sh.class {
		case classStoreRead:
			// A budget no earlier request used: AtlasKey includes
			// MaxConfigs, so the memory cache misses and the store answers
			// (bounds are not part of the store's key).
			budget = explore.DefaultMaxConfigs + 1 + index
		case classStoreWrite:
			l.protocol = writeCopy(seed, index)
		}
		if sh.census {
			r.census = &serve.CensusRequest{Protocol: l.protocol, N: l.n, Budget: budget}
			r.path, r.kind = "/v1/census", serve.KindCensus
		} else {
			in := make([]int, l.n)
			for p := range in {
				in[p] = rng.Intn(2)
			}
			r.val = &serve.ValencyRequest{Protocol: l.protocol, N: l.n, Inputs: in, Budget: budget}
			r.path, r.kind = "/v1/valency", serve.KindValency
		}
	}
	var body any = r.adv
	if r.census != nil {
		body = r.census
	} else if r.val != nil {
		body = r.val
	}
	r.body, _ = json.Marshal(body) // plain structs of ints and strings always marshal
	return r
}

// sampleIndices draws k distinct indices below n from rng, in ascending
// order (all of them when k >= n).
func sampleIndices(rng *rand.Rand, n, k int) []int {
	if k >= n {
		k = n
	}
	idx := rng.Perm(n)[:k]
	sort.Ints(idx)
	return idx
}
