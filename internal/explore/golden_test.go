package explore_test

// Byte-stability golden test for the canonical encodings. atlasstore's
// content address hashes root.KeyBytes(), and artifacts, checkpoints and
// distexplore frames record configuration and event keys, so a silent
// change to any of these bytes would orphan every persisted store while
// every within-build differential (keydiff_test.go) kept passing. The
// digests are fixed constants: a change to how configurations or the
// message buffer are represented must reproduce them exactly.
//
// A digest covers, in visit order of a budgeted Explore from every root:
// each configuration's KeyBytes, Key and Hash, the Key of the event that
// reached it, and the Key of every event Events returns, in that order.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"github.com/flpsim/flp/internal/explore"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protocols"
	"github.com/flpsim/flp/internal/protogen"
)

// goldenBudget bounds each root's exploration: enough to reach deep
// multi-message buffers, small enough to keep the sweep well under a
// second per protocol.
const goldenBudget = 400

// goldenN is each registry protocol's fixture size: n=3, except where a
// protocol needs more processes to be built at all.
func goldenN(name string) int {
	if name == "onethird" {
		return 4
	}
	return 3
}

// goldenDigests are the digests of the encodings as first committed.
var goldenDigests = map[string]string{
	"2pc":           "2eb2552096012fe5e9a3478dd53a3f1e83cb5c381b5a71e710f70468960079cf",
	"3pc":           "c06b6fec734ca653fa29cbdc73c8ccda1d66880da45284674042cd9922800bb2",
	"benor":         "fd835f7cc4523282ce27709cdc059ef6df8fe31467d5b8d4815b9914ccd24a0e",
	"naivemajority": "993602577c1af4ddcd89b59536011144da0c978ec90297219f3610fcafdeb77f",
	"onethird":      "76cceb029a9882514bda19fd7a84c593f4f140d138cecaaef0b89f18de6d8765",
	"paxos":         "ccdd2f81d17ceec854a83de98a6a7b498344dfe8039619513f0817c511c58706",
	"trivial0":      "631fac9092f72879bf690b868e4873fb8bc3c0797af1b2623f87869e4a8217dc",
	"waitall":       "f9809d96a308a7b15943235d84df0edeff7495f2c2ff17bdf84d0dd319ef5146",

	"gen:d1:1:ttable.n3.p3.r2.a2.dn65.ms2.ds0.mr2": "1f521b70868c299ba26b05333a736eff8b28139cf0cfa284c61ff23ee06f0ef5",
	"gen:d1:7:tbenor.n3.p1.r1.a1.dn0.ms0.ds0.mr2":  "3b0021eb16386dd3bd42fa454d5fe3b0c9da807037528d5045843fba06cc58c7",
}

// goldenSpecs are the generated protocols the digest also covers: a table
// automaton and a Ben-Or-template drawing.
var goldenSpecs = []protogen.Spec{
	protogen.Derive(1, protogen.DefaultDials(3)),
	protogen.Derive(7, protogen.Dials{Template: protogen.TemplateBenOr, N: 3, MaxRound: 2}),
}

// goldenField writes one length-prefixed field, so adjacent fields cannot
// trade bytes without changing the digest.
func goldenField(h hash.Hash, b []byte) {
	var lenBuf [binary.MaxVarintLen64]byte
	h.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(b)))])
	h.Write(b)
}

// goldenDigest sweeps every root of pr with the given worker count and
// returns the hex SHA-256 of the visited encodings.
func goldenDigest(t *testing.T, pr model.Protocol, workers int) string {
	t.Helper()
	h := sha256.New()
	var hashBuf [8]byte
	opt := explore.Options{MaxConfigs: goldenBudget, Workers: workers}
	for _, inp := range model.AllInputs(pr.N()) {
		root := model.MustInitial(pr, inp)
		explore.Explore(pr, root, opt, nil, func(c *model.Config, _ int, path func() model.Schedule) bool {
			goldenField(h, c.KeyBytes())
			goldenField(h, []byte(c.Key()))
			binary.BigEndian.PutUint64(hashBuf[:], c.Hash())
			goldenField(h, hashBuf[:])
			via := ""
			if p := path(); len(p) > 0 {
				via = p[len(p)-1].Key()
			}
			goldenField(h, []byte(via))
			evs := model.Events(c)
			binary.BigEndian.PutUint64(hashBuf[:], uint64(len(evs)))
			goldenField(h, hashBuf[:])
			for _, e := range evs {
				goldenField(h, []byte(e.Key()))
			}
			return false
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCase is one protocol of the golden sweep.
type goldenCase struct {
	name string
	pr   model.Protocol
}

// goldenCases builds every registry protocol at its golden size and the
// generated protocols of goldenSpecs.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, name := range protocols.Names() {
		factory, _ := protocols.Lookup(name)
		pr, err := factory(goldenN(name))
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		cases = append(cases, goldenCase{name, pr})
	}
	for _, sp := range goldenSpecs {
		pr, err := protogen.New(sp)
		if err != nil {
			t.Fatalf("building %s: %v", sp.Name(), err)
		}
		cases = append(cases, goldenCase{sp.Name(), pr})
	}
	return cases
}

// TestKeyBytesGolden compares each protocol's digest, at the sequential
// and the parallel engine, against the committed constant.
func TestKeyBytesGolden(t *testing.T) {
	for _, gc := range goldenCases(t) {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			want, ok := goldenDigests[gc.name]
			for _, workers := range []int{1, 4} {
				got := goldenDigest(t, gc.pr, workers)
				if !ok {
					t.Fatalf("no golden digest for %s; got %s", gc.name, got)
				}
				if got != want {
					t.Fatalf("%s at %d workers: encoding digest %s, golden %s; persisted stores keyed by these bytes would be orphaned", gc.name, workers, got, want)
				}
			}
		})
	}
}

// TestApplyUnlessNoOpMatchesApply holds the single-step expansion path to
// the reference pair it replaced, IsNoOp then MustApply, at every event of
// every configuration the golden sweep reaches: it skips exactly the
// no-op null events, and otherwise builds a successor with the same
// binary key and fingerprint.
func TestApplyUnlessNoOpMatchesApply(t *testing.T) {
	for _, gc := range goldenCases(t) {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			pr := gc.pr
			opt := explore.Options{MaxConfigs: goldenBudget, Workers: 1}
			for _, inp := range model.AllInputs(pr.N()) {
				explore.Explore(pr, model.MustInitial(pr, inp), opt, nil, func(c *model.Config, _ int, _ func() model.Schedule) bool {
					for _, e := range model.Events(c) {
						nc, err := model.ApplyUnlessNoOp(pr, c, e)
						if err != nil {
							t.Fatalf("%s: ApplyUnlessNoOp %s: %v", inp, e, err)
						}
						noop := e.IsNull() && model.IsNoOp(pr, c, e)
						if (nc == nil) != noop {
							t.Fatalf("%s: event %s skipped=%v, IsNoOp=%v", inp, e, nc == nil, noop)
						}
						if noop {
							continue
						}
						ref := model.MustApply(pr, c, e)
						if !bytes.Equal(nc.KeyBytes(), ref.KeyBytes()) || nc.Hash() != ref.Hash() {
							t.Fatalf("%s: event %s: successor key or hash differs from MustApply's", inp, e)
						}
					}
					return false
				})
			}
		})
	}
}
