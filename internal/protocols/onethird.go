package protocols

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/flpsim/flp/internal/enc"
	"github.com/flpsim/flp/internal/model"
)

// OneThirdRule is the coordinator-free round-based consensus rule from the
// Heard-Of literature (Charron-Bost & Schiper): in every round each
// process broadcasts its estimate, waits for more than 2N/3 round-r
// estimates, adopts the most frequent one (ties to 0), and decides an
// estimate that appeared more than 2N/3 times.
//
// It is the third distinct architecture in the protocol suite after the
// proposer race (Paxos) and the coin rounds (Ben-Or): no leader, no coin,
// pure quorum arithmetic. Safety holds under full asynchrony; termination
// needs rounds in which enough processes hear the same > 2N/3 set — which
// the Theorem 1 adversary is free to never grant, making it another
// livelock specimen, while fair schedulers from unanimous-enough inputs
// decide in a round or two.
type OneThirdRule struct {
	// Procs is the number of processes N ≥ 3 (the rule needs two distinct
	// thirds).
	Procs int
}

// NewOneThirdRule returns a One-Third-Rule instance for n processes.
func NewOneThirdRule(n int) *OneThirdRule { return &OneThirdRule{Procs: n} }

type otrState struct {
	me    model.PID
	x     model.Value
	round int
	inbox map[string]votes // "r" → estimates received for round r
	out   model.Output
}

func (s *otrState) Key() string {
	var b enc.Builder
	b.Int(int(s.me)).Uint8(uint8(s.x)).Int(s.round).Uint8(uint8(s.out))
	keys := make([]string, 0, len(s.inbox))
	for k := range s.inbox {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.Str(k).Str(s.inbox[k].key())
	}
	return b.String()
}

func (s *otrState) Output() model.Output { return s.out }

func (s *otrState) clone() *otrState {
	ns := *s
	ns.inbox = make(map[string]votes, len(s.inbox))
	for k, v := range s.inbox {
		ns.inbox[k] = v
	}
	return &ns
}

// Name implements model.Protocol.
func (o *OneThirdRule) Name() string { return fmt.Sprintf("onethird(n=%d)", o.Procs) }

// N implements model.Protocol.
func (o *OneThirdRule) N() int { return o.Procs }

// Init implements model.Protocol.
func (o *OneThirdRule) Init(p model.PID, input model.Value) model.State {
	return &otrState{me: p, x: input, inbox: map[string]votes{}}
}

// threshold returns the "more than 2N/3" count.
func (o *OneThirdRule) threshold() int { return 2*o.Procs/3 + 1 }

func otrBody(r int, v model.Value) string { return fmt.Sprintf("E|%d|%d", r, v) }

// Step implements model.Protocol.
func (o *OneThirdRule) Step(p model.PID, s model.State, m *model.Message) (model.State, []model.Message) {
	st := s.(*otrState).clone()
	var sends []model.Message

	if st.round == 0 {
		st.round = 1
		sends = append(sends, model.Broadcast(p, o.Procs, otrBody(1, st.x))...)
	}

	if m != nil {
		var r int
		var v int
		if n, _ := fmt.Sscanf(m.Body, "E|%d|%d", &r, &v); n == 2 && r >= st.round {
			k := strconv.Itoa(r)
			st.inbox[k] = st.inbox[k].with(m.From, model.Value(v))
		}
	}

	for {
		k := strconv.Itoa(st.round)
		got := st.inbox[k]
		if len(got) < o.threshold() {
			break
		}
		zero, one := got.count(model.V0), got.count(model.V1)
		// Adopt the most frequent estimate, ties to 0.
		if one > zero {
			st.x = model.V1
		} else {
			st.x = model.V0
		}
		// Decide on a supermajority estimate.
		if !st.out.Decided() {
			if zero >= o.threshold() {
				st.out = model.Decided0
			} else if one >= o.threshold() {
				st.out = model.Decided1
			}
		}
		// Next round; prune stale entries.
		st.round++
		for kk := range st.inbox {
			var rr int
			fmt.Sscanf(kk, "%d", &rr)
			if rr < st.round {
				delete(st.inbox, kk)
			}
		}
		sends = append(sends, model.Broadcast(p, o.Procs, otrBody(st.round, st.x))...)
	}
	return st, sends
}
