package model_test

import (
	"errors"
	"reflect"
	"testing"

	"github.com/flpsim/flp/internal/model"
)

// nilStepper returns a nil state from every step.
type nilStepper struct{}

func (nilStepper) Name() string { return "nilstep" }
func (nilStepper) N() int       { return 2 }
func (nilStepper) Init(model.PID, model.Value) model.State {
	return badState{out: model.None}
}
func (nilStepper) Step(model.PID, model.State, *model.Message) (model.State, []model.Message) {
	return nil, nil
}

// TestApplyUnlessNoOpContractErrors: for a protocol that breaks the model's
// contract, the single-step path returns the same error as Apply — the
// same ProtocolError for a nil state, a rewritten decided register and a
// bad destination, and the same rejection of a bad process or an absent
// message.
func TestApplyUnlessNoOpContractErrors(t *testing.T) {
	decided := model.MustApply(badWriter{}, model.MustInitial(badWriter{}, model.Inputs{model.V0, model.V0}), model.NullEvent(0))
	decided.Hash() // the single-step path reads the old state's key from here
	ghost := model.Message{To: 0, From: 1, Body: "v"}
	echo := &echoProto{n: 2}
	for _, tc := range []struct {
		name     string
		pr       model.Protocol
		c        *model.Config
		e        model.Event
		protoErr bool
	}{
		{"nil state", nilStepper{}, model.MustInitial(nilStepper{}, model.Inputs{model.V0, model.V0}), model.NullEvent(1), true},
		{"decided register rewritten", badWriter{}, decided, model.NullEvent(0), true},
		{"bad destination", straySender{}, model.MustInitial(straySender{}, model.Inputs{model.V0, model.V0}), model.NullEvent(0), true},
		{"no such process", echo, model.MustInitial(echo, model.Inputs{model.V0, model.V0}), model.NullEvent(5), true},
		{"absent message", echo, model.MustInitial(echo, model.Inputs{model.V0, model.V0}), model.Deliver(ghost), false},
	} {
		_, want := model.Apply(tc.pr, tc.c, tc.e)
		nc, got := model.ApplyUnlessNoOp(tc.pr, tc.c, tc.e)
		if want == nil || got == nil || nc != nil {
			t.Fatalf("%s: Apply err %v, ApplyUnlessNoOp (%v, %v); want both to fail", tc.name, want, nc, got)
		}
		var wantPE, gotPE *model.ProtocolError
		if tc.protoErr {
			if !errors.As(want, &wantPE) || !errors.As(got, &gotPE) || !reflect.DeepEqual(wantPE, gotPE) {
				t.Errorf("%s: Apply returned %#v, ApplyUnlessNoOp %#v", tc.name, want, got)
			}
		} else if !errors.Is(got, model.ErrNotApplicable) || got.Error() != want.Error() {
			t.Errorf("%s: Apply returned %v, ApplyUnlessNoOp %v", tc.name, want, got)
		}
	}
}

// tickProto counts null steps up to 1 and never sends, so its first null
// step per process changes state without sending and every later one is a
// no-op. It counts Step calls and state Key builds.
type tickProto struct{ steps, keys int }

type tickState struct {
	tick int
	pr   *tickProto
}

func (s tickState) Key() string {
	s.pr.keys++
	return string(rune('0' + s.tick))
}
func (s tickState) Output() model.Output { return model.None }

func (p *tickProto) Name() string { return "tick" }
func (p *tickProto) N() int       { return 2 }
func (p *tickProto) Init(model.PID, model.Value) model.State {
	return tickState{pr: p}
}
func (p *tickProto) Step(_ model.PID, s model.State, _ *model.Message) (model.State, []model.Message) {
	p.steps++
	st := s.(tickState)
	if st.tick < 1 {
		st.tick++
	}
	return st, nil
}

// TestApplyUnlessNoOpSingleStep pins the null-event path to one Step and
// one state Key build per null event, whether it is a no-op or not, once
// the parent's key is cached (as every frontier node's is): the old
// state's key is read from the parent's binary key, and the new state's
// key is reused by the successor's own key build.
func TestApplyUnlessNoOpSingleStep(t *testing.T) {
	pr := &tickProto{}
	c := model.MustInitial(pr, model.Inputs{model.V0, model.V0})
	c.Hash()
	pr.steps, pr.keys = 0, 0
	nc, err := model.ApplyUnlessNoOp(pr, c, model.NullEvent(0))
	if err != nil || nc == nil {
		t.Fatalf("effectful null step: (%v, %v)", nc, err)
	}
	nc.Hash()
	if pr.steps != 1 || pr.keys != 1 {
		t.Fatalf("effectful null successor took %d Steps and %d state keys, want 1 and 1", pr.steps, pr.keys)
	}
	if want := model.MustApply(pr, c, model.NullEvent(0)); !nc.Equal(want) || nc.Key() != want.Key() {
		t.Fatal("effectful null successor differs from MustApply's")
	}
	pr.steps, pr.keys = 0, 0
	if noop, err := model.ApplyUnlessNoOp(pr, nc, model.NullEvent(0)); noop != nil || err != nil {
		t.Fatalf("repeated null step: (%v, %v), want a no-op", noop, err)
	}
	if pr.steps != 1 || pr.keys != 1 {
		t.Fatalf("no-op null event took %d Steps and %d state keys, want 1 and 1", pr.steps, pr.keys)
	}
	// Without a cached parent key the old state's key is built: still one
	// Step, and the answer agrees with IsNoOp.
	cold := model.MustApply(pr, c, model.NullEvent(0))
	if noop, _ := model.ApplyUnlessNoOp(pr, cold, model.NullEvent(0)); noop != nil || !model.IsNoOp(pr, cold, model.NullEvent(0)) {
		t.Fatal("cold no-op null event not skipped")
	}
}

// chatter re-sends the same message on every null step without changing
// state: never a no-op, although its state key stays the same.
type chatter struct{}

func (chatter) Name() string { return "chatter" }
func (chatter) N() int       { return 2 }
func (chatter) Init(model.PID, model.Value) model.State {
	return badState{out: model.None}
}
func (chatter) Step(p model.PID, s model.State, _ *model.Message) (model.State, []model.Message) {
	return s, []model.Message{{To: 1 - p, Body: "ping"}}
}

// TestApplyUnlessNoOpSendingNullStep: a null step that sends is applied
// even when the stepped state's key is unchanged, as IsNoOp says.
func TestApplyUnlessNoOpSendingNullStep(t *testing.T) {
	c := model.MustInitial(chatter{}, model.Inputs{model.V0, model.V0})
	c.Hash()
	e := model.NullEvent(0)
	nc, err := model.ApplyUnlessNoOp(chatter{}, c, e)
	if err != nil || nc == nil || model.IsNoOp(chatter{}, c, e) {
		t.Fatalf("sending null step: (%v, %v), IsNoOp %v; want a successor", nc, err, model.IsNoOp(chatter{}, c, e))
	}
	if want := model.MustApply(chatter{}, c, e); !nc.Equal(want) || nc.Buffer().Len() != 1 {
		t.Fatal("sending null successor differs from MustApply's")
	}
}
