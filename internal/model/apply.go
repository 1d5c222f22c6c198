package model

import (
	"errors"
	"fmt"
)

// ErrNotApplicable is returned by Apply when the event's message is not
// present in the configuration's buffer.
var ErrNotApplicable = errors.New("model: event not applicable to configuration")

// ProtocolError reports a violation of the model's contract by a Protocol
// implementation: a nil successor state, an invalid destination, or a write
// to an already-decided output register.
type ProtocolError struct {
	Protocol string
	P        PID
	Reason   string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("model: protocol %q, process %d: %s", e.Protocol, e.P, e.Reason)
}

// Apply performs the step e on configuration c under protocol pr and
// returns the resulting configuration e(c). It implements the two-phase
// step of Section 2: first receive(p) obtains m ∈ M ∪ {∅}, then p enters a
// new internal state and sends a finite set of messages.
//
// Apply enforces the model's invariants:
//   - the delivered message must be in the buffer (ErrNotApplicable),
//   - the successor state must be non-nil,
//   - sent messages must name valid destinations,
//   - the output register is write-once.
//
// Sent messages have their From field stamped with e.P.
func Apply(pr Protocol, c *Config, e Event) (*Config, error) {
	nc, _, err := apply(pr, c, e, false)
	return nc, err
}

// ApplyTraced is Apply but additionally returns the messages sent during
// the step (with From stamped), for callers that maintain send-order
// bookkeeping on top of the untimed buffer.
func ApplyTraced(pr Protocol, c *Config, e Event) (*Config, []Message, error) {
	nc, sends, err := apply(pr, c, e, false)
	if err != nil {
		return nil, nil, err
	}
	stamped := make([]Message, len(sends))
	for i, m := range sends {
		m.From = e.P
		stamped[i] = m
	}
	return nc, stamped, nil
}

// ApplyUnlessNoOp is Apply for exploration: it returns e(c), or nil and no
// error when e is a null event that IsNoOp reports as a no-op, with a
// single Protocol.Step either way. The stepped state's key, once built for
// the no-op test, is handed to the successor's key build; the old state's
// key is read from c's cached binary key when there is one.
func ApplyUnlessNoOp(pr Protocol, c *Config, e Event) (*Config, error) {
	nc, _, err := apply(pr, c, e, true)
	return nc, err
}

// apply is the one step path behind Apply, ApplyTraced and
// ApplyUnlessNoOp (skipNoOp). It returns the step's sends as the protocol
// produced them, before stamping.
func apply(pr Protocol, c *Config, e Event, skipNoOp bool) (*Config, []Message, error) {
	if int(e.P) < 0 || int(e.P) >= c.N() {
		return nil, nil, &ProtocolError{Protocol: pr.Name(), P: e.P, Reason: "no such process"}
	}
	if e.Msg != nil && !Applicable(c, e) {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotApplicable, e)
	}
	old := c.State(e.P)
	ns, sends := pr.Step(e.P, old, e.Msg)
	var nsKey string
	keyed := skipNoOp && e.Msg == nil && ns != nil && len(sends) == 0
	if keyed {
		if nsKey = ns.Key(); c.stateKeyEquals(e.P, nsKey) {
			return nil, nil, nil
		}
	}
	if ns == nil {
		return nil, nil, &ProtocolError{Protocol: pr.Name(), P: e.P, Reason: "Step returned nil state"}
	}
	if o := old.Output(); o.Decided() && ns.Output() != o {
		return nil, nil, &ProtocolError{
			Protocol: pr.Name(), P: e.P,
			Reason: fmt.Sprintf("output register is write-once: was %s, Step changed it to %s", o, ns.Output()),
		}
	}
	for _, m := range sends {
		if int(m.To) < 0 || int(m.To) >= c.N() {
			return nil, nil, &ProtocolError{
				Protocol: pr.Name(), P: e.P,
				Reason: fmt.Sprintf("sent message to nonexistent process %d", m.To),
			}
		}
	}
	nc := c.withStep(e.P, ns, e.Msg, sends)
	nc.stepKey, nc.hasStepKey = nsKey, keyed
	return nc, sends, nil
}

// MustApply is Apply but panics on error, for contexts (explorer internals,
// tests) where applicability was already established.
func MustApply(pr Protocol, c *Config, e Event) *Config {
	nc, err := Apply(pr, c, e)
	if err != nil {
		panic(err)
	}
	return nc
}

// IsNoOp reports whether applying e to c leaves the system state unchanged:
// same process state and no messages sent (and nothing consumed). Null
// events that are no-ops can be skipped during exploration without losing
// any reachable configuration, which is what keeps the explored state space
// of a finite protocol finite.
func IsNoOp(pr Protocol, c *Config, e Event) bool {
	if e.Msg != nil {
		return false // consuming a message always changes the buffer
	}
	ns, sends := pr.Step(e.P, c.State(e.P), nil)
	return ns != nil && len(sends) == 0 && ns.Key() == c.State(e.P).Key()
}
