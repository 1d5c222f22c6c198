package protocols

import (
	"sort"
	"strconv"

	"github.com/flpsim/flp/internal/model"
)

// votes is an immutable map from process id to the vote received from it.
// The shared currency of the broadcast-and-collect protocols below.
type votes map[model.PID]model.Value

// with returns a copy of v with p's vote set.
func (v votes) with(p model.PID, val model.Value) votes {
	nv := make(votes, len(v)+1)
	for k, x := range v {
		nv[k] = x
	}
	nv[p] = val
	return nv
}

// key returns the canonical encoding: sorted "pid:val" pairs.
func (v votes) key() string {
	var idScratch [16]int
	ids := idScratch[:0]
	for p := range v {
		ids = append(ids, int(p))
	}
	sort.Ints(ids)
	var scratch [64]byte
	b := scratch[:0]
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(v[model.PID(id)]), 10)
	}
	return string(b)
}

// count returns how many collected votes equal val.
func (v votes) count(val model.Value) int {
	n := 0
	for _, x := range v {
		if x == val {
			n++
		}
	}
	return n
}

// majority returns the majority value of the collected votes, ties going
// to 0. It is the "agreed-upon rule" decision function used throughout.
func (v votes) majority() model.Value {
	if v.count(model.V1) > v.count(model.V0) {
		return model.V1
	}
	return model.V0
}

// voteBody encodes a vote message body; parseVote decodes it.
func voteBody(v model.Value) string { return "V" + strconv.Itoa(int(v)) }

func parseVote(body string) (model.Value, bool) {
	if len(body) != 2 || body[0] != 'V' {
		return 0, false
	}
	switch body[1] {
	case '0':
		return model.V0, true
	case '1':
		return model.V1, true
	}
	return 0, false
}
