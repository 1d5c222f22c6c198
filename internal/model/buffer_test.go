package model_test

// Laws of the message buffer, checked against a map[Message]int reference
// multiset kept by the test: counts, length, the canonical key (per
// distinct message in key byte order, "countxkey;"), its length, the
// message enumeration order, equality and clone independence.

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/flpsim/flp/internal/model"
)

// bufAlphabet is the message universe of the property tests. PIDs 2 and 10
// sort differently as numbers and as key bytes ("10|" < "2|"), and the
// bodies carry every separator enc.Escape rewrites.
var bufAlphabet = []model.Message{
	{To: 0, From: 1, Body: "a"},
	{To: 0, From: 1, Body: "b|c"},
	{To: 1, From: 0, Body: "x,y"},
	{To: 2, From: 0, Body: `\`},
	{To: 10, From: 2, Body: ""},
	{To: 2, From: 10, Body: "a"},
	{To: 1, From: 1, Body: "ab"},
	{To: 0, From: 0, Body: "a"},
}

// refKey is the canonical buffer key of the reference multiset.
func refKey(ref map[model.Message]int) string {
	keys := make([]string, 0, len(ref))
	counts := make(map[string]int, len(ref))
	for m, n := range ref {
		if n > 0 {
			keys = append(keys, m.Key())
			counts[m.Key()] = n
		}
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(strconv.Itoa(counts[k]) + "x" + k + ";")
	}
	return sb.String()
}

// checkBuffer asserts every observable of b against the reference.
func checkBuffer(t *testing.T, b *model.Buffer, ref map[model.Message]int) {
	t.Helper()
	total, distinct := 0, 0
	for _, m := range bufAlphabet {
		n := ref[m]
		if got := b.Count(m); got != n {
			t.Fatalf("Count(%v) = %d, reference %d", m, got, n)
		}
		if b.Contains(m) != (n > 0) {
			t.Fatalf("Contains(%v) = %v, reference count %d", m, b.Contains(m), n)
		}
		total += n
		if n > 0 {
			distinct++
		}
	}
	if b.Len() != total {
		t.Fatalf("Len = %d, reference %d", b.Len(), total)
	}
	want := refKey(ref)
	if got := b.Key(); got != want {
		t.Fatalf("Key = %q, reference %q", got, want)
	}
	if got := string(b.AppendKey([]byte("prefix"))); got != "prefix"+want {
		t.Fatalf("AppendKey = %q, want prefix + %q", got, want)
	}
	if b.KeyLen() != len(want) {
		t.Fatalf("KeyLen = %d, len(Key) = %d", b.KeyLen(), len(want))
	}
	msgs := b.Messages()
	if len(msgs) != distinct {
		t.Fatalf("Messages has %d entries, reference %d distinct", len(msgs), distinct)
	}
	for i := range msgs {
		if ref[msgs[i]] == 0 {
			t.Fatalf("Messages lists %v, absent from the reference", msgs[i])
		}
		if i > 0 && msgs[i-1].Key() >= msgs[i].Key() {
			t.Fatalf("Messages out of key byte order: %q before %q", msgs[i-1].Key(), msgs[i].Key())
		}
	}
	// A buffer built from the reference in reverse key order is Equal.
	rebuilt := model.NewBuffer()
	for i := len(msgs) - 1; i >= 0; i-- {
		for j := 0; j < ref[msgs[i]]; j++ {
			rebuilt.Send(msgs[i])
		}
	}
	if !b.Equal(rebuilt) || !rebuilt.Equal(b) {
		t.Fatalf("buffer not Equal to a rebuild of its own contents")
	}
	rebuilt.Send(bufAlphabet[0])
	if b.Equal(rebuilt) || rebuilt.Equal(b) {
		t.Fatalf("buffers differing by one copy compare Equal")
	}
}

// FuzzBufferOps runs a Send/Remove sequence (one byte per operation: the
// low bit picks the operation, the rest the message) against the
// reference, checking every observable after each operation. At the
// middle of the sequence it takes a Clone, which must keep its contents
// while the original moves on, and must move on by itself.
func FuzzBufferOps(f *testing.F) {
	f.Add([]byte{0, 2, 4, 0, 1, 3, 5})
	f.Add([]byte{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 10, 9, 9})
	f.Add([]byte{14, 12, 10, 8, 6, 4, 2, 0, 1, 3, 5, 7, 9, 11, 13, 15})
	f.Fuzz(func(t *testing.T, ops []byte) {
		b := model.NewBuffer()
		ref := map[model.Message]int{}
		var clone *model.Buffer
		var cloneRef map[model.Message]int
		for i, op := range ops {
			m := bufAlphabet[int(op>>1)%len(bufAlphabet)]
			if op&1 == 0 {
				b.Send(m)
				ref[m]++
			} else {
				if ok := b.Remove(m); ok != (ref[m] > 0) {
					t.Fatalf("Remove(%v) = %v with reference count %d", m, ok, ref[m])
				}
				if ref[m] > 0 {
					ref[m]--
				}
			}
			checkBuffer(t, b, ref)
			if i == len(ops)/2 {
				clone = b.Clone()
				cloneRef = make(map[model.Message]int, len(ref))
				for k, v := range ref {
					cloneRef[k] = v
				}
			}
		}
		if clone == nil {
			return
		}
		checkBuffer(t, clone, cloneRef)
		clone.Send(bufAlphabet[1])
		cloneRef[bufAlphabet[1]]++
		checkBuffer(t, clone, cloneRef)
		checkBuffer(t, b, ref)
	})
}

// Property: for any sequence of sends and removes, Count, Contains and Len
// agree with the reference and Remove reports presence.
func TestQuickBufferAddRemoveInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		b := model.NewBuffer()
		ref := map[model.Message]int{}
		for _, op := range ops {
			m := bufAlphabet[int(op>>1)%len(bufAlphabet)]
			if op&1 == 0 {
				b.Send(m)
				ref[m]++
			} else {
				if b.Remove(m) != (ref[m] > 0) {
					return false
				}
				if ref[m] > 0 {
					ref[m]--
				}
			}
		}
		total := 0
		for _, m := range bufAlphabet {
			if b.Count(m) != ref[m] || b.Contains(m) != (ref[m] > 0) {
				return false
			}
			total += ref[m]
		}
		return b.Len() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the key is a canonical form — shuffled send orders of the same
// messages give Equal buffers with identical keys.
func TestQuickBufferKeyCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(picks []uint8) bool {
		a, b := model.NewBuffer(), model.NewBuffer()
		msgs := make([]model.Message, len(picks))
		for i, p := range picks {
			msgs[i] = bufAlphabet[int(p)%len(bufAlphabet)]
			a.Send(msgs[i])
		}
		r.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
		for _, m := range msgs {
			b.Send(m)
		}
		return a.Key() == b.Key() && a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBufferMessagesKeyOrder pins the enumeration order to key bytes, not
// to numeric PID order: "10|…" sorts before "2|…".
func TestBufferMessagesKeyOrder(t *testing.T) {
	b := model.NewBuffer()
	m2 := model.Message{To: 2, From: 0, Body: "v"}
	m10 := model.Message{To: 10, From: 0, Body: "v"}
	b.Send(m2)
	b.Send(m10)
	got := b.Messages()
	if len(got) != 2 || got[0] != m10 || got[1] != m2 {
		t.Fatalf("Messages = %v, want [%v %v]", got, m10, m2)
	}
	if want := "1x10|0|v|;1x2|0|v|;"; b.Key() != want {
		t.Fatalf("Key = %q, want %q", b.Key(), want)
	}
}

// The four tests below port the laws of the map-based multiset tests the
// Buffer replaced, one test per law, on model messages.

func TestBufferAddRemoveCount(t *testing.T) {
	a, b, c := bufAlphabet[0], bufAlphabet[1], bufAlphabet[2]
	buf := model.NewBuffer()
	if buf.Len() != 0 || len(buf.Messages()) != 0 {
		t.Fatalf("new buffer not empty: len=%d distinct=%d", buf.Len(), len(buf.Messages()))
	}
	buf.Send(a)
	buf.Send(a)
	buf.Send(b)
	if buf.Count(a) != 2 || buf.Count(b) != 1 || buf.Count(c) != 0 {
		t.Errorf("counts wrong: a=%d b=%d c=%d", buf.Count(a), buf.Count(b), buf.Count(c))
	}
	if buf.Len() != 3 || len(buf.Messages()) != 2 {
		t.Errorf("len=%d distinct=%d, want 3, 2", buf.Len(), len(buf.Messages()))
	}
	if !buf.Remove(a) {
		t.Error("Remove(a) = false, want true")
	}
	if buf.Count(a) != 1 {
		t.Errorf("Count(a) after remove = %d, want 1", buf.Count(a))
	}
	if buf.Remove(c) || buf.Contains(c) {
		t.Error("absent message removed or contained")
	}
	if !buf.Remove(a) || buf.Contains(a) {
		t.Error("second Remove(a) should empty it")
	}
	if buf.Len() != 1 || len(buf.Messages()) != 1 {
		t.Errorf("final len=%d distinct=%d, want 1, 1", buf.Len(), len(buf.Messages()))
	}
}

func TestBufferCloneIndependence(t *testing.T) {
	a, b := bufAlphabet[0], bufAlphabet[1]
	buf := model.NewBuffer()
	buf.Send(a)
	c := buf.Clone()
	c.Send(b)
	buf.Remove(a)
	if buf.Contains(a) || !c.Contains(a) || !c.Contains(b) || buf.Contains(b) {
		t.Errorf("clone not independent: buf=%v clone=%v", buf, c)
	}
}

func TestBufferEqualAndKey(t *testing.T) {
	x, y := bufAlphabet[0], bufAlphabet[1]
	a, b := model.NewBuffer(), model.NewBuffer()
	a.Send(x)
	a.Send(y)
	a.Send(x)
	b.Send(y)
	b.Send(x)
	b.Send(x)
	if !a.Equal(b) {
		t.Error("order-insensitive Equal failed")
	}
	if a.Key() != b.Key() {
		t.Errorf("keys differ for equal buffers: %q vs %q", a.Key(), b.Key())
	}
	b.Send(x)
	if a.Equal(b) || a.Key() == b.Key() {
		t.Error("buffers with different multiplicities compare equal")
	}
}

func TestBufferString(t *testing.T) {
	buf := model.NewBuffer()
	if buf.String() != "∅" {
		t.Errorf("empty String = %q", buf.String())
	}
	buf.Send(bufAlphabet[0])
	if buf.String() == "∅" {
		t.Error("nonempty buffer renders as empty")
	}
}
