package model

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Buffer is the message buffer: the multiset of messages that have been
// sent but not yet delivered (Section 2: the message system "maintains a
// multiset, called the message buffer"). It is the untimed, model-level
// view; the runtime and the Theorem 1 adversary impose ordering
// disciplines above it.
//
// The multiset is one slice of distinct messages with their
// multiplicities, sorted by message key bytes — the canonical order the
// buffer key encodes. Key building, enumeration and comparison are single
// walks of it, and a clone is one slice copy. Membership compares Message
// values, which coincides with key equality because Message.Key is
// injective, so only a message entering the buffer for the first time
// has its key built.
//
// A configuration's buffer is never mutated after the step that built it;
// a step that neither consumes nor sends shares its parent's entries.
type Buffer struct {
	entries []bufEntry
	size    int
}

// bufEntry is one distinct message of a Buffer.
type bufEntry struct {
	msg   Message
	key   string // msg.Key(), built once when the message first arrives
	count int
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// find returns the index of m's entry, or -1 when m is absent.
func (b *Buffer) find(m Message) int {
	for i := range b.entries {
		if b.entries[i].msg == m {
			return i
		}
	}
	return -1
}

// Send places one copy of m in the buffer.
func (b *Buffer) Send(m Message) {
	b.size++
	if i := b.find(m); i >= 0 {
		b.entries[i].count++
		return
	}
	k := m.Key()
	i := sort.Search(len(b.entries), func(i int) bool { return b.entries[i].key >= k })
	b.entries = slices.Insert(b.entries, i, bufEntry{msg: m, key: k, count: 1})
}

// Remove deletes one occurrence of m, reporting whether one was present.
func (b *Buffer) Remove(m Message) bool {
	i := b.find(m)
	if i < 0 {
		return false
	}
	b.size--
	if b.entries[i].count > 1 {
		b.entries[i].count--
	} else {
		b.entries = slices.Delete(b.entries, i, i+1)
	}
	return true
}

// Contains reports whether at least one copy of m is in the buffer.
func (b *Buffer) Contains(m Message) bool { return b.find(m) >= 0 }

// Count returns the multiplicity of m.
func (b *Buffer) Count(m Message) int {
	if i := b.find(m); i >= 0 {
		return b.entries[i].count
	}
	return 0
}

// Len returns the total number of undelivered messages.
func (b *Buffer) Len() int { return b.size }

// Messages returns the distinct messages in the buffer in canonical order.
// Multiplicities are available via Count.
func (b *Buffer) Messages() []Message {
	msgs := make([]Message, len(b.entries))
	for i := range b.entries {
		msgs[i] = b.entries[i].msg
	}
	return msgs
}

// MessagesTo returns the distinct messages addressed to p, in canonical
// order. Delivering any one of them (or nothing) is an applicable event for
// p; duplicates of the same message are interchangeable in the multiset
// semantics, so distinct messages suffice for event enumeration.
func (b *Buffer) MessagesTo(p PID) []Message {
	var msgs []Message
	for i := range b.entries {
		if b.entries[i].msg.To == p {
			msgs = append(msgs, b.entries[i].msg)
		}
	}
	return msgs
}

// Clone returns a deep copy.
func (b *Buffer) Clone() *Buffer {
	c := b.cloneFor(0)
	return &c
}

// cloneFor returns a copy whose entries have room for extra more distinct
// messages, so a step's sends do not regrow the slice.
func (b *Buffer) cloneFor(extra int) Buffer {
	entries := make([]bufEntry, len(b.entries), len(b.entries)+extra)
	copy(entries, b.entries)
	return Buffer{entries: entries, size: b.size}
}

// Equal reports whether two buffers hold exactly the same multiset.
func (b *Buffer) Equal(o *Buffer) bool {
	if b.size != o.size || len(b.entries) != len(o.entries) {
		return false
	}
	for i := range b.entries {
		if b.entries[i].msg != o.entries[i].msg || b.entries[i].count != o.entries[i].count {
			return false
		}
	}
	return true
}

// Key returns the canonical encoding of the buffer contents: per distinct
// message, in key order, its multiplicity, 'x', its key and ';'. Two
// buffers are Equal iff their Keys are identical.
func (b *Buffer) Key() string {
	return string(b.AppendKey(make([]byte, 0, b.KeyLen())))
}

// AppendKey appends the canonical encoding to dst; byte-identical to Key.
func (b *Buffer) AppendKey(dst []byte) []byte {
	for i := range b.entries {
		e := &b.entries[i]
		dst = strconv.AppendInt(dst, int64(e.count), 10)
		dst = append(dst, 'x')
		dst = append(dst, e.key...)
		dst = append(dst, ';')
	}
	return dst
}

// KeyLen returns len(Key()) without building the encoding.
func (b *Buffer) KeyLen() int {
	n := 0
	for i := range b.entries {
		n += decimalLen(b.entries[i].count) + 1 + len(b.entries[i].key) + 1
	}
	return n
}

// decimalLen returns the number of decimal digits of non-negative n.
func decimalLen(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}

// String renders the buffer for traces and debugging.
func (b *Buffer) String() string {
	if b.Len() == 0 {
		return "∅"
	}
	parts := make([]string, 0, len(b.entries))
	for _, e := range b.entries {
		s := e.msg.String()
		if e.count > 1 {
			s += "×" + strconv.Itoa(e.count)
		}
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
