package rtrace

import "unsafe"

// seq is an append-only list kept in fixed-size segments of 1<<shift
// entries: add starts a fresh segment when the last one is full, so a
// recording never copies what it has written and needs no length
// guessed up front, and a sealed list carries at most one partly
// filled segment of slack. A summary keeps its streams and its run,
// ext and data tables in seqs.
type seq[T any] struct {
	segs  [][]T
	tail  []T // segs' last segment, being filled
	n     int // entries
	shift uint
}

// newSeq returns an empty list with segments of 1<<shift entries.
func newSeq[T any](shift uint) seq[T] { return seq[T]{shift: shift} }

// add appends v.
func (l *seq[T]) add(v T) {
	k := l.n & (1<<l.shift - 1)
	if k == 0 {
		l.tail = make([]T, 1<<l.shift)
		l.segs = append(l.segs, l.tail)
	}
	l.tail[k] = v
	l.n++
}

// last returns the last entry, for updating it in place. The list
// must not be empty.
func (l *seq[T]) last() *T { return &l.tail[(l.n-1)&(1<<l.shift-1)] }

// seg returns segment i's entries.
func (l *seq[T]) seg(i int) []T {
	return l.segs[i][:min(1<<l.shift, l.n-i<<l.shift)]
}

// memBytes is the list's resident size: every segment in full.
func (l *seq[T]) memBytes() int {
	var v T
	return len(l.segs) << l.shift * int(unsafe.Sizeof(v))
}

// cursor reads a list in order across its segments.
type cursor[T any] struct {
	segs  [][]T
	si, k int // next entry: segment si, offset k
}

// cursor returns a cursor at the list's first entry.
func (l *seq[T]) cursor() cursor[T] { return cursor[T]{segs: l.segs} }

// take returns the next at most n (n > 0) entries, stopping at the end
// of the current segment; callers loop until they have consumed what
// they need.
func (c *cursor[T]) take(n uint64) []T {
	seg := c.segs[c.si]
	if c.k == len(seg) {
		c.si, c.k = c.si+1, 0
		seg = c.segs[c.si]
	}
	m := int(min(n, uint64(len(seg)-c.k)))
	out := seg[c.k : c.k+m]
	c.k += m
	return out
}

// next returns the next entry.
func (c *cursor[T]) next() *T { return &c.take(1)[0] }
