package des

// Queue is a FIFO: a slice plus the index of its first live item. The
// zero value is an empty queue ready to use. Consumed slots are zeroed,
// so the queue keeps nothing it has handed out alive, and a queue that
// drains rewinds to the start of its array. Push moves the live items
// down over the consumed prefix before it would grow a full array, so a
// warm queue never allocates.
type Queue[T any] struct {
	items []T // items[head:] are live, front first
	head  int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Items returns the queued items, front first. The slice aliases the
// queue: its elements may be edited in place, and it is valid until the
// next Push, Pop or Drop.
func (q *Queue[T]) Items() []T { return q.items[q.head:] }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the front item. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// Drop removes the n front items, 0 <= n <= Len().
func (q *Queue[T]) Drop(n int) {
	clear(q.items[q.head : q.head+n])
	q.head += n
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}
