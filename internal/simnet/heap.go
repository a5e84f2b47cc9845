package simnet

// beforer is the ordering constraint of minHeap: a value that knows whether
// it sorts before another value of the same type.
type beforer[E any] interface {
	before(*E) bool
}

// minHeap is a generic value-based binary min-heap. Unlike container/heap it
// stores elements inline — no per-element allocation, no interface boxing on
// push/pop — which is what keeps the simulator's event hot path allocation
// free (see BenchmarkEventLoop).
type minHeap[E beforer[E]] []E

// peek returns the minimum element in place, or nil when the heap is empty.
// The pointer is invalidated by the next push or pop.
func (h minHeap[E]) peek() *E {
	if len(h) == 0 {
		return nil
	}
	return &h[0]
}

func (h *minHeap[E]) push(e E) {
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *minHeap[E]) pop() E {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	var zero E
	q[n] = zero // release references held by the vacated slot
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q[l].before(&q[s]) {
			s = l
		}
		if r < n && q[r].before(&q[s]) {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	return top
}
