package des

// Cond is a condition variable for simulated processes. The usual pattern
// applies: re-check the predicate in a loop around Wait, because Broadcast
// wakes all waiters and another process may consume the state first.
//
// Unlike sync.Cond there is no associated lock: the engine serializes all
// processes, so predicates can be examined without synchronization.
type Cond struct {
	waiters []*Proc
}

// Wait blocks p until another process calls Signal or Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.pause("cond.Wait")
}

// Signal wakes the longest-waiting process, if any. The wakeup is scheduled
// at the current instant; the woken process runs after the caller blocks.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters[len(c.waiters)-1] = nil
	c.waiters = c.waiters[:len(c.waiters)-1]
	w.wake(w.eng.now)
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		w.wake(w.eng.now)
	}
	c.waiters = c.waiters[:0]
}

// WaitFor blocks p until pred() is true, re-checking each time the
// condition is signalled. If pred is already true it returns immediately.
func (c *Cond) WaitFor(p *Proc, pred func() bool) {
	for !pred() {
		c.Wait(p)
	}
}

// Queue is an unbounded FIFO mailbox between simulated processes. The item
// buffer is a head-indexed ring over one slice: dequeues advance head so the
// array's capacity is reused instead of being resliced away and reallocated
// on every burst.
type Queue[T any] struct {
	items []T
	head  int
	cond  Cond
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Put appends v and wakes one waiting receiver. It never blocks.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	q.cond.Signal()
}

// Get blocks p until an item is available, then dequeues and returns it.
func (q *Queue[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		q.cond.Wait(p)
	}
	return q.popHead()
}

// TryGet dequeues an item if one is available.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.popHead(), true
}

// Peek returns the head item without dequeuing it.
func (q *Queue[T]) Peek() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items[q.head], true
}

// Pending returns the queued items, oldest first, for inspection. The slice
// aliases the queue and is valid only until the next Put or dequeue.
func (q *Queue[T]) Pending() []T { return q.items[q.head:] }

func (q *Queue[T]) popHead() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Resource is a counting semaphore with FIFO admission, used to model
// contended hardware units (DMA engines, bus slots).
type Resource struct {
	capacity int
	inUse    int
	waiters  []resWaiter
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource returns a resource with the given capacity (must be > 0).
func NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("des: resource capacity must be positive")
	}
	return &Resource{capacity: capacity}
}

// Acquire blocks p until n units are available, then takes them: AcquireTask,
// looped by a process.
func (r *Resource) Acquire(p *Proc, n int) {
	for !r.AcquireTask(p.Task(), n) {
		p.Block()
	}
}

// Release returns n units and admits queued waiters.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("des: resource released below zero")
	}
	r.admitNext()
}

func (r *Resource) admitNext() {
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.inUse+w.n <= r.capacity {
			w.p.wake(w.p.eng.now)
		}
	}
}
