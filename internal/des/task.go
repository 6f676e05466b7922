package des

import "fmt"

// Task is a stackless process: no goroutine, no coroutine switch. Its step
// function runs to completion as a plain event on whichever goroutine holds
// the baton. It blocks by parking in a kernel primitive — Sleep, SleepStep,
// Cond.WaitTask, Queue.GetTask, Resource.AcquireTask — and returning; the
// wake calls step again, which finds its place from its own state. A step
// that returns without parking ends the task.
//
// A task is a Proc without a body: it shares the process bookkeeping, so
// waiter lists hold both kinds, and its wake is minted at the same childKey
// position, dispatched as one event and dropped when stale exactly like a
// process wake. A body ported from Proc to Task that makes the same kernel
// calls in the same order keeps every (at, key) and key base, hence every
// simulated timestamp, event count and fingerprint (DESIGN.md §17).
type Task Proc

// SpawnTask creates a task and schedules its first step at the current
// simulated time. A daemon task does not count toward deadlock detection.
func (e *Engine) SpawnTask(name string, daemon bool, step func(t *Task)) *Task {
	return e.SpawnTaskSeeded(e.execCtx().childKey(), name, daemon, step)
}

// SpawnTaskSeeded is SpawnTask with an identity-derived lineage key (see
// Salt) for the start event.
func (e *Engine) SpawnTaskSeeded(salt uint64, name string, daemon bool, step func(t *Task)) *Task {
	return (*Task)(e.spawnProc(&Proc{name: name, step: step, daemon: daemon}, salt))
}

// stepTask resumes a task whose wake was dispatched. A panic in the step is
// recorded under the task's name and stops the loop, so the driver re-raises
// it (Engine.reraise) no matter which goroutine was dispatching.
func (e *Engine) stepTask(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.panicV = fmt.Sprintf("des: task %q panicked: %v", p.name, r)
			e.stopped = true
		}
	}()
	p.waiting = false
	p.gen++
	if p.midStep() {
		return
	}
	p.step((*Task)(p))
	if !p.waiting {
		p.die()
	}
}

// Sleep parks the task for duration d of simulated time.
func (t *Task) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p := (*Proc)(t)
	p.wake(p.eng.now + d)
	p.park("sleep")
}

// WaitTask parks t until another process or task calls Signal or Broadcast.
func (c *Cond) WaitTask(t *Task) {
	c.waiters = append(c.waiters, (*Proc)(t))
	(*Proc)(t).park("cond.Wait")
}

// GetTask dequeues an item if one is available; otherwise it parks t until
// the next Put and reports false, and the woken step calls it again.
func (q *Queue[T]) GetTask(t *Task) (T, bool) {
	v, ok := q.TryGet()
	if !ok {
		q.cond.WaitTask(t)
	}
	return v, ok
}

// AcquireTask takes n units if t's turn has come; otherwise it queues t (on
// the first call), parks it and reports false, and the woken step calls it
// again. Admission is strict FIFO: a small request queued behind a large one
// waits for it.
func (r *Resource) AcquireTask(t *Task, n int) bool {
	if n > r.capacity {
		panic("des: acquire exceeds resource capacity")
	}
	p, fits := (*Proc)(t), r.inUse+n <= r.capacity
	switch {
	case !p.acq && fits && len(r.waiters) == 0: // uncontended
		r.inUse += n
		return true
	case !p.acq:
		p.acq = true
		r.waiters = append(r.waiters, resWaiter{p, n})
	case fits && r.waiters[0].p == p: // woken at the head of the queue
		p.acq = false
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = resWaiter{}
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.inUse += n
		r.admitNext()
		return true
	}
	p.park("resource.Acquire")
	return false
}
