// Package des implements a deterministic, process-oriented discrete-event
// simulation kernel — the clock under every measurement this repository
// reports (the paper itself, conf_ipps_LiuJWPABGT04, measures wall-clock
// microseconds on real hardware; here simulated time stands in for them).
//
// Simulated processes are goroutines, but never scheduled ones: each is a
// runtime coroutine (iter.Pull) of the goroutine that drives its engine, and
// the engine steps exactly one of them at a time. A process runs until it
// blocks on a kernel primitive (Sleep, Cond.Wait, Queue.Get,
// Resource.Acquire, ...) and then dispatches pending events itself,
// advancing the simulated clock, until one of them resumes it — no switch
// at all — or resumes another process, which costs two coroutine switches
// through the driver and never a trip through the Go scheduler (DESIGN.md
// §12). Shutdown unwinds every parked process through its deferred calls.
// A process that needs no stack is a Task instead (DESIGN.md §17): its step
// function runs to completion inside the dispatch of its wake, on whichever
// goroutine popped it, at the same (time, key) a coroutine's wake would have
// had — no goroutine, no switch, nothing to unwind.
// The package needs a Go 1.23 toolchain or later for iter; coro.go says so
// with a build constraint, because go.mod cannot (see the comment there).
//
// Layer boundaries: this package is the bottom of the stack. It knows
// nothing about InfiniBand, MPI or the cost model; internal/model prices
// operations in des.Time, internal/ib runs protocol state machines as des
// tasks, and everything above inherits the clock. Nothing below it
// exists, and nothing in it may import a sibling package.
//
// Invariants:
//
//   - Determinism: the pending events sit in one 4-ary heap of
//     pointer-free entries (queue.go, DESIGN.md §12) that pops in the exact
//     (time, lineage key, scheduling sequence) order, so a given program
//     produces bit-for-bit identical simulated timings on every run. This
//     is what makes "output bit-identical to the previous PR" a meaningful
//     regression gate, and it is why nothing in a simulation may branch on
//     wall-clock time or map iteration order.
//   - Single-stepping: at most one simulated process or task step executes
//     at any instant; predicates guarded by Cond need no locks.
//   - Lineage-exact elision (DESIGN.md §16): SleepStep and SleepChain
//     dispatch a run of back-to-back Sleeps as one event, at the instant,
//     the same-instant position and the child-key base the last elided wake
//     would have had; CutChain ends a chain at the step in progress when
//     something its sleeper polls for changes. Simulated results cannot
//     tell the difference — only EventsExecuted and TraceFingerprint
//     shrink — and the desplain build tag, which compiles the same calls
//     as the literal loop of Sleeps, is the reference that proves it.
//   - A process that blocks outside a kernel primitive deadlocks the
//     simulation; every wait must go through the kernel so the engine can
//     see it.
package des
