// Package workerpanic carries a panic from a pool's worker goroutine to the
// goroutine that joins the pool.
//
// No caller can recover a panic raised on another goroutine, so a fault in
// one worker of a solve would end the whole process — rahtm-serve included,
// whose per-solve recover only guards the solving goroutine. The worker
// pools (core's level scheduler, merge's scoring pool, the MILP prefetch
// workers) defer Slot.Catch on every worker and call Slot.Rethrow once they
// have joined, so the panic resurfaces on the joining goroutine with the
// worker's stack attached, where the daemon turns it into a 500 and keeps
// serving.
package workerpanic

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// Panic is a panic recovered on a worker goroutine: the original value and
// the worker's stack at the point of the panic.
type Panic struct {
	Value any
	Stack []byte
}

// Error reports the panic value followed by the worker's stack, so a
// re-raised panic that nothing recovers still shows where it happened.
func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// Slot keeps the first panic a pool's workers recover. The zero value is
// ready to use; a Slot is safe for concurrent use.
type Slot struct {
	p atomic.Pointer[Panic]
}

// Catch recovers a panic on the calling worker and keeps it when it is the
// pool's first. It must be deferred directly (defer slot.Catch()) so that
// recover sees the panic. A *Panic re-raised by a nested pool is kept as
// is, with the stack of the worker that first panicked.
func (s *Slot) Catch() {
	v := recover()
	if v == nil {
		return
	}
	p, ok := v.(*Panic)
	if !ok {
		p = &Panic{Value: v, Stack: debug.Stack()}
	}
	s.p.CompareAndSwap(nil, p)
}

// Caught reports whether a worker has panicked.
func (s *Slot) Caught() bool { return s.p.Load() != nil }

// Rethrow re-raises the kept panic, if any, on the calling goroutine. Call
// it after every worker has returned.
func (s *Slot) Rethrow() {
	if p := s.p.Load(); p != nil {
		panic(p)
	}
}
