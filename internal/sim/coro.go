//go:build go1.23

package sim

import "iter"

// start builds p's body as an iter.Pull coroutine. Resuming p is the
// coroutine's next, and parking is its yield: control moves between the
// scheduler and the process by a direct coroutine switch, never through
// the Go scheduler. A panic or runtime.Goexit in fn surfaces from next,
// so it propagates out of the Run call that resumed p.
func (p *Proc) start(fn func(p *Proc)) {
	next, stop := iter.Pull(func(yield func(struct{}) bool) {
		defer p.env.exited(p)
		defer func() {
			// Close unwinds a parked process by panicking with
			// errClosed out of park; that ends the coroutine quietly.
			// Any other panic keeps propagating to Run's caller.
			if r := recover(); r != nil && r != errClosed {
				panic(r)
			}
		}()
		p.yield = yield
		fn(p)
	})
	p.resume = func() { next() }
	p.stop = stop
}
