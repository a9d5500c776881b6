package steering

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned by Submit/Do once the controller is closed —
// i.e. the simulation behind it has terminated.
var ErrClosed = errors.New("steering: controller closed")

// KnownOp reports whether op is a valid steering verb: the closed set
// of request verbs a Controller accepts.
func KnownOp(op string) bool {
	switch op {
	case OpImage, OpStatus, OpSetIolet, OpPause, OpResume, OpQuit:
		return true
	}
	return false
}

// Controller is the transport-agnostic steering front door of a single
// simulation: any number of producers (the legacy TCP protocol, the
// HTTP service, in-process callers) submit ops, and the simulation
// master polls them between time steps exactly as before. Extracting
// this queue from the TCP Server is what lets one solver loop serve
// many transports at once.
type Controller struct {
	reqs      chan *Op
	done      chan struct{}
	closeOnce sync.Once
}

// NewController returns a controller with the standard request buffer.
func NewController() *Controller {
	return &Controller{reqs: make(chan *Op, 64), done: make(chan struct{})}
}

// Submit enqueues a request and returns the pending Op whose reply
// channel resolves once the simulation loop services it. Unknown verbs
// and closed controllers fail immediately without touching the queue.
func (c *Controller) Submit(msg ClientMsg) (*Op, error) {
	if !KnownOp(msg.Op) {
		return nil, fmt.Errorf("steering: unknown op %q", msg.Op)
	}
	// Check closed first: a select with both cases ready picks
	// randomly, and a closed controller must never accept work.
	if c.Closed() {
		return nil, ErrClosed
	}
	op := &Op{Msg: msg, reply: make(chan ServerMsg, 1)}
	select {
	case c.reqs <- op:
		return op, nil
	case <-c.done:
		return nil, ErrClosed
	}
}

// Do submits a request and blocks for the simulation's reply. A reply
// carrying a server-side error is surfaced as a Go error, mirroring
// the TCP client's round trip.
func (c *Controller) Do(msg ClientMsg) (ServerMsg, error) {
	op, err := c.Submit(msg)
	if err != nil {
		return ServerMsg{}, err
	}
	select {
	case rep := <-op.reply:
		if rep.Error != "" {
			return rep, fmt.Errorf("steering: %s", rep.Error)
		}
		return rep, nil
	case <-c.done:
		return ServerMsg{}, ErrClosed
	}
}

// Poll returns the next pending request without blocking, or nil.
func (c *Controller) Poll() *Op {
	select {
	case op := <-c.reqs:
		return op
	default:
		return nil
	}
}

// PollWait blocks until a request arrives or the controller closes;
// used while the simulation is paused. Once closed it always returns
// nil, even with ops still queued — their submitters are unblocked
// through the done signal instead.
func (c *Controller) PollWait() *Op {
	if c.Closed() {
		return nil
	}
	select {
	case op := <-c.reqs:
		return op
	case <-c.done:
		return nil
	}
}

// Done exposes the closed signal so transports can unblock.
func (c *Controller) Done() <-chan struct{} { return c.done }

// Closed reports whether Close has been called.
func (c *Controller) Closed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Close drains the controller: pending and future Submit/Do calls
// return errors and PollWait unblocks. Safe to call more than once.
func (c *Controller) Close() {
	c.closeOnce.Do(func() { close(c.done) })
}
