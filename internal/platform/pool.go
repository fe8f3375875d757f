package platform

import "sync"

// This file is the hot path's allocation recycling (DESIGN.md §14). The
// warm steady state reuses three object classes through sync.Pools, each
// recycled by its one owner at the moment nothing else can reach it:
//
//   - pendingCall: one per Invoke. A call always has exactly one owner.
//     It is its caller's from Invoke to return, except that a caller
//     whose context ends before a group claimed the call hands it over
//     (state abandoned, under the function's mu) to the window's claim
//     and never looks at it again. The owner at the end recycles it: the
//     caller after its last ticket or when its context ends in a retry's
//     backoff, the claim when it drops the call.
//   - callGroup: one closed window's group — the slice it travels in and
//     the shared state its members run on. It is its closer's until the
//     last ticket is sent, then its members'; the member that takes
//     remaining to zero recycles it, every other member being done
//     reading it by then.
//   - invState: one handler attempt's Resources view + borrow set +
//     Invocation. Recycled only when runHandler reports the handler
//     actually returned; a timeout-abandoned handler keeps its state
//     (GC'd later) so it can never scribble on a recycled object.

// pendingCallPool recycles pendingCall objects, each keeping its
// buffered ticket channel across reuses (the channel is provably empty on
// recycling: a claim sends exactly one ticket and the caller receives it
// before it settles; an abandoned call was never claimed).
var pendingCallPool = sync.Pool{
	New: func() any { return &pendingCall{ticket: make(chan *callGroup, 1)} },
}

func getPendingCall() *pendingCall {
	return pendingCallPool.Get().(*pendingCall)
}

func putPendingCall(c *pendingCall) {
	c.ctx = nil
	c.payload = nil
	c.arrive = 0
	c.attempts = 0
	c.trace = 0
	c.state = callWaiting
	pendingCallPool.Put(c)
}

// groupPool recycles callGroups, each keeping its calls slice across
// reuses so a steady group size appends into warm memory.
var groupPool = sync.Pool{
	New: func() any { return &callGroup{calls: make([]*pendingCall, 0, 8)} },
}

// getGroup returns an empty group with capacity for at least n calls.
func getGroup(n int) *callGroup {
	g := groupPool.Get().(*callGroup)
	if cap(g.calls) < n {
		g.calls = make([]*pendingCall, 0, n)
	}
	return g
}

// putGroup resets the group — call pointers included, so a pooled slice
// never pins finished invocations — and recycles it (remaining is zero:
// either the group was never dispatched or its last member is calling).
func putGroup(g *callGroup) {
	clear(g.calls)
	*g = callGroup{calls: g.calls[:0]}
	groupPool.Put(g)
}

// invState is one handler attempt's per-invocation state: the Resources
// view handed to the handler, the borrow set it releases through, and
// the Invocation itself. Pooling it removes the three hottest per-attempt
// allocations.
type invState struct {
	res     Resources
	borrows borrowSet
	inv     Invocation
}

var invStatePool = sync.Pool{
	New: func() any { return new(invState) },
}

func getInvState() *invState {
	return invStatePool.Get().(*invState)
}

// putInvState resets and recycles an attempt's state. borrowSet embeds a
// mutex, so the struct is never copied whole: fields reset individually
// (releaseAll already emptied the borrow set).
func putInvState(st *invState) {
	st.res = Resources{}
	st.inv = Invocation{}
	invStatePool.Put(st)
}
