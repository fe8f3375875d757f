//go:build race

package obstest

// RaceEnabled reports whether the race detector is instrumenting this
// build. Allocation-count assertions skip under it: the instrumented
// runtime allocates on its own behalf, and sync.Pool deliberately drops
// a share of its puts under race to widen interleaving coverage.
const RaceEnabled = true
