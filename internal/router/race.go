//go:build race

package router

// poison turns on the one-owner check for recycled bindings: Next, Done
// or detail on a binding already handed back to its policy panics, and
// so does handing back a pull binding whose lease id still waits for a
// grant. It rides the race build so CI's `go test -race ./...` runs
// every router suite with it on.
const poison = true
