//go:build race

package sim

// poison turns on the one-owner check for recycled one-shots: a node on
// the free list is marked, and firing, queuing or freeing a marked node
// panics with the (at, seq) it last carried. It rides the race build so
// CI's `go test -race ./...` runs every simulator suite with it on.
const poison = true
