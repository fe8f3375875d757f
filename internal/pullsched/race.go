//go:build race

package pullsched

// poison turns on the queue free list's one-owner check: taking a queue
// off the free list that still holds items panics with the function it
// last served. It rides the race build so CI's `go test -race ./...`
// runs every pull suite with it on.
const poison = true
