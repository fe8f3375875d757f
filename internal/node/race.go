//go:build race

package node

// poison turns on the keep-alive FIFO's consistency check: a container
// found in a node's parked FIFO in any state but Idle — expiring,
// reused warm, torn down — panics with its id and state. It rides the
// race build so CI's `go test -race ./...` runs every simulator suite
// with it on.
const poison = true
