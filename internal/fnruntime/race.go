//go:build race

package fnruntime

// poison turns on the one-owner check for recycled invocations: once its
// submitter recycles an invocation, recycling it again, executing it or
// advancing its body panics with its ID until Reuse hands it a new
// request. It rides the race build so CI's `go test -race ./...` runs
// every simulator suite with it on.
const poison = true
