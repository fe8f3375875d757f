//go:build !race

package node

// poison: see race.go.
const poison = false
