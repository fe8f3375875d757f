//go:build !race

package sim

// poison: see race.go.
const poison = false
