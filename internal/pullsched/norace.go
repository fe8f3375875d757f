//go:build !race

package pullsched

// poison: see race.go.
const poison = false
