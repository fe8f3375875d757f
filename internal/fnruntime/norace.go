//go:build !race

package fnruntime

// poison: see race.go.
const poison = false
