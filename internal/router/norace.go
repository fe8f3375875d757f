//go:build !race

package router

// poison: see race.go.
const poison = false
