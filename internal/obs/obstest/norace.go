//go:build !race

package obstest

// RaceEnabled: see race.go.
const RaceEnabled = false
