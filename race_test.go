//go:build race

package gpuvirt_test

// raceEnabled trims the slowest sweeps when the race detector multiplies
// their cost.
const raceEnabled = true
