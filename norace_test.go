//go:build !race

package sgprs_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
