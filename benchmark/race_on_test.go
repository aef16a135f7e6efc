//go:build race

package main

// raceEnabled reports that the race detector is on: everything runs several
// times slower, so the smoke test cannot hold the frozen rates.
const raceEnabled = true
