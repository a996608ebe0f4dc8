//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation changes the
// relative cost of the program and its traced replay.
const raceEnabled = true
