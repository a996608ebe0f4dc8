//go:build race

package campaign

// raceEnabled reports a -race build, whose sync.Pool drops Puts, so
// allocation counts vary from run to run.
const raceEnabled = true
