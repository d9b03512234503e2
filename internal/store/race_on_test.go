//go:build race

package store

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random share of what it is handed, so allocation
// counts are not the production path's, and the allocation-count gates
// skip their count (the hot-path CI step runs them without -race).
const raceEnabled = true
