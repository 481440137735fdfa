package memsched

// This file quarantines two deprecated members of the aliased types:
// Options.ParallelCores is ignored and System.ParallelWindows always returns
// (0, 0), because the parallel-window run mode they configured and reported
// was removed. Every run uses the serial cycle-skipping loop. Both wait for a
// change to the repository benchmark, which still calls them; the root
// TestDeprecatedParallelCores pins them until then.
