package cliutil

import (
	"fmt"
	"os"
)

// Exit codes shared by the command-line tools: 1 for operational failures
// (I/O, simulation, verification), 2 for usage errors (bad flags, unknown
// names, out-of-range arguments) — matching the flag package's own exit 2
// on unparseable flags so scripts can tell "you asked wrong" from "it
// failed".
const (
	ExitFailure = 1
	ExitUsage   = 2
)

// FormatError renders err for the terminal, prefixed with the tool name.
// Structured simulator failures (deadlock, livelock) go through Diagnose
// and keep their multi-line report; anything else is a one-liner. The
// result always ends in a newline.
func FormatError(tool string, err error) string {
	if msg, ok := Diagnose(err); ok {
		return tool + ": " + msg
	}
	return fmt.Sprintf("%s: %v\n", tool, err)
}

// Fatal prints err via FormatError and exits with ExitFailure.
func Fatal(tool string, err error) {
	fmt.Fprint(os.Stderr, FormatError(tool, err))
	os.Exit(ExitFailure)
}

// Fatalf is Fatal for preformatted messages.
func Fatalf(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(ExitFailure)
}

// Usagef reports a usage error — the invocation itself was wrong, not the
// work it requested — and exits with ExitUsage.
func Usagef(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(ExitUsage)
}

// AtLeast reports a usage error naming the flag when its value v is below
// min: a size flag of 0 means 0, never "the default".
func AtLeast(tool, flag string, v, min int) {
	if v < min {
		Usagef(tool, "-%s must be at least %d, got %d", flag, min, v)
	}
}
