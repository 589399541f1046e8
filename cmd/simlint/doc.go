// Command simlint runs the repository's determinism and
// simulation-safety analyzer suite (see internal/lint). It is part of
// `make check` and CI:
//
//	simlint ./...            # lint every package in the module
//	simlint -checks maporder,rawconc ./internal/apps/...
//	simlint -list            # describe the suite
//
// Patterns resolve in the working directory as they do for every go
// command; no pattern means "./...". That pattern stops at a nested
// module, so `make lint` lints the separate cmd/bench module with a
// second call: `go -C cmd/bench run repro/cmd/simlint ./...`.
//
// Diagnostics print as file:line:col: simlint/<check>: message, and the
// exit status is 1 when any diagnostic survives suppression. Suppress a
// finding with a written reason:
//
//	//lint:allow simlint/<check> <reason>
//
// on the flagged line or the line directly above it.
package main
