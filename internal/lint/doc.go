// Package lint implements simlint, a determinism and simulation-safety
// analyzer suite for this repository. The simulator's core guarantees —
// bit-identical parallel/serial sweep output, memoization keyed by
// canonical RunConfig fingerprints, and seeded fault injection — all
// rest on strict determinism conventions; simlint enforces them
// mechanically so they cannot rot under reviewer fatigue.
//
// The suite has seven checks, each run on one package at a time (see
// the per-check files for details):
//
//	wallclock    — no host time observation in simulator-facing packages
//	unseededrand — no global/unseeded math/rand in simulator-facing packages
//	maporder     — no order-sensitive work inside map iteration
//	rawconc      — no host concurrency in simulator-facing packages
//	fingerprint  — RunConfig memo keys cover every field, by value
//	closedscope  — the simulator-facing packages form a closed world:
//	               they import no other module package, and no type
//	               outside them implements one of their interfaces, so
//	               the checks above see all code a simulation runs
//	intmath      — no floating-point arithmetic in machine-model packages
//
// A diagnostic is suppressed by a comment on the flagged line or the
// line directly above it:
//
//	//lint:allow simlint/<check> <reason>
//
// The reason is mandatory: a suppression documents why the flagged
// construct is deterministic anyway (or host-facing by design).
//
// simlint is stdlib-only: packages are parsed with go/parser and
// type-checked with go/types, resolving stdlib imports from source.
package lint
