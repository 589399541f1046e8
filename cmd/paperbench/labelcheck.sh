#!/usr/bin/env bash
# Checks that the fig4_timeline and s2_em3d_runlog goldens in the working
# tree differ from those at a git revision (default HEAD) in fingerprint
# labels alone:
#
#   bash cmd/paperbench/labelcheck.sh [REV]
#
# A run's label hashes its canonical RunConfig, so a change to the
# fields of machine.Config renames every run even when no simulated byte
# moves, and these two goldens, which name runs by label, must then be
# rewritten with -update. Run this from the repository root after such a
# rewrite. It checks that
#   - timeline.sha256 holds the same digest for each app and mechanism;
#   - tracedump.txt's lines are equal but for the run names in its
#     "== trace" headers;
#   - runlog.jsonl's records are equal as a set once "fingerprint" is
#     dropped.
set -euo pipefail

rev=${1:-HEAD}
g=cmd/paperbench/testdata/golden
label='_[0-9a-f]{16}'

# same FILE SED SORT: FILE at rev and in the tree are equal once SED has
# edited each line and, with SORT set to sort, the lines are sorted.
same() {
	if ! diff <(git show "$rev:$1" | sed -E "$2" | $3) <(sed -E "$2" "$1" | $3) >/dev/null; then
		echo "labelcheck: $1 differs from $rev beyond its labels" >&2
		exit 1
	fi
	echo "labelcheck: $1: $(wc -l <"$1") lines, equal to $rev's but for labels"
}

same "$g/fig4_timeline/timeline.sha256" "s/$label\\.json\$/.json/" cat
same "$g/fig4_timeline/tracedump.txt" "s/^(== trace [^ ]+)$label /\\1 /" cat
same "$g/s2_em3d_runlog/runlog.jsonl" 's/^\{"fingerprint":"[0-9a-f]{16}",/{/' sort
