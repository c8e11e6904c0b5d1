#!/usr/bin/env bash
# Counts the module's non-test Go lines outside bench/ (the benchmark is a
# module of its own) and prints two figures:
#
#   raw    every line of every such file
#   code   lines that are neither blank nor a // comment line
#
#   bash scripts/loc.sh        (or `make loc`)
#
# Hidden directories (.git, the .bench_build/ worktrees) are skipped;
# testdata sources count, as they always have in CHANGES.md's figures.
set -euo pipefail

cd "$(dirname "$0")/.."
find . \( -path ./bench -o -name '.*' ! -name . \) -prune -o \
	-type f -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 cat |
	awk '
		{ raw++ }
		{ t = $0; gsub(/^[ \t]+|[ \t]+$/, "", t) }
		t != "" && t !~ /^\/\// { code++ }
		END { printf "non-test Go outside bench/: %d raw lines, %d non-blank non-comment\n", raw, code }
	'
