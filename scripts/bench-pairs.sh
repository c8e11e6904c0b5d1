#!/usr/bin/env bash
# Compares the host speed of the working tree against a base revision in
# alternating pairs, e.g.
#
#   bash scripts/bench-pairs.sh BASE [PAIRS [WORKLOADS [run.sh flags...]]]
#   bash scripts/bench-pairs.sh main 10 paper-grid -seed 3
#
# (or `make bench-pairs BASE=main PAIRS=10 WORKLOADS=paper-grid`). It checks
# BASE out as a git worktree under .bench_build/base, then runs
# bench/run.sh on the base and on the working tree PAIRS times, base first in
# odd pairs and working tree first in even ones, so slow stretches of a
# shared host land on both sides. Each pair's summary tables are printed as
# it finishes; at the end each side's run sets are pooled and compared with
# bench/run.sh -compare base head. Run sets and logs stay in
# .bench_build/pairs.
set -euo pipefail

base_ref=${1:?usage: bench-pairs.sh BASE [PAIRS [WORKLOADS [run.sh flags...]]]}
pairs=${2:-10}
workloads=${3:-paper-grid}
shift $(($# < 3 ? $# : 3))

root="$(git rev-parse --show-toplevel)"
wt="$root/.bench_build/base"
out="$root/.bench_build/pairs"
git -C "$root" worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
git -C "$root" worktree prune
git -C "$root" worktree add --detach "$wt" "$base_ref" >/dev/null
trap 'git -C "$root" worktree remove --force "$wt"' EXIT
rm -rf "$out"
mkdir -p "$out"
nw=$(($(tr -cd , <<<"$workloads" | wc -c) + 1))

# run SIDE CHECKOUT PAIR [flags...] runs one side of a pair and prints its
# summary table.
run() {
	local side=$1 dir=$2 pair=$3
	shift 3
	local log="$out/$side-$pair.log"
	bash "$dir/bench/run.sh" -workloads "$workloads" -out "$out/$side-$pair.json" "$@" >"$log" 2>&1 ||
		{ tail -n 20 "$log" >&2; return 1; }
	echo "pair $pair $side:"
	tail -n "$nw" "$log"
}

for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run base "$wt" "$i" "$@"
		run head "$root" "$i" "$@"
	else
		run head "$root" "$i" "$@"
		run base "$wt" "$i" "$@"
	fi
done

# pool SIDE concatenates the side's run sets into one, whose runs -compare
# pools per workload. -out writes indented JSON — "{", the seed line,
# `"runs": [`, the runs, " ]", "}" — so the run blocks splice between commas.
pool() {
	local files=("$out/$1"-*.json) sep=
	{
		head -n 3 "${files[0]}"
		for f in "${files[@]}"; do
			printf '%s' "$sep"
			sed '1,3d' "$f" | sed '$d' | sed '$d'
			sep=,
		done
		printf ' ]\n}\n'
	} >"$out/$1.json"
}
pool base
pool head
bash "$root/bench/run.sh" -compare "$out/base.json" "$out/head.json"
