#!/usr/bin/env bash
# Fails unless the gpu rate sweep, Device.recompute, inlines its per-kernel
# helpers (DESIGN.md §10): an out-of-line call in the sweep's loops spills
# the live accumulators on every visit, so an edit that pushes a helper over
# the compiler's inlining budget costs throughput without failing any test.
#
#   bash scripts/inline-check.sh        (or `make inline-check`)
#
# It builds internal/gpu with -gcflags=-m and checks that the per-kernel gain,
# (*Kernel).aggregateGain, is reported "can inline", and that an "inlining
# call to" each helper below lies inside recompute's lines of engine.go.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
src=internal/gpu/engine.go
helpers=('(*Kernel).aggregateGain' '(*Context).share' 'earlier' 'des.(*Engine).NextSeq' 'des.Time.Add')

out=$("$GO" build -gcflags='sgprs/internal/gpu=-m' ./internal/gpu 2>&1)
read -r first last < <(awk '
	/^func \(d \*Device\) recompute\(/ { first = NR }
	first && !last && /^}/ { last = NR }
	END { print first, last }
' "$src")
if [ -z "$first" ] || [ -z "$last" ]; then
	echo "inline-check: no func (d *Device) recompute in $src" >&2
	exit 1
fi

fail=0
if ! grep -qF 'can inline (*Kernel).aggregateGain' <<<"$out"; then
	echo "inline-check: (*Kernel).aggregateGain is not inlinable" >&2
	fail=1
fi
for h in "${helpers[@]}"; do
	if ! grep -F "inlining call to $h" <<<"$out" |
		awk -F: -v f="$src" -v a="$first" -v b="$last" '$1 == f && $2 >= a && $2 <= b { hit = 1 } END { exit !hit }'; then
		echo "inline-check: recompute ($src:$first-$last) does not inline $h" >&2
		fail=1
	fi
done
if [ "$fail" = 0 ]; then
	echo "inline-check: recompute inlines ${helpers[*]}"
fi
exit "$fail"
