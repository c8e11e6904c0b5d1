#!/usr/bin/env bash
# Fails if the compiler fuses any floating-point multiply-add in the module
# (DESIGN.md §6). The Go spec lets a compiler fuse x*y + z into one fused
# multiply-add, which rounds once instead of twice; amd64 never fuses, but
# arm64, ppc64le, s390x and riscv64 do, so an unrounded product would make a
# run's result depend on the CPU architecture. An explicit conversion,
# float64(x*y) + z, rounds the product and blocks the fusion.
#
#   bash scripts/fma-check.sh        (or `make fma-check`)
#
# It cross-compiles every package but the sgprs-lint analyzers for each
# fusing architecture with -S and fails on any fused instruction in the
# module's own code, printing its source line. The toolchain cross-compiles
# from GOROOT, so this needs no download.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
mapfile -t pkgs < <("$GO" list ./... | grep -v '^sgprs/internal/lint')

fail=0
for arch in arm64 ppc64le s390x riscv64; do
	out=$(GOARCH=$arch "$GO" build -gcflags='sgprs/...=-S' "${pkgs[@]}" 2>&1) || {
		echo "$out" >&2
		exit 1
	}
	# -S lines read "\t0x0010 00016 (file.go:12)\tFMADDD\t...".
	fused=$(grep -E '^\s+0x[0-9a-f]+ [0-9]+ \(.*\)\s+F(N)?M(ADD|SUB)[DS]?\s' <<<"$out" |
		sed -E 's/^.*\((.*)\)\s+(\S+).*$/\1 \2/' | sort -u || true)
	if [ -n "$fused" ]; then
		echo "fma-check: $arch fuses a multiply-add; round the product with float64(x*y):" >&2
		echo "$fused" >&2
		fail=1
	fi
done
if [ "$fail" = 0 ]; then
	echo "fma-check: no fused multiply-add on arm64, ppc64le, s390x or riscv64"
fi
exit "$fail"
