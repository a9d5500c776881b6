#!/usr/bin/env bash
# Bounds-check gate for the unrolled D3Q19 kernel (CI runs this).
#
# Lists every bounds check the compiler leaves in
# internal/lb/kernel_d3q19.go, each as "<check kind> | <source line>",
# and compares the list with bce_allow.txt next to this script: the
# scatter stores through the stream table, the per-site slice
# expressions and the three weight-class loads are expected; a refactor
# that reintroduces a check inside the unrolled body changes the list
# and fails the job. Source text instead of line numbers, so moving
# code does not.
#
#   bash internal/lb/testdata/bce_gate.sh           # check
#   bash internal/lb/testdata/bce_gate.sh -update   # accept the current list
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../../.."
allow=internal/lb/testdata/bce_allow.txt
found="$(go build -gcflags=-d=ssa/check_bce ./internal/lb 2>&1 |
	grep 'kernel_d3q19\.go:' |
	while IFS=: read -r file line _ msg; do
		printf '%s | %s\n' "${msg# Found }" "$(sed -n "${line}p" "$file" | sed -E 's/^[[:space:]]+//')"
	done | sort)"
if [ -z "$found" ]; then
	echo "bce_gate: the compiler reported nothing for kernel_d3q19.go (did the build fail?)" >&2
	exit 1
fi
if [ "${1:-}" = "-update" ]; then
	printf '%s\n' "$found" >"$allow"
	exit 0
fi
diff -u "$allow" <(printf '%s\n' "$found")
