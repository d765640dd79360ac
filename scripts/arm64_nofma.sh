#!/usr/bin/env bash
# Cross-compiles internal/tensor for arm64 with the assembly listing on and
# fails if any of the float32 kernels that must round every product before
# adding it (the matmul accumulation, AccumStrided, MatMulT's and MulVec's
# dot products) contains a fused multiply-add. Run from anywhere in the
# checkout:
#
#   ./scripts/arm64_nofma.sh
set -euo pipefail
cd "$(dirname "$0")/.."
# -a keeps the listing from being skipped by a build-cache hit.
listing=$(GOARCH=arm64 go build -a -gcflags='nora/internal/tensor=-S' ./internal/tensor 2>&1)
want='^nora/internal/tensor[.](accumRows|accumQuadGo|accumStridedGo|accumStrided|AccumStrided|matMulTRange|MulVecInto)$'
echo "$listing" | awk -v want="$want" '
	/^[^ \t]/ {
		fn = ($2 == "STEXT") ? $1 : ""
		if (fn ~ want && !(fn in seen)) { seen[fn] = 1; n++ }
		next
	}
	fn ~ want && /\t(FMADDS|FMSUBS|FNMADDS|FNMSUBS)\t/ { print fn ":" $0; bad = 1 }
	END {
		if (n != 7) { print "expected 7 kernel listings, found " n; bad = 1 }
		if (bad) exit 1
		print "arm64: no fused multiply-add in the float32 kernels"
	}'
