#!/usr/bin/env bash
# Tier-1 verification: lint the public headers, configure with -Wall -Wextra
# (as errors), build everything (library, tests, benches, examples), and run
# the test suite.
# Usage: scripts/check.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# Doc-comment lint: every header under src/ must open with a file-level
# `//` comment explaining what the module models or does.
missing=0
for header in $(find src -name '*.hpp' | sort); do
    if [ "$(head -c 2 "$header")" != "//" ]; then
        echo "check.sh: $header lacks a file-level doc comment" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ] || exit 1

cmake -B "$BUILD_DIR" -S . -DFARE_WERROR=ON
cmake --build "$BUILD_DIR" -j"$(nproc)"
cd "$BUILD_DIR"
# -LE large: the million-node resource-bound smokes are a separate Release
# CI lane (`ctest -L large`), not part of the default tier-1 sweep.
ctest -LE large --output-on-failure -j"$(nproc)"
