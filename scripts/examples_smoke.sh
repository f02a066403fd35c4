#!/bin/sh
# Examples smoke (CI): build every program under examples/ and run it
# with its default flags; any non-zero exit fails the step. Each
# example checks its own run end to end (the simulations, the
# in-process service and cluster), so this keeps them working, not
# just compiling. ~11 s on a 2-core host.
set -eu

GO=${GO:-go}
TMP="${TMPDIR:-/tmp}/acedo_examples_smoke_$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

$GO build -o "$TMP/" ./examples/...
for dir in examples/*/; do
    name=$(basename "$dir")
    start=$(date +%s)
    if ! "$TMP/$name" > "$TMP/$name.out" 2>&1; then
        cat "$TMP/$name.out"
        echo "examples-smoke: $name FAILED"
        exit 1
    fi
    echo "examples-smoke: $name ok ($(( $(date +%s) - start )) s)"
done
