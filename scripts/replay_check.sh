#!/bin/sh
# Replay differential gate (CI): the suite's schema-stable snapshot
# must be byte-identical whether the schemes replay a recorded trace
# or execute directly (-noreplay) — both on a clean suite run and
# under a deterministic simulator-level fault plan (rejected CU
# requests, resize stalls, dropped timer samples, flipped BBV bits).
# Direct execution is the oracle for the record-once/replay-many path.
# The clean pass also diffs the phase-detector comparison table
# (acetables -detectors, whose stdout carries no wall times), the one
# end-to-end output of the WSS scheme's replays, and the three-CU table
# (acetables -threecu), the one end-to-end output of the replays with
# the issue-queue unit enabled.
set -eu

GO=${GO:-go}
TMP="${TMPDIR:-/tmp}/acedo_replay_check_$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

cat > "$TMP/faults.json" <<'JSON'
{
  "seed": 1337,
  "rules": [
    {"point": "unit-request", "kind": "reject", "every": 7},
    {"point": "resize", "kind": "stall", "every": 5, "stall_cycles": 40},
    {"point": "timer-sample", "kind": "drop", "every": 11},
    {"point": "bbv-signature", "kind": "bitflip", "every": 13}
  ]
}
JSON

for plan in none faults; do
    args=""
    [ "$plan" = faults ] && args="-faults $TMP/faults.json"
    $GO run ./cmd/acetables -json "$TMP/replay_$plan.json" -q $args
    $GO run ./cmd/acetables -json "$TMP/direct_$plan.json" -q -noreplay $args
    cmp "$TMP/replay_$plan.json" "$TMP/direct_$plan.json"
    echo "replay-check ($plan): snapshots byte-identical"
done

$GO run ./cmd/acetables -detectors -q > "$TMP/replay_detectors.txt"
$GO run ./cmd/acetables -detectors -q -noreplay > "$TMP/direct_detectors.txt"
cmp "$TMP/replay_detectors.txt" "$TMP/direct_detectors.txt"
echo "replay-check (detectors): tables byte-identical"

$GO run ./cmd/acetables -threecu -q > "$TMP/replay_threecu.txt"
$GO run ./cmd/acetables -threecu -q -noreplay > "$TMP/direct_threecu.txt"
cmp "$TMP/replay_threecu.txt" "$TMP/direct_threecu.txt"
echo "replay-check (threecu): tables byte-identical"
