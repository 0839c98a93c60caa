#!/usr/bin/env bash
# Multi-process differential smoke: the same workload runs once in-process
# (the oracle) and once as a real 3-process slashd cluster over the TCP-framed
# verbs backend, and the two canonical row dumps must be byte-identical.
# Phase 2 repeats the cluster run with chaos: rank 2 is SIGKILLed once its
# journal shows real progress, respawned against the same journal dir, and the
# merged output must still match the oracle byte-for-byte after the voted
# restart + restore + replay sequence.
#
# All process logs land under the work dir (printed on entry, kept on
# failure) so CI can upload them as artifacts.
#
# Usage: scripts/multiproc-smoke.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="${1:-$(mktemp -d /tmp/multiproc-smoke.XXXXXX)}"
mkdir -p "$WORK"
BIN="$WORK/slashd"
echo "multiproc-smoke: work dir $WORK" >&2

go build -o "$BIN" ./cmd/slashd

# wait_addr <stderr-log>: extract the coordinator's bound address once it is
# listening (it logs "cluster on HOST:PORT").
wait_addr() {
  local log="$1" addr="" i
  for i in $(seq 1 100); do
    addr=$(grep -o 'cluster on [0-9.:]*' "$log" 2>/dev/null | awk '{print $3}' || true)
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    sleep 0.1
  done
  echo "multiproc-smoke: coordinator never bound (see $log)" >&2
  return 1
}

fail() {
  echo "multiproc-smoke: FAIL: $*" >&2
  echo "multiproc-smoke: logs kept in $WORK" >&2
  exit 1
}

# ---- oracle ---------------------------------------------------------------
# Phase 1 and phase 2 share one spec (and therefore one oracle dump): small
# epochs so the chaos kill lands mid-run with journaled progress to restore,
# and enough records that the run outlasts several journal polls (a 3-rank
# cluster ingests 100k records in about 0.2 s on two cores).
WL=nb7 NODES=3 THREADS=2 RECORDS=100000 SEED=7 EPOCH=8192
"$BIN" -workload $WL -nodes $NODES -threads $THREADS -records $RECORDS \
  -seed $SEED -epoch $EPOCH -dump "$WORK/oracle.rows" \
  >"$WORK/oracle.out" 2>"$WORK/oracle.err" || fail "oracle run (see oracle.err)"

run_cluster() { # run_cluster <phase> <chaos:0|1>
  local phase="$1" chaos="$2" addr pids=() r
  "$BIN" -listen 127.0.0.1:0 -workload $WL -nodes $NODES -threads $THREADS \
    -records $RECORDS -seed $SEED -epoch $EPOCH -dump "$WORK/$phase.rows" \
    >"$WORK/$phase-coord.out" 2>"$WORK/$phase-coord.err" &
  local coord=$!
  addr=$(wait_addr "$WORK/$phase-coord.err") || fail "$phase: no coordinator address"
  for r in $(seq 0 $((NODES - 1))); do
    "$BIN" -join "$addr" -rank "$r" -checkpoint-dir "$WORK/$phase-journal-$r" \
      >"$WORK/$phase-worker$r.out" 2>"$WORK/$phase-worker$r.err" &
    pids[r]=$!
  done

  if [ "$chaos" = 1 ]; then
    # Kill rank 2 only after its journal holds real progress, so the restore
    # path rebuilds state instead of rerunning from scratch.
    local victim=2 size=0 i
    local journal="$WORK/$phase-journal-$victim/node00$victim.journal"
    for i in $(seq 1 1500); do
      size=$(stat -c %s "$journal" 2>/dev/null || echo 0)
      [ "$size" -ge 4096 ] && break
      kill -0 "$coord" 2>/dev/null || fail "$phase: coordinator exited before the kill"
      sleep 0.01
    done
    [ "$size" -ge 4096 ] || fail "$phase: victim journal never grew ($size bytes)"
    kill -9 "${pids[$victim]}" 2>/dev/null || true
    disown "${pids[$victim]}" 2>/dev/null || true # keep bash's job-kill notice out of the log
    echo "multiproc-smoke: $phase: SIGKILLed rank $victim at journal size $size" >&2
    sleep 0.2
    "$BIN" -join "$addr" -rank "$victim" -checkpoint-dir "$WORK/$phase-journal-$victim" \
      >"$WORK/$phase-respawn.out" 2>"$WORK/$phase-respawn.err" &
    pids[victim]=$!
  fi

  wait "$coord" || fail "$phase: coordinator exited non-zero (see $phase-coord.err)"
  for r in $(seq 0 $((NODES - 1))); do
    wait "${pids[$r]}" || fail "$phase: worker $r exited non-zero (see $phase-worker$r.err)"
  done
  diff "$WORK/oracle.rows" "$WORK/$phase.rows" >"$WORK/$phase.diff" ||
    fail "$phase: cluster output diverges from oracle (see $phase.diff)"
  echo "multiproc-smoke: $phase: $(wc -l < "$WORK/$phase.rows") rows byte-identical to oracle" >&2
}

run_cluster clean 0
run_cluster chaos 1
grep -q 'voted restarts' "$WORK/chaos-coord.out" || true
restarts=$(awk '/voted restarts/ { print $2 }' "$WORK/chaos-coord.out")
[ "${restarts:-0}" -ge 1 ] || fail "chaos: expected >=1 voted restart, got '${restarts:-none}'"

echo "multiproc-smoke: PASS (clean + chaos with $restarts voted restart(s))" >&2
rm -rf "$WORK"
