#!/usr/bin/env bash
# Full local CI gate: release build, test suite, lints, formatting.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, offline) =="
cargo build --release --offline --workspace

# Non-test lines of the product: each file under crates/*/src and src
# counted up to its first `#[cfg(test)]`.
echo "non-test lines: $(awk 'FNR == 1 { skip = 0 } /#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n }' $(find crates/*/src src -name '*.rs' | sort))"

echo "== examples (release, one run each) =="
# Clippy only compiles the examples; these walk the engine's private and
# public queries, the sequential private-over-private path, the
# simulation driver and the attack models end to end, and fail on any
# panic. All seven run, each in well under a second once built.
for example in quickstart nearest_friend traffic_dashboard day_in_the_life \
  police_dispatch nearest_gas_station attack_lab; do
  cargo run -q --release --offline --example "$example" >/dev/null
done

echo "== tests =="
cargo test -q --workspace --offline

echo "== lbsp-lint (per-file rules + taint-flow / lock-order / wire conformance) =="
# One run drives every pass (each file is lexed once, shared across
# passes); --json archives the findings artifact for CI diffing and the
# non-zero exit on any finding is the gate itself.
mkdir -p target
if ! cargo run -q -p lbsp-lint --offline -- --json >target/lint-findings.json; then
  cat target/lint-findings.json
  exit 1
fi

echo "== equivalence + loopback under debug_assertions (lock-order checker armed) =="
# The equivalence suite holds the batch-size test (batches of 1 to 256
# rows against the sequential anonymizer) and the engine's own
# edge-crossing tests ride along (users on and across quarter, cell and
# world edges against the sequential cloak; a NaN or out-of-world
# neighbour; a cloak moving across the world staying one record; a
# user's position passing between the mirrored and the owned maps), so
# debug assertions walk the engine's sub-cell counts on every path, and
# after every batch the engine's private records and standing count are
# held against a reference `Server` fed the sequential replies. The count
# view's property test moves, removes and re-adds users until counters
# return to zero, where an underflow is a debug assertion; the quad
# cloak's brute-force climb property reads the same counts with users on
# leaf lines, on the world's far edge and outside it. The loopback
# suite takes the network tier's locks with the checker armed. The codec
# suite (golden bytes, and the strictness table: no strict prefix, no
# appended byte) runs here so an overflow in a length guard panics
# instead of wrapping. The public store's point grid runs here too (its
# property tests, edits and far outliers, and the store's brute-force
# edit scan), so overflow checks cover its `u32` run offsets and clamped
# cell arithmetic.
# The crash-recovery property (every op kind, mirror ops and Fig. 2's
# profile included, crashed at any point) and the ownership test (a user
# mirrored, moved while mirrored, then owned, its queries held to a
# reference's at three times of day) run here too.
#
# `filtered` runs one test target with name filters, and first fails CI
# if any filter matches no test: a renamed test must not drop out of
# this stage unseen.
filtered() {
  local sel=()
  while [ "$1" != "--" ]; do sel+=("$1"); shift; done
  shift
  local listed
  listed=$(cargo test -q --offline "${sel[@]}" -- --list | sed -n 's/: test$//p')
  for f in "$@"; do
    if ! grep -qF -- "$f" <<<"$listed"; then
      echo "ci: test filter '$f' matches no test in ${sel[*]}" >&2
      exit 1
    fi
  done
  cargo test -q --offline "${sel[@]}" -- "$@"
}
cargo test -q --offline --test concurrency
filtered -p lbsp-core --test codec_golden -- keep_their_bytes no_strict_prefix_and_no_longer_buffer_decodes
filtered -p lbsp-core --lib -- journal_record across_the_world sequential_anonymizer out_of_world_neighbour ownership_states
filtered -p lbsp-index --test properties -- sub_cell_counts_match_brute_force_membership_under_edits point_grid_matches_brute_force_under_edits point_grid_with_far_outliers_matches_brute_force
filtered -p lbsp-anonymizer --test properties -- quad_cloak_matches_a_brute_force_climb
filtered -p lbsp-server --lib -- public_store_edits_match_a_brute_force_scan
cargo test -q --offline -p lbsp-store --test recovery_prop
# The outbox explorer walks every interleaving of its scope (about 6 s
# in debug) and the router's unit tests pin the envelope arithmetic.
filtered -p lbsp-cluster --lib -- every_interleaving_keeps_the_outbox_oracles \
  a_share_with_more_unsent_entries_than_an_envelope_carries_leads_with_flushes \
  a_flush_nobody_waits_for_is_acknowledged_within_two_supervisor_ticks
cargo test -q --offline --test net_loopback

echo "== loopback byte-identity (network vs in-process) =="
cargo test -q --offline --release --test net_loopback

echo "== standing queries over the network (release smoke) =="
cargo test -q --offline --release --test standing_network

echo "== STATS scrape smoke (repro --serve / --stats) =="
cargo build -q --release --offline -p lbsp-bench --bin repro
./target/release/repro --serve 127.0.0.1:7641 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  if ./target/release/repro --stats 127.0.0.1:7641 >/tmp/lbsp_stats.txt 2>/dev/null; then
    break
  fi
  sleep 0.1
done
grep -q "lbsp_net_requests_served" /tmp/lbsp_stats.txt
grep -q 'stage="cloak"' /tmp/lbsp_stats.txt
kill "$SERVE_PID" 2>/dev/null || true
trap - EXIT

echo "== crash-recovery smoke (repro --wal-dir, kill -9 mid-run, restart) =="
WAL_DIR=$(mktemp -d)
./target/release/repro --serve 127.0.0.1:7643 --wal-dir "$WAL_DIR" >/tmp/lbsp_wal_boot1.txt &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; rm -rf "$WAL_DIR"' EXIT
for _ in $(seq 1 50); do
  if ./target/release/repro --stats 127.0.0.1:7643 >/dev/null 2>&1; then break; fi
  sleep 0.1
done
grep -q "wal: initialized fresh log" /tmp/lbsp_wal_boot1.txt
# Drive the closed-loop workload and pull the plug mid-run: SIGKILL,
# no drain, no flush beyond what the WAL already fsynced.
./target/release/repro --connect 127.0.0.1:7643 >/dev/null 2>&1 &
LOAD_PID=$!
sleep 1
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true
# Restart on the same directory: recovery must report the journaled
# users and the server must come back alive.
./target/release/repro --serve 127.0.0.1:7643 --wal-dir "$WAL_DIR" >/tmp/lbsp_wal_boot2.txt &
SERVE_PID=$!
for _ in $(seq 1 50); do
  if ./target/release/repro --stats 127.0.0.1:7643 >/tmp/lbsp_wal_stats.txt 2>/dev/null; then break; fi
  sleep 0.1
done
grep -Eq "wal: recovered users=[1-9][0-9]* ops=[1-9][0-9]*" /tmp/lbsp_wal_boot2.txt
grep -q "lbsp_net_requests_served" /tmp/lbsp_wal_stats.txt
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
rm -rf "$WAL_DIR"
trap - EXIT

echo "== cluster chaos drill (in-process sever/crash/rejoin, byte-identity) =="
./target/release/repro --cluster-chaos | tee /tmp/lbsp_cluster_chaos.txt
grep -q "byte-identical across sever/crash/rejoin, 0 fatal route failures" /tmp/lbsp_cluster_chaos.txt
# Archive the proxy's fault-event log as a CI artifact alongside the
# lint findings.
sed -n '/chaos proxy event log:/,$p' /tmp/lbsp_cluster_chaos.txt >target/cluster-chaos-events.txt

echo "== cluster self-healing smoke (kill -9 a node mid-load, WAL restart, rejoin) =="
HEAL_DIR=$(mktemp -d)
mkfifo "$HEAL_DIR/router_stdin"
./target/release/repro --serve 127.0.0.1:7655 --wal-dir "$HEAL_DIR/n0" >/tmp/lbsp_heal_n0.txt 2>&1 &
NODE0_PID=$!
./target/release/repro --serve 127.0.0.1:7656 --wal-dir "$HEAL_DIR/n1" >/tmp/lbsp_heal_n1.txt 2>&1 &
NODE1_PID=$!
trap 'kill -9 "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true; rm -rf "$HEAL_DIR"' EXIT
for _ in $(seq 1 50); do
  if ./target/release/repro --stats 127.0.0.1:7655 >/dev/null 2>&1 &&
     ./target/release/repro --stats 127.0.0.1:7656 >/dev/null 2>&1; then break; fi
  sleep 0.1
done
./target/release/repro --route 127.0.0.1:7657 \
  --nodes 127.0.0.1:7655,127.0.0.1:7656 \
  <"$HEAL_DIR/router_stdin" >/tmp/lbsp_heal_router.txt 2>&1 &
ROUTER_PID=$!
exec 9>"$HEAL_DIR/router_stdin"
for _ in $(seq 1 50); do
  if grep -q "routing for 2 node(s)" /tmp/lbsp_heal_router.txt; then break; fi
  sleep 0.1
done
# Closed-loop load through the router; the client retries RETRYABLE
# route failures, so a healing outage must not surface to it at all.
# (Children forked past this point must not inherit fd 9 — a held
# write end of the FIFO would mask the router's stdin EOF forever.)
./target/release/repro --connect 127.0.0.1:7657 >/tmp/lbsp_heal_load.txt 2>&1 9>&- &
LOAD_PID=$!
# Wait until the router has decoded 200 frames (of the load's 4,300):
# a fixed sleep let a fast box finish the load before the kill, and the
# router then drained before node 1 could rejoin.
for _ in $(seq 1 250); do
  decoded=$(./target/release/repro --stats 127.0.0.1:7657 2>/dev/null |
    sed -n 's/^lbsp_stage_micros_count{stage="frame_decode"} //p')
  if [ "${decoded:-0}" -ge 200 ]; then break; fi
  sleep 0.02
done
# Pull the plug on node 1 mid-load: SIGKILL, no drain, no flush beyond
# what its WAL already fsynced. The router supervisor keeps dialing.
kill -9 "$NODE1_PID" 2>/dev/null || true
wait "$NODE1_PID" 2>/dev/null || true
sleep 0.5
# Restart on the same WAL dir: the node recovers its journaled state
# and the supervisor resyncs it (catch-up replay or bulk resync).
./target/release/repro --serve 127.0.0.1:7656 --wal-dir "$HEAL_DIR/n1" >/tmp/lbsp_heal_n1b.txt 2>&1 9>&- &
NODE1_PID=$!
wait "$LOAD_PID"
grep -q "(0 error replies)" /tmp/lbsp_heal_load.txt
exec 9>&-
wait "$ROUTER_PID"
grep -q "wal: recovered" /tmp/lbsp_heal_n1b.txt
grep -q "router: node 1 rejoined" /tmp/lbsp_heal_router.txt
grep -Eq "router: drained \([1-9][0-9]* requests, 0 route failures\)" /tmp/lbsp_heal_router.txt
kill "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true
wait "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true
rm -rf "$HEAL_DIR"
trap - EXIT

echo "== cluster smoke (router + 2 and 4 nodes, byte-identity, clean drain) =="
# Runs after the chaos stages on purpose: --cluster-verify passing here
# is the post-chaos byte-identity gate the self-healing smoke defers to.
# K = 2 on ports 7645-7647, K = 4 on 7660-7664 (the router last).
for K in 2 4; do
  BASE=$([ "$K" = 2 ] && echo 7645 || echo 7660)
  ROUTER_ADDR=127.0.0.1:$((BASE + K))
  CLUSTER_DIR=$(mktemp -d)
  mkfifo "$CLUSTER_DIR/router_stdin"
  NODE_PIDS=()
  NODE_ADDRS=()
  for n in $(seq 0 $((K - 1))); do
    NODE_ADDRS+=("127.0.0.1:$((BASE + n))")
    ./target/release/repro --serve "${NODE_ADDRS[$n]}" --wal-dir "$CLUSTER_DIR/n$n" \
      >"/tmp/lbsp_cluster_n$n.txt" 2>&1 &
    NODE_PIDS+=($!)
  done
  trap 'kill -9 "${NODE_PIDS[@]}" 2>/dev/null || true; rm -rf "$CLUSTER_DIR"' EXIT
  for _ in $(seq 1 50); do
    up=0
    for addr in "${NODE_ADDRS[@]}"; do
      if ./target/release/repro --stats "$addr" >/dev/null 2>&1; then up=$((up + 1)); fi
    done
    if [ "$up" = "$K" ]; then break; fi
    sleep 0.1
  done
  ./target/release/repro --route "$ROUTER_ADDR" --nodes "$(IFS=,; echo "${NODE_ADDRS[*]}")" \
    <"$CLUSTER_DIR/router_stdin" >/tmp/lbsp_cluster_router.txt 2>&1 &
  ROUTER_PID=$!
  # Hold the router's stdin open for its lifetime; closing fd 9 is the
  # shutdown signal.
  exec 9>"$CLUSTER_DIR/router_stdin"
  for _ in $(seq 1 50); do
    if grep -q "routing for $K node(s)" /tmp/lbsp_cluster_router.txt; then break; fi
    sleep 0.1
  done
  # Users moving anywhere through the router, byte-compared against an
  # in-process sequential engine; exits non-zero on any divergence.
  ./target/release/repro --cluster-verify "$ROUTER_ADDR" --nodes "$K" | tee /tmp/lbsp_cluster_verify.txt
  grep -q "byte-identical to the sequential engine" /tmp/lbsp_cluster_verify.txt
  # The router serves through the same front door as a node, so its own
  # STATS attributes the router hop: replies were written, and timed.
  ./target/release/repro --stats "$ROUTER_ADDR" >/tmp/lbsp_cluster_router_stats.txt
  grep -Eq 'lbsp_stage_micros_count\{stage="outbound_wait"\} [1-9]' /tmp/lbsp_cluster_router_stats.txt
  # EOF on stdin must drain the router cleanly, with zero route failures.
  exec 9>&-
  wait "$ROUTER_PID"
  grep -Eq "router: drained \([1-9][0-9]* requests, 0 route failures\)" /tmp/lbsp_cluster_router.txt
  kill "${NODE_PIDS[@]}" 2>/dev/null || true
  wait "${NODE_PIDS[@]}" 2>/dev/null || true
  rm -rf "$CLUSTER_DIR"
  trap - EXIT
done

echo "== E5, E6, E7 and E14 checks (Fig. 5a/5b recall, Fig. 6a's worked example, standing-count cost) =="
# E5 exits 1 unless every range row's recall is 1.0 and E6 unless every
# NN probe finds the true nearest neighbour; E7 exits 1 unless the
# snapshot count and a standing count over the same six records both
# read 2.7 and [1, 5] with one PDF; E14 exits 1 if 16x more registered
# counts cost 2x the examined work per update.
./target/release/repro e5 e6 e7 e14

echo "== E15 shape check (router + K = 1, 2, 4 nodes, release) =="
# Exits 1 on an error reply, a route failure, or a K = 4 rate below a
# quarter of K = 1's (a quiet node that sleeps instead of waking on its
# router connection reads ~1/100).
./target/release/repro e15

echo "== high-connection smoke (1k+ concurrent loopback connections) =="
# Each connection costs the server one fd (plus one on the client side
# inside the same process); skip rather than fail on boxes with a tiny
# nofile limit.
CONN_SMOKE_TARGET=1024
NOFILE=$(ulimit -n)
if [ "$NOFILE" != "unlimited" ] && [ "$NOFILE" -lt $((CONN_SMOKE_TARGET * 2 + 64)) ]; then
  echo "skipping: ulimit -n is $NOFILE, need $((CONN_SMOKE_TARGET * 2 + 64)) for $CONN_SMOKE_TARGET connections"
else
  ./target/release/repro --conn-smoke "$CONN_SMOKE_TARGET" | tee /tmp/lbsp_conn_smoke.txt
  grep -q "conn-smoke: $CONN_SMOKE_TARGET connections, .* 0 errors, drained cleanly" /tmp/lbsp_conn_smoke.txt
fi

echo "== lbsbench self-tests + smoke (every workload and the ladder, 1 s each) =="
# The harness is a package of its own (not a workspace member), so the
# stages above never build it. Its self-tests need --release: the host
# clock's reference kernel is sized for an optimized build and ticks too
# rarely for `the_thread_ticks_and_stops` in a debug one. They share
# run.sh's target directory so the dependencies compile once. The smoke
# exits non-zero on a wrong output; its ladder also has to show that an
# update still costs about one node frame (3.07 before mirror rows rode
# along), that no mirror frame was dropped, and that no cloak failed (so
# a change to the cloak's count kernel cannot start failing cloaks
# unseen), and that a ping after 50 ms of quiet is answered within 1 ms
# (`net.wake_after_idle_us`: a lone connection's shard waits on its
# socket, where a timer nap read 1.3–1.6 ms).
CARGO_TARGET_DIR=target/lbsbench-build \
  cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke | tee /tmp/lbsp_lbsbench_smoke.txt
awk '$1 == "cluster.node_frames_per_update" { frames = $2; seen++ }
     $1 == "cluster.mirror_drops" { drops = $2; seen++ }
     $1 == "anonymizer.fail_ratio" { fails = $2; seen++ }
     $1 == "net.wake_after_idle_us" { wake = $2; seen++ }
     END { exit !(seen == 4 && frames < 1.5 && drops == 0 && fails == 0 && wake < 1000) }' /tmp/lbsp_lbsbench_smoke.txt

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustfmt check =="
cargo fmt --all --check

echo "CI gate passed."
