#!/usr/bin/env bash
# Full local CI gate: release build, test suite, lints, formatting.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, offline) =="
cargo build --release --offline --workspace

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
# The crash-recovery property (every op kind, mirror ops and handoffs
# carrying Fig. 2's profile included, crashed at any point) and the
# ownership test (a user mirrored, owned, handed off and back, its
# queries held to a reference's at three times of day) run here too.
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
sleep 1
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
grep -Eq "router: drained \([1-9][0-9]* requests, [0-9]+ handoffs, 0 route failures\)" /tmp/lbsp_heal_router.txt
kill "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true
wait "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true
rm -rf "$HEAL_DIR"
trap - EXIT

echo "== cluster smoke (router + 2 nodes, byte-identity, clean drain) =="
# Runs after the chaos stages on purpose: --cluster-verify passing here
# is the post-chaos byte-identity gate the self-healing smoke defers to.
CLUSTER_DIR=$(mktemp -d)
mkfifo "$CLUSTER_DIR/router_stdin"
./target/release/repro --serve 127.0.0.1:7645 --wal-dir "$CLUSTER_DIR/n0" >/tmp/lbsp_cluster_n0.txt 2>&1 &
NODE0_PID=$!
./target/release/repro --serve 127.0.0.1:7646 --wal-dir "$CLUSTER_DIR/n1" >/tmp/lbsp_cluster_n1.txt 2>&1 &
NODE1_PID=$!
trap 'kill -9 "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true; rm -rf "$CLUSTER_DIR"' EXIT
for _ in $(seq 1 50); do
  if ./target/release/repro --stats 127.0.0.1:7645 >/dev/null 2>&1 &&
     ./target/release/repro --stats 127.0.0.1:7646 >/dev/null 2>&1; then break; fi
  sleep 0.1
done
./target/release/repro --route 127.0.0.1:7647 \
  --nodes 127.0.0.1:7645,127.0.0.1:7646 \
  <"$CLUSTER_DIR/router_stdin" >/tmp/lbsp_cluster_router.txt 2>&1 &
ROUTER_PID=$!
# Hold the router's stdin open for its lifetime; closing fd 9 is the
# shutdown signal.
exec 9>"$CLUSTER_DIR/router_stdin"
for _ in $(seq 1 50); do
  if grep -q "routing for 2 node(s)" /tmp/lbsp_cluster_router.txt; then break; fi
  sleep 0.1
done
# Boundary-crossing workload through the router, byte-compared against
# an in-process sequential engine; exits non-zero on any divergence.
./target/release/repro --cluster-verify 127.0.0.1:7647 | tee /tmp/lbsp_cluster_verify.txt
grep -q "byte-identical to the sequential engine" /tmp/lbsp_cluster_verify.txt
# The router serves through the same front door as a node, so its own
# STATS attributes the router hop: replies were written, and timed.
./target/release/repro --stats 127.0.0.1:7647 >/tmp/lbsp_cluster_router_stats.txt
grep -Eq 'lbsp_stage_micros_count\{stage="outbound_wait"\} [1-9]' /tmp/lbsp_cluster_router_stats.txt
# EOF on stdin must drain the router cleanly — with handoffs performed
# and zero route failures.
exec 9>&-
wait "$ROUTER_PID"
grep -Eq "router: drained \([1-9][0-9]* requests, [1-9][0-9]* handoffs, 0 route failures\)" /tmp/lbsp_cluster_router.txt
kill "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true
wait "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true
rm -rf "$CLUSTER_DIR"
trap - EXIT

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
# unseen).
CARGO_TARGET_DIR=target/lbsbench-build \
  cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke | tee /tmp/lbsp_lbsbench_smoke.txt
awk '$1 == "cluster.node_frames_per_update" { frames = $2; seen++ }
     $1 == "cluster.mirror_drops" { drops = $2; seen++ }
     $1 == "anonymizer.fail_ratio" { fails = $2; seen++ }
     END { exit !(seen == 3 && frames < 1.5 && drops == 0 && fails == 0) }' /tmp/lbsp_lbsbench_smoke.txt

echo "== benches compile =="
cargo bench --workspace --offline --no-run

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustfmt check =="
cargo fmt --all --check

echo "CI gate passed."
