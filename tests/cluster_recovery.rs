//! Handoff durability: a cluster node hard-killed at the worst point of
//! a `USER_HANDOFF` — the incoming `HandoffIn` record reached its WAL
//! but was never applied in memory — must recover from the log and
//! continue the workload byte-identically to a cluster that never
//! crashed (itself byte-identical to one sequential engine).
//!
//! The test plays the router: it owns the partition map and the
//! owner table and drives K durable `ShardedEngine`s through exactly
//! the calls the real `Router` issues over the wire (handoff export /
//! install, per-row update on the owner, shadow + cloak-ingest
//! broadcasts, standing-query broadcasts). Driving engines directly is
//! what lets it freeze one node at a precise journal boundary — a
//! precision the network stack can't offer. The wire-level half of the
//! story — the real `Router` demoting a faulted node, retrying with
//! backoff, and resyncing it on rejoin — is exercised end-to-end by
//! `tests/cluster_chaos.rs`; this test pins the storage layer that
//! rejoin ultimately stands on.

use privacy_lbs::anonymizer::{CloakRequirement, PrivacyProfile};
use privacy_lbs::cluster::PartitionMap;
use privacy_lbs::geom::{Point, Rect, SimTime};
use privacy_lbs::store::{open_engine, recover_engine, Wal};
use privacy_lbs::system::wire::{self, StandingKind};
use privacy_lbs::system::{
    Durability, EngineConfig, EngineOp, JournalRecord, ShardedEngine, UserId,
};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const USERS: u64 = 32;
const WAVES: u64 = 3;
const NODES: usize = 2;

// ---------------------------------------------------------------------
// Scratch directories (same hygiene as tests/persistence.rs).
// ---------------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "lbsp-cluster-recovery-{tag}-{}-{n}",
            std::process::id()
        ));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------
// Deterministic workload with guaranteed boundary crossings.
// ---------------------------------------------------------------------

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

fn profile(i: u64) -> PrivacyProfile {
    let k = [2u32, 5, 10, 25][(i % 4) as usize];
    PrivacyProfile::uniform(CloakRequirement::k_only(k)).expect("valid profile")
}

fn wave(w: u64) -> Vec<(UserId, Point, SimTime)> {
    (0..USERS)
        .map(|i| {
            let s = i + 31 * w;
            let x = ((s as f64 * 0.618_033_988_749) % 1.0).min(0.999);
            let y = ((s as f64 * 0.414_213_562_373) % 1.0).min(0.999);
            (
                i,
                Point::new(x, y),
                SimTime::from_secs((w * USERS + i) as f64 * 0.5),
            )
        })
        .collect()
}

fn last_segment_seq(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .expect("read log dir")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name();
            let name = name
                .to_str()?
                .strip_prefix("wal-")?
                .strip_suffix(".log")?
                .to_string();
            u64::from_str_radix(&name, 16).ok()
        })
        .max()
        .expect("log has segments")
}

// ---------------------------------------------------------------------
// The test-as-router: the exact call sequence `Router::route_update`
// issues, replayed against engines held in-process.
// ---------------------------------------------------------------------

struct MiniCluster {
    engines: Vec<ShardedEngine>,
    part: PartitionMap,
    owner: HashMap<UserId, usize>,
    handoffs: u64,
}

impl MiniCluster {
    /// Migrate `user` from its current owner to `target`
    /// (HANDOFF_PULL → HANDOFF_PUSH at the engine layer).
    fn handoff(&mut self, user: UserId, from: usize, to: usize) {
        let msg = self.engines[from]
            .handoff_export(user)
            .expect("registered user exports");
        self.engines[to].handoff_install(&msg);
        self.owner.insert(user, to);
        self.handoffs += 1;
    }

    /// One routed update: handoff if the user crossed a boundary, cloak
    /// on the owner, broadcast the shadow position and (on success) the
    /// owner's exact cloaked reply to every other node.
    fn update(&mut self, user: UserId, p: Point, t: SimTime) -> Vec<u8> {
        let target = self.part.node_of(p);
        if let Some(&cur) = self.owner.get(&user) {
            if cur != target {
                self.handoff(user, cur, target);
            }
        }
        let bytes = self.engines[target]
            .process_updates_wire(&[(user, p, t)])
            .into_iter()
            .next()
            .expect("one row in, one frame out")
            .expect("registered user cloaks")
            .to_vec();
        for i in 0..self.engines.len() {
            if i != target {
                self.engines[i].apply_shadow_update(&[(user, p, t)]);
            }
        }
        let cloaked = wire::decode_cloaked_update(&bytes).expect("owner reply decodes");
        for i in 0..self.engines.len() {
            if i != target {
                self.engines[i].apply_cloak_ingest(&cloaked);
            }
        }
        bytes
    }
}

/// Standing-query setup, broadcast to every node (ids stay in
/// lockstep); returns `(count id, range id)`.
fn install_standing(engines: &mut [ShardedEngine]) -> (u64, u64) {
    let area = Rect::new_unchecked(0.2, 0.2, 0.8, 0.8);
    let mut qc = 0;
    let mut qr = 0;
    for eng in engines.iter_mut() {
        qc = eng.add_standing_count(area);
        qr = eng.add_standing_range(5, 0.25);
    }
    (qc, qr)
}

/// The per-wave observable output: both standing-query states, read
/// from the node that owns them (count registries run in lockstep →
/// node 0; the range query lives on user 5's owner).
fn observe(cluster: &MiniCluster, qc: u64, qr: u64) -> Vec<Vec<u8>> {
    let range_node = *cluster.owner.get(&5).expect("user 5 has an owner");
    let mut out = Vec::new();
    for (node, kind, id) in [
        (0, StandingKind::Count, qc),
        (range_node, StandingKind::Range, qr),
    ] {
        let state = cluster.engines[node]
            .standing_state(kind, id)
            .expect("standing query live");
        out.push(wire::encode_standing_state(&state).to_vec());
    }
    out
}

#[test]
fn node_killed_mid_handoff_recovers_from_wal_and_stays_byte_identical() {
    // ----- Reference: one sequential engine, rows one at a time (the
    // router serializes, so per-row batches are the cluster's unit). ---
    let mut reference = ShardedEngine::new(EngineConfig::new(world()), 1);
    for i in 0..USERS {
        reference.register(i, profile(i));
    }
    let area = Rect::new_unchecked(0.2, 0.2, 0.8, 0.8);
    let qc = reference.add_standing_count(area);
    let qr = reference.add_standing_range(5, 0.25);
    let mut expected: Vec<Vec<u8>> = Vec::new();
    for w in 0..WAVES {
        for (id, p, t) in wave(w) {
            expected.push(
                reference
                    .process_updates_wire(&[(id, p, t)])
                    .into_iter()
                    .next()
                    .expect("one frame")
                    .expect("registered user cloaks")
                    .to_vec(),
            );
        }
        for (kind, id) in [(StandingKind::Count, qc), (StandingKind::Range, qr)] {
            let state = reference.standing_state(kind, id).expect("query live");
            expected.push(wire::encode_standing_state(&state).to_vec());
        }
    }
    let last_t = SimTime::from_secs((WAVES * USERS) as f64 * 0.5);
    expected.push(
        reference
            .range_query(5, last_t, 0.25)
            .expect("user 5 has a cloak")
            .response
            .to_vec(),
    );

    // ----- Durable 2-node cluster, node killed at the first wave-1
    // handoff with the HandoffIn journaled but never applied. -----
    let dirs: Vec<TempDir> = (0..NODES).map(|i| TempDir::new(&format!("n{i}"))).collect();
    let policy = Durability {
        snapshot_every: 16,
        fsync: true,
    };
    let mut engines = Vec::new();
    for dir in &dirs {
        let opened = open_engine(dir.path(), EngineConfig::new(world()), 1, policy)
            .expect("fresh durable node");
        assert!(!opened.recovered);
        engines.push(opened.engine);
    }
    // Registrations land on node 0 (the router's default owner), like
    // the wire path; standing queries broadcast everywhere.
    for i in 0..USERS {
        engines
            .first_mut()
            .expect("node 0 exists")
            .register(i, profile(i));
    }
    let (qc2, qr2) = install_standing(&mut engines);
    assert_eq!((qc2, qr2), (qc, qr), "query ids are deterministic");
    let mut cluster = MiniCluster {
        engines,
        part: PartitionMap::new(world(), NODES),
        owner: (0..USERS).map(|i| (i, 0)).collect(),
        handoffs: 0,
    };

    let mut actual: Vec<Vec<u8>> = Vec::new();
    let mut crashed = false;
    for w in 0..WAVES {
        for (id, p, t) in wave(w) {
            // Crash injection: the first boundary crossing of wave 1.
            let target = cluster.part.node_of(p);
            let cur = *cluster.owner.get(&id).expect("owner known");
            if w == 1 && !crashed && cur != target {
                crashed = true;
                // The outgoing half is a normal durable mutation on the
                // surviving node…
                let msg = cluster.engines[cur]
                    .handoff_export(id)
                    .expect("registered user exports");
                // …but the destination dies with the HandoffIn record
                // fsync'd in its WAL and nothing applied in memory:
                // hard-stop the engine, then append the record exactly
                // as the crashed process's log thread had it.
                let dead = std::mem::replace(
                    &mut cluster.engines[target],
                    ShardedEngine::new(EngineConfig::new(world()), 1),
                );
                drop(dead);
                let dir = dirs[target].path();
                let next = recover_engine(dir)
                    .expect("pre-crash log recovers")
                    .next_op_index;
                let mut wal = Wal::create_segment(dir, last_segment_seq(dir) + 1, next)
                    .expect("segment for the in-flight record");
                wal.append_record(&JournalRecord::Op(EngineOp::HandoffIn { msg: msg.clone() }))
                    .expect("append in-flight handoff");
                wal.sync_log().expect("sync in-flight handoff");
                // Restart the node from its log: the journaled handoff
                // must be applied — dropping it would lose the user's
                // profile fleet-wide (node `cur` already exported it).
                let recovered = recover_engine(dir).expect("node restarts from WAL");
                assert!(recovered.ops_replayed > 0 || recovered.snapshot_op_index.is_some());
                cluster.engines[target] = recovered.engine;
                cluster.owner.insert(id, target);
                cluster.handoffs += 1;
                assert!(
                    cluster.engines[target].registered() > 0,
                    "recovered node re-installed the migrated profile"
                );
            }
            actual.push(cluster.update(id, p, t));
        }
        actual.extend(observe(&cluster, qc, qr));
    }
    let range_node = *cluster.owner.get(&5).expect("user 5 has an owner");
    actual.push(
        cluster.engines[range_node]
            .range_query(5, last_t, 0.25)
            .expect("user 5 has a cloak")
            .response
            .to_vec(),
    );

    assert!(crashed, "workload produced a wave-1 boundary crossing");
    assert!(
        cluster.handoffs * 10 >= USERS,
        "≥10% of users migrated ({} handoffs / {USERS} users)",
        cluster.handoffs
    );
    assert_eq!(expected.len(), actual.len(), "same number of wire frames");
    for (i, (e, a)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(e, a, "wire frame {i} differs after crash + recovery");
    }
}
