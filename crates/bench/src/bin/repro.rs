//! `repro` — regenerates every experiment table in EXPERIMENTS.md, and
//! runs the network, cluster and index tools the experiments are built on.
//!
//! ```text
//! cargo run -p lbsp-bench --bin repro --release            # all experiments
//! cargo run -p lbsp-bench --bin repro --release -- e3 e4   # a subset
//! cargo run -p lbsp-bench --bin repro --release -- --help  # every command
//! ```
//!
//! Each experiment (E1–E15) maps to one figure or section of the paper;
//! see DESIGN.md for the index and EXPERIMENTS.md for recorded results.
//! Every command is one row of [`COMMANDS`]: `--help` prints the table,
//! and any word that names no row prints it to stderr and exits 2.

use lbsp_anonymizer::attack::{BoundaryAttack, CenterAttack, OccupancyAttack};
use lbsp_anonymizer::{
    CloakRequest, CloakRequirement, CloakingAlgorithm, GridCloak, IncrementalCloaker, MbrCloak,
    NaiveCloak, PrivacyProfile, QuadCloak, SharedExecutor, TemporalCloak,
};
use lbsp_bench::{
    all_cloaks, header, load, poi_store, row, sample_ids, standard_positions, uniform_positions,
    world,
};
use lbsp_core::{EngineConfig, ShardedEngine, SimulationConfig, SimulationEngine};
use lbsp_geom::SimTime;
use lbsp_geom::{Point, Rect};
use lbsp_mobility::SpatialDistribution;
use lbsp_server::{
    private_nn_candidates, private_range_candidates, PrivateRecord, PrivateStore, PublicCountQuery,
    PublicNnQuery,
};
use std::time::Instant;

/// One row of the command table: the word that selects it, what may
/// follow that word, one line of help, and what it runs.
struct Command {
    name: &'static str,
    /// An operand placeholder (bracketed when optional), then the
    /// `--option VALUE` pairs the row accepts, in any order.
    synopsis: &'static str,
    help: &'static str,
    run: Run,
}

enum Run {
    /// Runs with the other experiments named, in table order; no
    /// argument, or `all`, runs every one.
    Experiment(fn()),
    /// Runs alone: its name comes first, then its operand and options.
    Mode(fn(&Args)),
}

const fn mode(
    name: &'static str,
    synopsis: &'static str,
    help: &'static str,
    run: fn(&Args),
) -> Command {
    Command {
        name,
        synopsis,
        help,
        run: Run::Mode(run),
    }
}

const fn exp(name: &'static str, help: &'static str, run: fn()) -> Command {
    Command {
        name,
        synopsis: "",
        help,
        run: Run::Experiment(run),
    }
}

const COMMANDS: &[Command] = &[
    mode(
        "--serve",
        "ADDR [--wal-dir DIR] [--threads N]",
        "run the framed TCP service until killed; --wal-dir journals and recovers, \
         --threads sets the poller shards (default 4)",
        |a| {
            serve(
                a.operand(),
                count(a.option("--threads"), 4),
                a.option("--wal-dir"),
            )
        },
    ),
    mode(
        "--connect",
        "ADDR",
        "drive a running service with the closed-loop workload",
        |a| connect(a.operand()),
    ),
    mode(
        "--stats",
        "ADDR",
        "scrape a running service's STATS registry as text",
        |a| stats(a.operand()),
    ),
    mode(
        "--route",
        "ADDR --nodes A,B,...",
        "front running --serve nodes with the cluster router; EOF on stdin drains and exits",
        |a| route(a.operand(), a.option("--nodes").unwrap_or_default()),
    ),
    mode(
        "--cluster-verify",
        "ADDR --nodes K",
        "drive a router over K nodes and an in-process engine alike; exit 1 on the first \
         difference",
        |a| match a.option("--nodes") {
            Some(k) => cluster_verify(a.operand(), count(Some(k), 0)),
            None => usage_error("--cluster-verify needs --nodes K"),
        },
    ),
    mode(
        "--cluster-chaos",
        "",
        "sever/crash/rejoin drill behind a chaos proxy; exit 1 unless byte-identical",
        |_| cluster_chaos(),
    ),
    mode(
        "--cluster",
        "",
        "K = 1, 2, 4 sweep; prints BENCH_cluster.json",
        |_| cluster_sweep(),
    ),
    mode(
        "--net-sweep",
        "",
        "shard and connection sweep; prints BENCH_net.json",
        |_| net_sweep(),
    ),
    mode(
        "--conn-smoke",
        "[N]",
        "hold N (default 1024) connections; exit 1 unless all are served and drained",
        |a| conn_smoke(count(a.operand.as_deref(), 1024)),
    ),
    mode(
        "index-micro",
        "",
        "spatial-index kernels, ns per iteration",
        |_| index_micro(),
    ),
    mode("--help", "", "print this table", |_| print!("{}", usage())),
    exp("e1", "Fig. 1: end-to-end pipeline", e1_pipeline),
    exp("e2", "Fig. 2: privacy profile", e2_profiles),
    exp("e3", "Fig. 3: data-dependent cloaks", e3_data_dependent),
    exp("e4", "Fig. 4: space-dependent cloaks", e4_space_dependent),
    exp("e5", "Fig. 5a: private range query", e5_private_range),
    exp("e6", "Fig. 5b: private NN query", e6_private_nn),
    exp("e7", "Fig. 6a: public count query", e7_public_count),
    exp("e8", "Fig. 6b: public NN query", e8_public_nn),
    exp("e9", "Sec. 5.3: incremental, shared", e9_incremental),
    exp("e10", "Secs. 1, 5: scalability", e10_scalability),
    exp("e11", "extensions beyond the paper", e11_extensions),
    exp("e12", "the engine, wire-identical", e12_engine),
    exp("e13", "TCP on loopback, no errors", e13_network),
    exp("e14", "Sec. 5.3: standing counts", e14_standing),
    exp("e15", "K-node cluster, no failures", e15_cluster),
];

/// What followed a mode's name on the command line.
struct Args {
    operand: Option<String>,
    options: Vec<(String, String)>,
}

impl Args {
    /// The operand; `parse_mode` has checked that a required one is there.
    fn operand(&self) -> &str {
        self.operand.as_deref().unwrap_or_default()
    }

    fn option(&self, flag: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads the command line against [`COMMANDS`]: a mode's name first,
/// or any number of experiment names and `all`.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let named = |word: &str| COMMANDS.iter().find(|c| c.name == word);
    if let Some(cmd) = args.first().and_then(|w| named(w)) {
        if let Run::Mode(run) = cmd.run {
            return run(&parse_mode(cmd, &args[1..]).unwrap_or_else(|e| usage_error(&e)));
        }
    }
    let experiment = |w: &String| matches!(named(w).map(|c| &c.run), Some(Run::Experiment(_)));
    if let Some(word) = args.iter().find(|w| *w != "all" && !experiment(w)) {
        usage_error(&format!(
            "`{word}` is not an experiment or `all` (a mode goes first, alone)"
        ));
    }
    let all = args.is_empty() || args.iter().any(|w| w == "all");
    println!("# Experiment reproduction — privacy-aware LBS (Mokbel, ICDE 2006)\n");
    for c in COMMANDS {
        match c.run {
            Run::Experiment(run) if all || args.iter().any(|w| w == c.name) => run(),
            _ => {}
        }
    }
}

/// Reads what follows a mode's name against its synopsis.
fn parse_mode(cmd: &Command, rest: &[String]) -> Result<Args, String> {
    let mut rest = rest.iter().peekable();
    let mut synopsis = cmd.synopsis.split_whitespace().peekable();
    let mut operand = None;
    if let Some(slot) = synopsis.next_if(|w| !w.trim_start_matches('[').starts_with("--")) {
        operand = rest.next_if(|w| !w.starts_with("--")).cloned();
        if operand.is_none() && !slot.starts_with('[') {
            return Err(format!("{} needs {slot}", cmd.name));
        }
    }
    let accepted: Vec<&str> = synopsis.map(|w| w.trim_start_matches('[')).collect();
    let mut options = Vec::new();
    while let Some(flag) = rest.next() {
        if !flag.starts_with("--") || !accepted.contains(&flag.as_str()) {
            return Err(format!("{} does not take `{flag}`", cmd.name));
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        options.push((flag.clone(), value.clone()));
    }
    Ok(Args { operand, options })
}

/// The command table as `--help` prints it.
fn usage() -> String {
    let mut out = String::from(
        "usage: repro [all | EXPERIMENT...]  or  repro MODE [ARGS]\n\
         No argument runs every experiment; a mode goes first, alone.\n\n",
    );
    for c in COMMANDS {
        let call = format!("{} {}", c.name, c.synopsis);
        out.push_str(&format!("  {:<44} {}\n", call.trim_end(), c.help));
    }
    out
}

/// Prints `msg` and the command table to stderr and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\n");
    eprint!("{}", usage());
    std::process::exit(2)
}

/// A count given on the command line, or `default` when none was.
fn count(value: Option<&str>, default: usize) -> usize {
    value.map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("`{v}` is not a count")))
    })
}

/// `--route ADDR --nodes A,B,...`: front K running `--serve` nodes with
/// the cluster router. Reads stdin until EOF, then drains gracefully —
/// scripts hold a pipe open for the router's lifetime and close it to
/// stop (see ci.sh's cluster smoke stage).
fn route(addr: &str, nodes_csv: &str) {
    use lbsp_cluster::{Router, RouterConfig};
    let nodes: Vec<&str> = nodes_csv.split(',').filter(|s| !s.is_empty()).collect();
    if nodes.is_empty() {
        usage_error("--route needs --nodes A,B,... (comma-separated node addresses)");
    }
    let router = Router::bind(addr, &nodes, world(), RouterConfig::default())
        .unwrap_or_else(|e| panic!("cannot bind router on {addr}: {e}"));
    println!(
        "routing for {} node(s) on {}; EOF on stdin drains and exits.",
        nodes.len(),
        router.local_addr()
    );
    let mut sink = String::new();
    loop {
        sink.clear();
        match std::io::stdin().read_line(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let report = router.shutdown();
    println!(
        "router: drained ({} requests, {} route failures)",
        report.requests_served, report.route_failures
    );
}

/// `--cluster-verify ADDR --nodes K`: drive a deterministic workload
/// through a running router over K nodes AND through an
/// identically-configured in-process
/// engine, and require every reply — cloaked updates, query candidates,
/// standing registrations and snapshots — to be byte-identical. A
/// closed-loop pass (registrations, a standing count and a standing
/// range query, updates to random points, queries, both snapshots,
/// both deregistrations and the unknown-query error after them) is
/// followed by a pipelined one: registrations, range queries, updates
/// whose owners take turns over the K nodes, and updates with a query
/// on another node behind each, in 32-deep `send_only` / `read_reply`
/// windows, which the router serves as runs spanning the nodes. Exits
/// non-zero on the first divergence.
fn cluster_verify(addr: &str, nodes: usize) {
    use lbsp_bench::netload::serve_engine;
    use lbsp_cluster::owner_of;
    use lbsp_core::wire;
    use lbsp_net::{NetClient, Reply};
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};
    use std::time::Duration;
    let users = 120u64;
    let waves = 2u64;
    let mut engine = serve_engine();
    let mut run = || -> Result<u64, String> {
        let mut client = NetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        client
            .set_write_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let mut compared = 0u64;
        for i in 0..users {
            let k = [2u32, 5, 10, 25][(i % 4) as usize];
            let profile =
                PrivacyProfile::uniform(CloakRequirement::k_only(k)).map_err(|e| e.to_string())?;
            engine.register(i, profile);
            match client
                .register(i, k, 0.0, f64::INFINITY)
                .map_err(|e| format!("register {i}: {e}"))?
            {
                Reply::Ok => {}
                other => return Err(format!("register {i}: unexpected reply {other:?}")),
            }
        }

        // Standing queries: registered through the router before the
        // moving workload, read back and deregistered after it.
        let area = Rect::new_unchecked(0.2, 0.2, 0.7, 0.7);
        let standing = [
            ("count", engine.add_standing_count(area)),
            ("range", engine.add_standing_range(7, 0.1)),
        ];
        let registered = [
            client.register_standing_count(area),
            client.register_standing_range(7, 0.1),
        ];
        for (&(kind, id), got) in standing.iter().zip(registered) {
            let want = wire::encode_standing_ref(&wire::StandingRefMsg { id }).to_vec();
            match got.map_err(|e| format!("standing {kind} registration: {e}"))? {
                Reply::StandingRegistered(bytes) if bytes == want => compared += 1,
                other => return Err(format!("standing {kind} registration: {other:?}")),
            }
        }
        let snapshot = |engine: &lbsp_core::ShardedEngine, id| match engine.standing_state(id) {
            Some(state) => Reply::StandingState(wire::encode_standing_state(&state).to_vec()),
            None => Reply::Error("unknown standing query".into()),
        };
        let mut rng = StdRng::seed_from_u64(20060406);
        for w in 0..waves {
            for i in 0..users {
                let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                let t = SimTime::from_secs((w * users + i) as f64 * 0.25);
                let want = match engine.process_updates_wire(&[(i, p, t)]).into_iter().next() {
                    Some(Ok(bytes)) => bytes.to_vec(),
                    other => return Err(format!("reference update {i}: {other:?}")),
                };
                match client
                    .update(i, p, t)
                    .map_err(|e| format!("update {i}: {e}"))?
                {
                    Reply::Cloaked(bytes) if bytes == want => compared += 1,
                    Reply::Cloaked(_) => {
                        return Err(format!("update {i} wave {w}: cloaked bytes diverge"))
                    }
                    other => return Err(format!("update {i} wave {w}: {other:?}")),
                }
                if i % 10 == 0 {
                    let want = engine
                        .range_query(i, t, 0.05)
                        .map_err(|e| e.to_string())?
                        .response
                        .to_vec();
                    match client
                        .range_query(i, 0.05, t)
                        .map_err(|e| format!("query {i}: {e}"))?
                    {
                        Reply::Candidates(bytes) if bytes == want => compared += 1,
                        Reply::Candidates(_) => {
                            return Err(format!("query {i} wave {w}: candidate bytes diverge"))
                        }
                        other => return Err(format!("query {i} wave {w}: {other:?}")),
                    }
                }
            }
        }
        for &(kind, id) in &standing {
            let got = client
                .standing_snapshot(id)
                .map_err(|e| format!("standing {kind} snapshot: {e}"))?;
            if got != snapshot(&engine, id) {
                return Err(format!("standing {kind} snapshot diverges: {got:?}"));
            }
            compared += 1;
        }
        for &(kind, id) in &standing {
            engine.deregister_standing(id);
            match client
                .deregister_standing(id)
                .map_err(|e| format!("standing {kind} deregistration: {e}"))?
            {
                Reply::Ok => compared += 1,
                other => return Err(format!("standing {kind} deregistration: {other:?}")),
            }
        }
        for &(kind, id) in &standing {
            let got = client
                .standing_snapshot(id)
                .map_err(|e| format!("deregistered {kind} snapshot: {e}"))?;
            match snapshot(&engine, id) {
                want @ Reply::Error(_) if got == want => compared += 1,
                want => {
                    return Err(format!(
                        "deregistered {kind} snapshot: {got:?}, the engine says {want:?}"
                    ))
                }
            }
        }

        // Pipelined: a second cohort registers in 32-deep windows, is
        // placed closed-loop, then every user is queried in windows.
        const WINDOW: usize = 32;
        let cohort: Vec<u64> = (users..2 * users).collect();
        for chunk in cohort.chunks(WINDOW) {
            for &i in chunk {
                let msg = wire::RegisterMsg {
                    user: i,
                    k: [2u32, 5, 10, 25][(i % 4) as usize],
                    a_min: 0.0,
                    a_max: f64::INFINITY,
                };
                let profile = PrivacyProfile::uniform(CloakRequirement::k_only(msg.k))
                    .map_err(|e| e.to_string())?;
                engine.register(i, profile);
                client
                    .send_only(wire::tag::REGISTER, &wire::encode_register(&msg))
                    .map_err(|e| format!("pipelined register {i}: {e}"))?;
            }
            for &i in chunk {
                match client.read_reply() {
                    Ok(Reply::Ok) => compared += 1,
                    other => return Err(format!("pipelined register {i}: {other:?}")),
                }
            }
        }
        let t = SimTime::from_secs((waves * users) as f64 * 0.25);
        for &i in &cohort {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            let want = match engine.process_updates_wire(&[(i, p, t)]).into_iter().next() {
                Some(Ok(bytes)) => bytes.to_vec(),
                other => return Err(format!("reference update {i}: {other:?}")),
            };
            match client
                .update(i, p, t)
                .map_err(|e| format!("update {i}: {e}"))?
            {
                Reply::Cloaked(bytes) if bytes == want => compared += 1,
                other => return Err(format!("placement of pipelined user {i}: {other:?}")),
            }
        }
        let everyone: Vec<u64> = (0..2 * users).collect();
        for chunk in everyone.chunks(WINDOW) {
            for &i in chunk {
                let msg = wire::UserQueryMsg {
                    user: i,
                    radius: 0.05,
                    time: t,
                };
                client
                    .send_only(wire::tag::USER_QUERY, &wire::encode_user_query(&msg))
                    .map_err(|e| format!("pipelined query {i}: {e}"))?;
            }
            for &i in chunk {
                let want = engine
                    .range_query(i, t, 0.05)
                    .map_err(|e| e.to_string())?
                    .response
                    .to_vec();
                match client.read_reply() {
                    Ok(Reply::Candidates(bytes)) if bytes == want => compared += 1,
                    Ok(Reply::Candidates(_)) => {
                        return Err(format!("pipelined query {i}: candidate bytes diverge"))
                    }
                    other => return Err(format!("pipelined query {i}: {other:?}")),
                }
            }
        }

        // Pipelined updates whose owners take turns, then a query behind
        // each: every update follows another node's, so its row rides
        // ahead and the owner serves the update as a batch of one. One
        // node has no turns to take: its consecutive updates would batch.
        let by_owner: Vec<Vec<u64>> = (0..nodes)
            .map(|n| {
                everyone
                    .iter()
                    .copied()
                    .filter(|&u| owner_of(u, nodes) == n)
                    .collect()
            })
            .collect();
        let turns = by_owner.iter().map(Vec::len).min().filter(|_| nodes > 1);
        let alternating: Vec<u64> = (0..turns.unwrap_or(0))
            .flat_map(|t| by_owner.iter().map(move |users| users[t]))
            .collect();
        let updates = alternating
            .chunks(WINDOW)
            .map(|c| c.iter().map(|&i| (i, true)).collect::<Vec<_>>());
        let mixed = (0..)
            .step_by(WINDOW)
            .take_while(|base| base + WINDOW < alternating.len())
            .map(|base| {
                (0..WINDOW / 2)
                    .flat_map(|j| {
                        [
                            (alternating[base + j], true),
                            (alternating[base + 17 + j], false),
                        ]
                    })
                    .collect::<Vec<_>>()
            });
        let t = SimTime::from_secs((waves * users) as f64 * 0.25 + 1.0);
        for (w, chunk) in updates.chain(mixed).enumerate() {
            let mut want = Vec::with_capacity(chunk.len());
            for &(i, update) in &chunk {
                let sent = if update {
                    let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                    want.push(match engine.process_updates_wire(&[(i, p, t)]).remove(0) {
                        Ok(bytes) => Reply::Cloaked(bytes.to_vec()),
                        Err(e) => Reply::Error(e.to_string()),
                    });
                    client.update_send_only(i, p, t)
                } else {
                    let msg = wire::UserQueryMsg {
                        user: i,
                        radius: 0.05,
                        time: t,
                    };
                    let a = engine.range_query(i, t, 0.05).map_err(|e| e.to_string())?;
                    want.push(Reply::Candidates(a.response.to_vec()));
                    client.send_only(wire::tag::USER_QUERY, &wire::encode_user_query(&msg))
                };
                sent.map_err(|e| format!("pipelined window {w}, user {i}: {e}"))?;
            }
            for (&(i, _), want) in chunk.iter().zip(want) {
                match client.read_reply() {
                    Ok(got) if got == want => compared += 1,
                    other => {
                        return Err(format!(
                            "pipelined window {w}, user {i}: {other:?}, the engine says {want:?}"
                        ))
                    }
                }
            }
        }
        Ok(compared)
    };
    match run() {
        Ok(n) => println!("cluster-verify: {n} replies byte-identical to the sequential engine"),
        Err(e) => {
            eprintln!("cluster-verify FAILED against {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// `--cluster-chaos`: the deterministic fault-injection drill. Builds a
/// two-node cluster entirely in-process — node 1 durable (WAL) and
/// reached through a [`lbsp_net::ChaosProxy`] — then walks the full
/// self-healing story while comparing every reply byte-for-byte against
/// a sequential reference engine:
///
/// 1. healthy waves,
/// 2. sever the proxy and crash node 1 — a request for one of its users
///    must fail RETRYABLE (and redact the node's address),
/// 3. keep serving node 0's users while the outage lasts (mirror
///    frames accumulate in node 1's catch-up buffer),
/// 4. restart node 1 from the same WAL directory on a fresh port,
///    retarget and heal the proxy, and retry the stranded request until
///    the supervisor completes the rejoin,
/// 5. a final full wave over both nodes' users.
///
/// Exits non-zero on the first divergence, on any *fatal* route
/// failure, or if the recovery counters show the rejoin never happened.
/// The proxy's timestamped event log is printed for the archive.
fn cluster_chaos() {
    use lbsp_bench::netload::{retry_route, serve_engine};
    use lbsp_cluster::{owner_of, Router, RouterConfig};
    use lbsp_core::{Durability, EngineConfig};
    use lbsp_net::{
        is_retryable_route_failure, ChaosProxy, NetClient, NetConfig, NetServer, Reply,
    };
    use std::time::Duration;

    let users = 40u64;
    let wal_dir = std::env::temp_dir().join(format!("lbsp-cluster-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Node 1's durable engine: same flagship configuration as
    // `serve_engine`, journaled so the crash loses nothing.
    let open_node1 = |dir: &std::path::Path| {
        let mut cfg = EngineConfig::new(world());
        cfg.refine = true;
        let opened = lbsp_store::open_engine(dir, cfg, 1, Durability::default())
            .unwrap_or_else(|e| panic!("cannot open wal dir {}: {e}", dir.display()));
        let mut engine = opened.engine;
        if !opened.recovered {
            engine.load_public(poi_store(1_000, 17).iter().copied().collect());
        }
        (engine, opened.recovered, opened.ops_replayed)
    };
    let (engine1, recovered, _) = open_node1(&wal_dir);
    assert!(!recovered, "chaos drill must start from a fresh wal dir");
    let node1 =
        NetServer::bind("127.0.0.1:0", engine1, NetConfig::default()).expect("bind chaos node 1");
    let node1_addr = node1.local_addr().to_string();
    let proxy = ChaosProxy::bind(node1.local_addr()).expect("bind chaos proxy");

    // Deterministic per-user geometry; ownership is by id, so the drill
    // keeps node 0's users busy during the outage and probes with the
    // first of node 1's.
    let pos = |i: u64, wave: u64| {
        let x = if i.is_multiple_of(2) {
            0.10 + i as f64 * 0.008
        } else {
            0.55 + i as f64 * 0.008
        };
        Point::new(x + wave as f64 * 1e-3, 0.20 + i as f64 * 0.01)
    };
    let stamp = |i: u64, wave: u64| SimTime::from_secs(wave as f64 * 60.0 + i as f64 * 1e-3);
    let on_node0: Vec<u64> = (0..users).filter(|&i| owner_of(i, 2) == 0).collect();
    let probe = (0..users)
        .find(|&i| owner_of(i, 2) == 1)
        .expect("node 1 owns some user");

    let run = |node1: NetServer| -> Result<u64, String> {
        let mut reference = serve_engine();
        let node0 = NetServer::bind("127.0.0.1:0", serve_engine(), NetConfig::default())
            .map_err(|e| format!("bind chaos node 0: {e}"))?;
        let nodes = [node0.local_addr().to_string(), proxy.addr().to_string()];
        let node_refs: Vec<&str> = nodes.iter().map(|s| s.as_str()).collect();
        // Fast, patient reconnect schedule: the drill is single-threaded,
        // so the supervisor must keep trying across the whole scripted
        // outage window rather than declaring the node down.
        let cfg = RouterConfig {
            node_timeout: Duration::from_millis(500),
            reconnect_base: Duration::from_millis(5),
            reconnect_cap: Duration::from_millis(25),
            reconnect_attempts: 2_000,
            ..RouterConfig::default()
        };
        let router = Router::bind("127.0.0.1:0", &node_refs, world(), cfg)
            .map_err(|e| format!("bind chaos router: {e}"))?;
        let mut client =
            NetClient::connect(router.local_addr()).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        client
            .set_write_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let mut compared = 0u64;

        for i in 0..users {
            let k = [2u32, 5, 10, 25][(i % 4) as usize];
            let profile =
                PrivacyProfile::uniform(CloakRequirement::k_only(k)).map_err(|e| e.to_string())?;
            reference.register(i, profile);
            match retry_route(|| client.register(i, k, 0.0, f64::INFINITY))
                .map_err(|e| format!("register {i}: {e}"))?
            {
                Reply::Ok => {}
                other => return Err(format!("register {i}: unexpected reply {other:?}")),
            }
        }
        // One scripted update (plus a query every 5th user) for each user
        // in `ids`, every reply compared against the sequential engine.
        let wave = |wave_no: u64,
                    ids: &[u64],
                    client: &mut NetClient,
                    reference: &mut lbsp_core::engine::ShardedEngine,
                    compared: &mut u64|
         -> Result<(), String> {
            for &i in ids {
                let (p, t) = (pos(i, wave_no), stamp(i, wave_no));
                let want = match reference
                    .process_updates_wire(&[(i, p, t)])
                    .into_iter()
                    .next()
                {
                    Some(Ok(bytes)) => bytes.to_vec(),
                    other => return Err(format!("reference update {i}: {other:?}")),
                };
                match retry_route(|| client.update(i, p, t))
                    .map_err(|e| format!("update {i} wave {wave_no}: {e}"))?
                {
                    Reply::Cloaked(bytes) if bytes == want => *compared += 1,
                    Reply::Cloaked(_) => {
                        return Err(format!("update {i} wave {wave_no}: cloaked bytes diverge"))
                    }
                    other => return Err(format!("update {i} wave {wave_no}: {other:?}")),
                }
                if i % 5 == 0 {
                    let want = reference
                        .range_query(i, t, 0.05)
                        .map_err(|e| e.to_string())?
                        .response
                        .to_vec();
                    match retry_route(|| client.range_query(i, 0.05, t))
                        .map_err(|e| format!("query {i} wave {wave_no}: {e}"))?
                    {
                        Reply::Candidates(bytes) if bytes == want => *compared += 1,
                        Reply::Candidates(_) => {
                            return Err(format!("query {i} wave {wave_no}: candidates diverge"))
                        }
                        other => return Err(format!("query {i} wave {wave_no}: {other:?}")),
                    }
                }
            }
            Ok(())
        };

        let all: Vec<u64> = (0..users).collect();
        // Healthy baseline: wave 0 places every user, wave 1 is steady
        // state.
        wave(0, &all, &mut client, &mut reference, &mut compared)?;
        wave(1, &all, &mut client, &mut reference, &mut compared)?;

        // Crash node 1 behind a severed proxy, then prove the outage is
        // loud, kinded, and address-free for its users...
        eprintln!("cluster-chaos: severing proxy and crashing node 1");
        proxy.sever();
        node1.shutdown();
        std::thread::sleep(Duration::from_millis(50));
        match client.update(probe, pos(probe, 2), stamp(probe, 2)) {
            Err(e) if is_retryable_route_failure(&e) => {
                if e.to_string().contains(&node1_addr) {
                    return Err(format!("route failure leaks the node address: {e}"));
                }
            }
            other => return Err(format!("severed node answered {other:?}")),
        }
        // ...while node 0 keeps serving byte-identically (its mirror
        // frames accumulate in node 1's catch-up buffer).
        wave(2, &on_node0, &mut client, &mut reference, &mut compared)?;

        // Restart from the same WAL directory on a fresh port, heal the
        // proxy, and retry the stranded request until the rejoin lands.
        let (engine1, recovered, replayed) = open_node1(&wal_dir);
        if !recovered {
            return Err("node 1 restart found no WAL state to recover".into());
        }
        eprintln!("cluster-chaos: node 1 recovered from WAL ({replayed} ops); rejoining");
        let node1 = NetServer::bind("127.0.0.1:0", engine1, NetConfig::default())
            .map_err(|e| format!("rebind chaos node 1: {e}"))?;
        proxy.set_upstream(node1.local_addr());
        proxy.restore();
        let (p, t) = (pos(probe, 2), stamp(probe, 2));
        let want = match reference
            .process_updates_wire(&[(probe, p, t)])
            .into_iter()
            .next()
        {
            Some(Ok(bytes)) => bytes.to_vec(),
            other => return Err(format!("reference probe update: {other:?}")),
        };
        match retry_route(|| client.update(probe, p, t))
            .map_err(|e| format!("post-rejoin probe: {e}"))?
        {
            Reply::Cloaked(bytes) if bytes == want => compared += 1,
            other => return Err(format!("post-rejoin probe diverged: {other:?}")),
        }
        // Full steady-state wave over both nodes' users after the rejoin.
        wave(3, &all, &mut client, &mut reference, &mut compared)?;

        let snap = router.metrics_registry().net().snapshot();
        let report = router.shutdown();
        node0.shutdown();
        node1.shutdown();
        if report.route_failures != 0 {
            return Err(format!(
                "{} fatal route failures in a transient single-fault run",
                report.route_failures
            ));
        }
        if snap.retryable_failures == 0 || snap.reconnect_attempts == 0 || snap.node_rejoins == 0 {
            return Err(format!(
                "recovery counters never moved: retryable {}, attempts {}, rejoins {}",
                snap.retryable_failures, snap.reconnect_attempts, snap.node_rejoins
            ));
        }
        eprintln!(
            "cluster-chaos: counters — retryable {}, reconnect attempts {}, rejoins {}",
            snap.retryable_failures, snap.reconnect_attempts, snap.node_rejoins
        );
        Ok(compared)
    };

    let outcome = run(node1);
    println!("chaos proxy event log:");
    for line in proxy.events() {
        println!("  {line}");
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    match outcome {
        Ok(n) => println!(
            "cluster-chaos: {n} replies byte-identical across sever/crash/rejoin, \
             0 fatal route failures"
        ),
        Err(e) => {
            eprintln!("cluster-chaos FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// `--cluster`: the in-process K = 1, 2, 4 sweep. Prints the complete
/// JSON document checked in as BENCH_cluster.json (progress goes to
/// stderr so stdout can be redirected into the file).
fn cluster_sweep() {
    use lbsp_bench::clusterload::cluster_run_concurrent;
    use lbsp_bench::json::{object, Val};
    let users = 300u64;
    let rounds = 32u32;
    let conns = 32usize;
    // Trials are interleaved across K (all of trial 0, then all of
    // trial 1, …) and each K reports its best trial: a timed phase is
    // around half a second, short enough that one co-tenant stall or
    // scheduler episode skews a whole trial, and interleaving keeps one
    // bad episode from landing entirely on one cluster size. The K
    // order flips every cycle so no cluster size always runs first (or
    // last) in a cycle. The best trial is the machine's actual
    // capacity.
    let trials = 6u32;
    let ks = [1usize, 2, 4];
    let mut best: Vec<Option<lbsp_bench::clusterload::ClusterReport>> = vec![None; ks.len()];
    for trial in 0..trials {
        let mut order: Vec<usize> = (0..ks.len()).collect();
        if trial % 2 == 1 {
            order.reverse();
        }
        for slot in order {
            let k = ks[slot];
            eprintln!(
                "cluster sweep: trial {}/{trials}, {k} node(s), {conns} conns, {users} users, \
                 {rounds} rounds…",
                trial + 1
            );
            let r = cluster_run_concurrent(k, conns, users, rounds, 7)
                .unwrap_or_else(|e| panic!("cluster run (K={k}) failed: {e}"));
            if best[slot]
                .as_ref()
                .is_none_or(|b| r.load.rate() > b.load.rate())
            {
                best[slot] = Some(r);
            }
        }
    }
    let mut results = Vec::new();
    for (slot, &k) in ks.iter().enumerate() {
        let r = best[slot].expect("at least one trial");
        results.push(object(&[
            ("nodes", Val::U(k as u64)),
            ("requests", Val::U(r.load.requests)),
            ("secs", Val::F((r.load.secs * 1e3).round() / 1e3)),
            ("rate", Val::F(r.load.rate().round())),
            ("errors", Val::U(r.load.errors)),
            ("route_failures", Val::U(r.route_failures)),
        ]));
    }
    println!(
        "{{\n  \"bench\": \"cluster_throughput\",\n  \"source\": \"repro --cluster\",\n  \
         \"workload\": \"steady-state private range-query serving over concurrent connections \
         (untimed register-and-place warm-up; best of {trials} trials)\",\n  \
         \"users\": {users},\n  \"rounds\": {rounds},\n  \"conns\": {conns},\n  \"results\": [\n    {}\n  ]\n}}",
        results.join(",\n    ")
    );
}

/// `--net-sweep`: the E13 loopback workload as a machine-readable
/// document (`BENCH_net.json` is generated from this), so the framed
/// TCP deployment has a checked-in baseline next to the cluster one.
fn net_sweep() {
    use lbsp_bench::json::{object, Val};
    use lbsp_bench::netload::{closed_loop, concurrent_load, serve_engine};
    use lbsp_net::{NetConfig, NetServer};
    let users = 500u64;
    let rounds = 2u32;
    let mut results = Vec::new();
    for workers in [1usize, 2, 4] {
        eprintln!("net sweep: {workers} shard(s), {users} users, {rounds} rounds…");
        let server = NetServer::bind(
            "127.0.0.1:0",
            serve_engine(),
            NetConfig::with_workers(workers),
        )
        .expect("bind loopback");
        let report = closed_loop(server.local_addr(), users, rounds, 7).expect("loopback workload");
        let snap = server.counters().snapshot();
        server.shutdown();
        results.push(object(&[
            ("workers", Val::U(workers as u64)),
            ("requests", Val::U(report.requests)),
            ("secs", Val::F((report.secs * 1e3).round() / 1e3)),
            ("rate", Val::F(report.rate().round())),
            ("errors", Val::U(report.errors)),
            ("bytes_in", Val::U(snap.bytes_in)),
            ("bytes_out", Val::U(snap.bytes_out)),
        ]));
    }
    // Connection-count axis: fixed total work and a fixed shard count,
    // spread over ever more sockets. Thread-per-connection servers fall
    // off a cliff here; the sharded poller must hold its rate with zero
    // errors and zero protective disconnects at ≥ 1k connections.
    let conn_users = 1024u64;
    let conn_rounds = 2u32;
    let mut conn_results = Vec::new();
    for conns in [1usize, 8, 64, 256, 1024] {
        eprintln!("net sweep: {conns} connection(s), {conn_users} users, {conn_rounds} rounds…");
        let cfg = NetConfig {
            accept_backlog: conns.max(64),
            ..NetConfig::default()
        };
        let server = NetServer::bind("127.0.0.1:0", serve_engine(), cfg).expect("bind loopback");
        let report = concurrent_load(server.local_addr(), conns, conn_users, conn_rounds, 7)
            .expect("concurrent loopback workload");
        let snap = server.counters().snapshot();
        server.shutdown();
        conn_results.push(object(&[
            ("conns", Val::U(conns as u64)),
            ("requests", Val::U(report.requests)),
            ("secs", Val::F((report.secs * 1e3).round() / 1e3)),
            ("rate", Val::F(report.rate().round())),
            ("errors", Val::U(report.errors)),
            ("refused", Val::U(snap.connections_refused)),
            ("slow_disconnects", Val::U(snap.slow_disconnects)),
            ("idle_disconnects", Val::U(snap.idle_disconnects)),
        ]));
    }
    println!(
        "{{\n  \"bench\": \"net_throughput\",\n  \"source\": \"repro --net-sweep\",\n  \
         \"workload\": \"closed-loop register/update/query over loopback TCP\",\n  \
         \"users\": {users},\n  \"rounds\": {rounds},\n  \"results\": [\n    {}\n  ],\n  \
         \"conn_workload\": \"concurrent local-movement closed loop, 4 shards\",\n  \
         \"conn_users\": {conn_users},\n  \"conn_rounds\": {conn_rounds},\n  \
         \"conn_results\": [\n    {}\n  ]\n}}",
        results.join(",\n    "),
        conn_results.join(",\n    ")
    );
}

/// `--conn-smoke N`: holds N simultaneous connections against one
/// sharded-poller server and proves they all stay served — every
/// connection answers a ping when opened and again once all N are up,
/// then the server drains cleanly. Exits nonzero (and says why) if any
/// request errs or any connection is refused or protectively
/// disconnected; the final line is stable for CI to grep.
fn conn_smoke(conns: usize) {
    use lbsp_net::{NetClient, NetConfig, NetServer, Reply};
    use std::time::Duration;
    let cfg = NetConfig {
        accept_backlog: conns.max(64),
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", lbsp_bench::netload::serve_engine(), cfg)
        .expect("bind loopback");
    let addr = server.local_addr();
    eprintln!("conn smoke: opening {conns} connections against {addr}…");
    let mut clients = Vec::with_capacity(conns);
    let mut requests = 0u64;
    let mut errors = 0u64;
    for i in 0..conns {
        let mut c = NetClient::connect(addr)
            .unwrap_or_else(|e| panic!("connection {i} refused after {} open: {e}", clients.len()));
        c.set_read_timeout(Some(Duration::from_secs(30))).ok();
        c.set_write_timeout(Some(Duration::from_secs(30))).ok();
        match c.ping(format!("open-{i}").as_bytes()) {
            Ok(Reply::Pong(_)) => requests += 1,
            other => {
                errors += 1;
                eprintln!("connection {i} first ping failed: {other:?}");
            }
        }
        clients.push(c);
    }
    // Every socket again, now that all N are resident on the shards.
    for (i, c) in clients.iter_mut().enumerate() {
        match c.ping(format!("held-{i}").as_bytes()) {
            Ok(Reply::Pong(_)) => requests += 1,
            other => {
                errors += 1;
                eprintln!("connection {i} held ping failed: {other:?}");
            }
        }
    }
    let snap = server.counters().snapshot();
    drop(clients);
    server.shutdown();
    let ok = errors == 0
        && snap.errors_returned == 0
        && snap.frames_rejected == 0
        && snap.connections_refused == 0
        && snap.slow_disconnects == 0
        && snap.idle_disconnects == 0
        && snap.connections_accepted >= conns as u64;
    if !ok {
        eprintln!(
            "conn smoke FAILED: errors {errors}, server errors {}, rejected {}, refused {}, \
             slow {}, idle {}, accepted {}",
            snap.errors_returned,
            snap.frames_rejected,
            snap.connections_refused,
            snap.slow_disconnects,
            snap.idle_disconnects,
            snap.connections_accepted,
        );
        std::process::exit(1);
    }
    println!("conn-smoke: {conns} connections, {requests} requests, 0 errors, drained cleanly");
}

/// E15: the cluster deployment — closed-loop throughput through the
/// router at K = 1, 2, 4 nodes, with the byte-identity claim restated.
fn e15_cluster() {
    use lbsp_bench::clusterload::cluster_run;
    println!("## E15 — cluster (router + K nodes, loopback)\n");
    println!(
        "K NetServer nodes each own a fixed share of the users, by a hash of\n\
         the id; a router fronts them, sending each user's requests to its\n\
         owner and replicating the position/cloak planes so every cloak sees\n\
         the global population. Claim: replies are byte-identical to one\n\
         sequential engine at every K (asserted by tests/cluster.rs); this\n\
         table prices the cluster layer for ONE closed-loop client — a\n\
         single client can never overlap two requests, so what it sees is\n\
         the O(K) shadow/cloak-ingest fan-out every update pays. The\n\
         concurrent steady-state sweep (repro --cluster, BENCH_cluster.json)\n\
         is where K nodes buy throughput back.\n"
    );
    header(&["nodes", "requests", "req/s", "route failures", "errors"]);
    let mut failed = 0;
    let mut rates = Vec::new();
    for k in [1usize, 2, 4] {
        let r = cluster_run(k, 500, 2, 7).expect("cluster workload");
        failed += r.load.errors + r.route_failures;
        rates.push(r.load.rate());
        row(&[
            format!("{k}"),
            format!("{}", r.load.requests),
            format!("{:.0}", r.load.rate()),
            format!("{}", r.route_failures),
            format!("{}", r.load.errors),
        ]);
    }
    println!();
    require(
        failed == 0,
        "E15: the cluster answered with an error or failed a route",
    );
    // At K = 4 a node idles between the requests it owns, so it must
    // wake when its router connection speaks: one that sleeps out timer
    // naps instead reads ~1/100 of K = 1.
    require(
        rates[2] >= rates[0] / 4.0,
        "E15: K = 4 reads below a quarter of K = 1's rate",
    );
}

/// `--serve ADDR`: run the framed TCP service until killed. With
/// `--wal-dir DIR` every engine mutation is journaled under `DIR`
/// first, so a killed server restarted on the same directory resumes
/// with its users, positions, and standing queries intact.
fn serve(addr: &str, workers: usize, wal_dir: Option<&str>) {
    use lbsp_bench::netload::serve_engine;
    use lbsp_core::{Durability, EngineConfig};
    use lbsp_net::{NetConfig, NetServer};
    let engine = match wal_dir {
        None => serve_engine(),
        Some(dir) => {
            let mut cfg = EngineConfig::new(world());
            cfg.refine = true;
            let opened =
                lbsp_store::open_engine(std::path::Path::new(dir), cfg, 1, Durability::default())
                    .unwrap_or_else(|e| panic!("cannot open wal dir {dir}: {e}"));
            let mut engine = opened.engine;
            if opened.recovered {
                println!(
                    "wal: recovered users={} ops={} from {dir}",
                    opened.users, opened.ops_replayed
                );
            } else {
                // First boot on this directory: seed the public store
                // (journaled, so the restart path replays it too).
                engine.load_public(poi_store(1_000, 17).iter().copied().collect());
                println!("wal: initialized fresh log in {dir}");
            }
            engine
        }
    };
    let server = NetServer::bind(addr, engine, NetConfig::with_workers(workers))
        .unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
    println!(
        "serving privacy-aware LBS on {} ({workers} workers); connect with:\n  \
         cargo run -p lbsp-bench --bin repro --release -- --connect {}\n\
         Ctrl-C to stop.",
        server.local_addr(),
        server.local_addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(5));
        let s = server.counters().snapshot();
        println!(
            "[stats] conns {} (refused {}, closed {})  requests {}  errors {}  slow {}  idle {}",
            s.connections_accepted,
            s.connections_refused,
            s.connections_closed,
            s.requests_served,
            s.errors_returned,
            s.slow_disconnects,
            s.idle_disconnects,
        );
    }
}

/// `--connect ADDR`: drive a running service with the standard
/// closed-loop workload and report throughput.
fn connect(addr: &str) {
    use lbsp_bench::netload::closed_loop;
    let users = 1_000u64;
    let rounds = 3u32;
    println!("driving {addr}: {users} users, {rounds} update rounds (closed loop)…");
    match closed_loop(addr, users, rounds, 7) {
        Ok(report) => println!(
            "done: {} requests in {:.2}s — {:.0} req/s ({} error replies)",
            report.requests,
            report.secs,
            report.rate(),
            report.errors
        ),
        Err(e) => {
            eprintln!("workload failed against {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// `--stats ADDR`: scrape a running service's observability registry
/// (one `STATS` frame) and print the text exposition.
fn stats(addr: &str) {
    use lbsp_net::{NetClient, Reply};
    use std::time::Duration;
    let run = || -> Result<String, String> {
        let mut client = NetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| format!("read timeout: {e}"))?;
        client
            .set_write_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| format!("write timeout: {e}"))?;
        let bytes = match client.stats().map_err(|e| format!("scrape: {e}"))? {
            Reply::Stats(bytes) => bytes,
            Reply::Error(msg) => return Err(format!("server rejected the scrape: {msg}")),
            other => return Err(format!("unexpected reply {other:?}")),
        };
        let snap = lbsp_core::wire::decode_stats_snapshot(&bytes)
            .ok_or_else(|| "malformed stats snapshot payload".to_string())?;
        Ok(snap.to_text())
    };
    match run() {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("stats scrape failed against {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// E13: the network deployment — loopback closed-loop throughput per
/// server poller shard count, with the byte-identity claim restated.
fn e13_network() {
    use lbsp_bench::netload::{closed_loop, serve_engine};
    use lbsp_net::{NetConfig, NetServer};
    println!("## E13 — framed TCP deployment (loopback)\n");
    println!(
        "One closed-loop client drives register/update/query traffic through\n\
         NetClient -> NetServer -> ShardedEngine over loopback TCP. Claim: the\n\
         network hop changes throughput, never bytes — responses are\n\
         byte-identical to the in-process engine at every poller shard count\n\
         (asserted by tests/net_loopback.rs); this table prices the hop.\n"
    );
    header(&[
        "workers",
        "requests",
        "req/s",
        "errors",
        "bytes in",
        "bytes out",
    ]);
    let mut errors = 0;
    for workers in [1usize, 2, 4] {
        let server = NetServer::bind(
            "127.0.0.1:0",
            serve_engine(),
            NetConfig::with_workers(workers),
        )
        .expect("bind loopback");
        let report = closed_loop(server.local_addr(), 1_000, 2, 7).expect("loopback workload");
        errors += report.errors;
        let snap = server.counters().snapshot();
        row(&[
            format!("{workers}"),
            format!("{}", report.requests),
            format!("{:.0}", report.rate()),
            format!("{}", report.errors),
            format!("{}", snap.bytes_in),
            format!("{}", snap.bytes_out),
        ]);
        server.shutdown();
    }
    println!();
    require(errors == 0, "E13: the service answered with an error");
}

/// E14: standing-query maintenance — the uniform-grid area index keeps
/// per-update cost proportional to *overlapping* queries, not to the
/// number registered.
fn e14_standing() {
    use lbsp_core::{StandingQuery, StandingRegistry};
    use std::collections::HashMap;
    println!("## E14 — standing count maintenance (area index)\n");
    println!(
        "Q standing count queries are registered, all but 32 monitoring the\n\
         left half of the world; 20,000 cloak updates then stream through the\n\
         right half only. Claim: per-update work (queries examined via the\n\
         area index, queries actually adjusted) tracks the 32 overlapping\n\
         queries and stays flat as Q grows 16x — the naive O(Q) scan this\n\
         index replaced would grow 16x.\n"
    );
    let n_updates = 20_000usize;
    let users = 2_000u64;
    // Small query rectangles centered on seeded points, squeezed into
    // the requested half of the world.
    let query_rect = |p: Point, left: bool| {
        let x = if left { p.x * 0.45 } else { 0.55 + p.x * 0.4 };
        let y = p.y * 0.9;
        Rect::new_unchecked(x, y, (x + 0.05).min(1.0), (y + 0.05).min(1.0))
    };
    header(&[
        "registered",
        "overlapping side",
        "examined/update",
        "adjusted/update",
        "updates/s",
    ]);
    let mut examined_rates: Vec<f64> = Vec::new();
    for q_total in [64usize, 1024] {
        let mut reg = StandingRegistry::new();
        for (j, p) in uniform_positions(q_total, 31).into_iter().enumerate() {
            // The last 32 queries sit in the busy right half.
            let area = query_rect(p, j < q_total - 32);
            reg.register(StandingQuery::Count { area }, []);
        }
        // Updates confined to the right half: each user's cloak drifts
        // among seeded positions, so every update has an old and a new
        // region exactly like engine maintenance produces.
        let positions = uniform_positions(n_updates, 7);
        let mut cloaks: HashMap<u64, Rect> = HashMap::new();
        let mut adjusted = 0u64;
        let start = Instant::now();
        for (i, p) in positions.iter().enumerate() {
            let user = i as u64 % users;
            let x = 0.55 + p.x * 0.4;
            let y = p.y * 0.9;
            let new = Rect::new_unchecked(x, y, (x + 0.03).min(1.0), (y + 0.03).min(1.0));
            let old = cloaks.insert(user, new);
            adjusted += reg.on_record(user, old.as_ref(), Some(&new), true) as u64;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let examined = reg.examined_total() as f64 / reg.updates_processed() as f64;
        examined_rates.push(examined);
        row(&[
            format!("{q_total}"),
            "32 right-half".to_string(),
            format!("{examined:.2}"),
            format!("{:.2}", adjusted as f64 / n_updates as f64),
            format!("{:.0}", n_updates as f64 / elapsed),
        ]);
    }
    let ratio = examined_rates[1] / examined_rates[0].max(f64::MIN_POSITIVE);
    require(
        ratio < 2.0,
        &format!(
            "E14: per-update examined work must track overlapping queries, not the \
             registry: 16x more queries cost {ratio:.2}x"
        ),
    );
    println!(
        "\n16x more registered queries -> {ratio:.2}x examined per update\n\
         (flat; a linear scan would be 16.00x; asserted < 2x).\n"
    );
}

/// E12: the engine against the sequential anonymizer — ingest rate
/// and the bit-identity of what crosses the trust boundary.
fn e12_engine() {
    println!("## E12 — the engine vs the sequential anonymizer\n");
    println!(
        "20,000 users stream one full-population batch through the engine and\n\
         through the sequential LocationAnonymizer<GridCloak> (grid+multilevel\n\
         cloaking). Claim: the engine's wire bytes crossing the anonymizer ->\n\
         server trust boundary are identical to the sequential pipeline's; the\n\
         rates price the engine's ingest against it.\n"
    );
    let n = 20_000usize;
    let updates: Vec<(u64, Point, SimTime)> = uniform_positions(n, 17)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p, SimTime::from_secs(i as f64)))
        .collect();
    let profile = |i: u64| {
        let k = [2u32, 5, 10, 25][(i % 4) as usize];
        PrivacyProfile::uniform(CloakRequirement::k_only(k)).unwrap()
    };
    let mut cfg = lbsp_core::EngineConfig::new(world());
    cfg.refine = true;
    let mut eng = lbsp_core::ShardedEngine::new(cfg, 1);
    let mut seq = lbsp_anonymizer::LocationAnonymizer::new(
        GridCloak::new(world(), cfg.grid_side).with_refinement(true),
        cfg.secret,
    );
    for i in 0..n as u64 {
        eng.register(i, profile(i));
        seq.register(i, profile(i));
    }
    let want: Vec<Vec<u8>> = seq
        .handle_updates_batch(&updates)
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|u| lbsp_core::wire::encode_cloaked_update(u).to_vec())
        .collect();
    let got: Vec<Vec<u8>> = eng
        .process_updates_wire(&updates)
        .into_iter()
        .filter_map(Result::ok)
        .map(|b| b.to_vec())
        .collect();
    let identical = want.len() == n && got == want;
    let reps = 3;
    let rate = |run: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..reps {
            run();
        }
        (n * reps) as f64 / start.elapsed().as_secs_f64()
    };
    let seq_ups = rate(&mut || {
        seq.handle_updates_batch(&updates);
    });
    let eng_ups = rate(&mut || {
        eng.process_updates(&updates);
    });
    header(&["pipeline", "updates/s", "vs sequential", "wire identical"]);
    row(&[
        "sequential".into(),
        format!("{seq_ups:.0}"),
        "1.00x".into(),
        "-".into(),
    ]);
    row(&[
        "engine".into(),
        format!("{eng_ups:.0}"),
        format!("{:.2}x", eng_ups / seq_ups),
        format!("{identical}"),
    ]);
    println!();
    require(
        identical,
        "E12: the engine's wire bytes differ from the sequential anonymizer's",
    );
}

/// Ends the run with exit status 1 unless `ok`: an experiment fails on
/// what its table shows to be wrong.
fn require(ok: bool, what: &str) {
    if !ok {
        eprintln!("repro: {what}");
        std::process::exit(1);
    }
}

/// E1 (Fig. 1): the end-to-end architecture functions and scales.
fn e1_pipeline() {
    println!("## E1 — end-to-end pipeline (Fig. 1)\n");
    println!(
        "20,000 active users stream updates through anonymizer -> server; 5% of\n\
         users issue private queries per tick. Claim: the pipeline sustains\n\
         city-scale update rates and answers queries on cloaked data only.\n"
    );
    header(&[
        "algorithm",
        "updates/s",
        "queries/s",
        "mean cloak area",
        "k fail %",
    ]);
    let w = world();
    let cfg = SimulationConfig {
        users: 20_000,
        pois: 1_000,
        distribution: SpatialDistribution::three_cities(&w),
        speed: (0.001, 0.01),
        tick_seconds: 60.0,
        query_fraction: 0.05,
        query_radius: 0.05,
        seed: 7,
    };
    let profile = PrivacyProfile::uniform(CloakRequirement::k_only(25)).unwrap();
    let report = run_e1(pipeline_grid(w, false), cfg, profile);
    row(&[
        "grid".to_string(),
        format!("{:.0}", report.0),
        format!("{:.0}", report.1),
        format!("{:.5}", report.2),
        format!("{:.2}", report.3),
    ]);
    println!();
}

/// The engine the full-pipeline rows of E1, E2 and E10 run: a 64 × 64
/// cloaking grid (Fig. 4b) over `world`, multi-level refinement on or
/// off.
fn pipeline_grid(world: Rect, refine: bool) -> EngineConfig {
    EngineConfig {
        grid_side: 64,
        refine,
        ..EngineConfig::new(world)
    }
}

fn run_e1(
    grid: EngineConfig,
    cfg: SimulationConfig,
    profile: PrivacyProfile,
) -> (f64, f64, f64, f64) {
    let mut engine = SimulationEngine::new(grid, cfg, profile);
    let start = Instant::now();
    let reports = engine.run(3);
    let wall = start.elapsed().as_secs_f64();
    let updates: usize = reports.iter().map(|r| r.updates).sum();
    let queries: usize = reports.iter().map(|r| r.range_queries + r.nn_queries).sum();
    let unsat: usize = reports.iter().map(|r| r.unsatisfied).sum();
    (
        updates as f64 / wall,
        queries as f64 / wall,
        engine
            .engine()
            .metrics_registry()
            .cloak_area()
            .summary()
            .mean,
        100.0 * unsat as f64 / updates as f64,
    )
}

/// E2 (Fig. 2): temporal privacy profiles switch requirements by time of
/// day, trading QoS for privacy.
fn e2_profiles() {
    println!("## E2 — the paper's example privacy profile (Fig. 2)\n");
    println!(
        "2,000 users over a simulated day under the exact Fig. 2 profile\n\
         (k=1 by day; k=100, 1-3 mi^2 evenings; k=1000, >=5 mi^2 nights) in a\n\
         6x6-mile city. Claim: restrictiveness up => cloak area up, QoS down.\n"
    );
    let w = Rect::new_unchecked(0.0, 0.0, 6.0, 6.0);
    let cfg = SimulationConfig {
        users: 2_000,
        pois: 300,
        distribution: SpatialDistribution::three_cities(&w),
        speed: (0.002, 0.01),
        tick_seconds: 3600.0,
        query_fraction: 0.05,
        query_radius: 0.5,
        seed: 2026,
    };
    let mut engine =
        SimulationEngine::new(pipeline_grid(w, true), cfg, PrivacyProfile::paper_example());
    // Aggregate per profile entry.
    let mut per_entry: [(f64, f64, usize); 3] = [(0.0, 0.0, 0); 3];
    let m = std::sync::Arc::clone(engine.engine().metrics_registry());
    for _ in 0..24 {
        m.cloak_area().reset();
        m.candidate_set_size().reset();
        engine.tick();
        let hour = engine.now().time_of_day().hour();
        let idx = match hour {
            8..=16 => 0,
            17..=21 => 1,
            _ => 2,
        };
        per_entry[idx].0 += m.cloak_area().summary().mean;
        per_entry[idx].1 += m.candidate_set_size().summary().mean;
        per_entry[idx].2 += 1;
    }
    header(&[
        "profile entry",
        "mean cloak area (mi^2)",
        "mean NN/range candidates",
    ]);
    let labels = [
        "08-17h: k=1",
        "17-22h: k=100, 1-3 mi^2",
        "22-08h: k=1000, >=5 mi^2",
    ];
    for (label, (area, cands, ticks)) in labels.iter().zip(per_entry) {
        let t = ticks.max(1) as f64;
        row(&[
            label.to_string(),
            format!("{:.4}", area / t),
            format!("{:.1}", cands / t),
        ]);
    }
    println!();
}

/// E3 (Fig. 3): data-dependent cloaking leaks under reverse engineering.
fn e3_data_dependent() {
    println!("## E3 — data-dependent cloaking leakage (Fig. 3)\n");
    println!(
        "20,000 clustered users, 500 sampled cloaks per cell. Claims: the naive\n\
         cloak's center IS the user (center attack ~100%); the MBR cloak puts\n\
         users on its boundary, worse for small k.\n"
    );
    let positions = standard_positions(20_000, 11);
    let w = world();
    header(&[
        "algorithm",
        "k",
        "center hit %",
        "boundary hit %",
        "norm. error",
        "cloak us",
    ]);
    for k in [2u32, 5, 10, 50, 100] {
        for which in 0..2 {
            let algo: Box<dyn CloakingAlgorithm> = if which == 0 {
                let mut a = NaiveCloak::new(w, 64);
                load(&mut a, &positions);
                Box::new(a)
            } else {
                let mut a = MbrCloak::new(w, 64);
                load(&mut a, &positions);
                Box::new(a)
            };
            let (center, boundary, err, us) = attack_row(algo.as_ref(), &positions, k);
            row(&[
                algo.name().to_string(),
                k.to_string(),
                format!("{:.1}", center),
                format!("{:.1}", boundary),
                format!("{:.3}", err),
                format!("{:.1}", us),
            ]);
        }
    }
    println!();
}

fn attack_row(algo: &dyn CloakingAlgorithm, positions: &[Point], k: u32) -> (f64, f64, f64, f64) {
    let req = CloakRequirement::k_only(k);
    let ids = sample_ids(positions.len(), 500);
    let start = Instant::now();
    let cloaks: Vec<_> = ids
        .iter()
        .map(|&id| algo.cloak(id, &req).expect("user present"))
        .collect();
    let us = start.elapsed().as_secs_f64() * 1e6 / ids.len() as f64;
    let cases: Vec<_> = cloaks
        .iter()
        .zip(ids.iter().map(|&id| positions[id as usize]))
        .collect();
    let center = CenterAttack::default().attack_all(cases.iter().map(|&(c, p)| (c, p)));
    let boundary = BoundaryAttack::default().attack_all(cases.iter().map(|&(c, p)| (c, p)));
    (
        100.0 * center.success_rate(),
        100.0 * boundary.success_rate(),
        center.mean_normalized_error,
        us,
    )
}

/// E4 (Fig. 4): space-dependent cloaking achieves k with no leakage;
/// multi-level refinement tightens areas.
fn e4_space_dependent() {
    println!("## E4 — space-dependent cloaking (Fig. 4)\n");
    println!(
        "Same population. Claims: cell-aligned cloaks defeat both attacks\n\
         (~0%); areas exceed the k/density optimum by a bounded factor; the\n\
         multi-level / neighbor-merge optimizations shrink areas. The\n\
         Hilbert baseline is reciprocal (identity-anonymous) but, being\n\
         data-dependent geometry, shows MBR-style boundary leakage.\n"
    );
    let positions = standard_positions(20_000, 11);
    header(&[
        "algorithm",
        "k",
        "center hit %",
        "boundary hit %",
        "mean area",
        "area x n / k",
        "cloak us",
    ]);
    for k in [10u32, 50, 100] {
        for algo in all_cloaks(&positions).iter().skip(2) {
            // skip naive + mbr
            let (center, boundary, _err, us) = attack_row(algo.as_ref(), &positions, k);
            let req = CloakRequirement::k_only(k);
            let ids = sample_ids(positions.len(), 500);
            let mean_area: f64 = ids
                .iter()
                .map(|&id| algo.cloak(id, &req).unwrap().area())
                .sum::<f64>()
                / ids.len() as f64;
            row(&[
                algo.name().to_string(),
                k.to_string(),
                format!("{:.1}", center),
                format!("{:.1}", boundary),
                format!("{:.5}", mean_area),
                format!("{:.1}", mean_area * positions.len() as f64 / k as f64),
                format!("{:.1}", us),
            ]);
        }
    }
    println!();
}

/// E5 (Fig. 5a): private range queries — candidate cost vs privacy.
fn e5_private_range() {
    println!("## E5 — private range queries over public data (Fig. 5a)\n");
    println!(
        "10,000 POIs; 500 sampled users; quad cloak. Claims: the candidate set\n\
         always contains the exact answer (recall 1.0) and grows with both the\n\
         cloak size (k) and the query radius.\n"
    );
    let positions = standard_positions(20_000, 13);
    let store = poi_store(10_000, 17);
    let mut quad = QuadCloak::new(world(), 8);
    load(&mut quad, &positions);
    header(&[
        "k",
        "radius",
        "mean candidates",
        "mean exact",
        "recall",
        "query us",
    ]);
    for k in [1u32, 10, 100, 1000] {
        for radius in [0.02f64, 0.05, 0.1] {
            let req = CloakRequirement::k_only(k);
            let ids = sample_ids(positions.len(), 500);
            let mut cands = 0usize;
            let mut exact = 0usize;
            let mut hits = 0usize;
            let mut total = 0usize;
            let start = Instant::now();
            for &id in &ids {
                let cloak = quad.cloak(id, &req).unwrap().region;
                let c = private_range_candidates(&store, &cloak, radius);
                cands += c.len();
                let pos = positions[id as usize];
                let e: Vec<_> = store.iter().filter(|o| o.pos.dist(pos) <= radius).collect();
                exact += e.len();
                total += e.len();
                hits += e
                    .iter()
                    .filter(|o| c.iter().any(|cc| cc.id == o.id))
                    .count();
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / ids.len() as f64;
            row(&[
                k.to_string(),
                format!("{radius}"),
                format!("{:.1}", cands as f64 / ids.len() as f64),
                format!("{:.1}", exact as f64 / ids.len() as f64),
                format!("{:.3}", hits as f64 / total.max(1) as f64),
                format!("{:.1}", us),
            ]);
            require(hits == total, "E5: a candidate set missed an exact answer");
        }
    }
    println!();
}

/// E6 (Fig. 5b): private NN queries — pruning effectiveness.
fn e6_private_nn() {
    println!("## E6 — private NN queries over public data (Fig. 5b)\n");
    println!(
        "10,000 POIs. Claims: the candidate set provably contains the true NN\n\
         for every possible position (checked by sampling), while pruning\n\
         the overwhelming majority of objects vs 'send everything'.\n"
    );
    let positions = standard_positions(20_000, 13);
    let store = poi_store(10_000, 17);
    let mut quad = QuadCloak::new(world(), 8);
    load(&mut quad, &positions);
    header(&["k", "mean candidates", "pruned %", "NN recall", "query us"]);
    for k in [1u32, 10, 100, 1000] {
        let req = CloakRequirement::k_only(k);
        let ids = sample_ids(positions.len(), 300);
        let mut cands = 0usize;
        let mut ok = 0usize;
        let mut trials = 0usize;
        let start = Instant::now();
        for &id in &ids {
            let cloak = quad.cloak(id, &req).unwrap().region;
            let c = private_nn_candidates(&store, &cloak);
            cands += c.len();
            // Sample positions in the cloak and verify NN membership.
            for s in 0..5 {
                let frac = s as f64 / 4.0;
                let pos = Point::new(
                    cloak.min_x() + frac * cloak.width(),
                    cloak.min_y() + (1.0 - frac) * cloak.height(),
                );
                let true_nn = store.k_nearest(pos, 1)[0];
                trials += 1;
                if c.iter()
                    .any(|o| (o.pos.dist(pos) - true_nn.pos.dist(pos)).abs() < 1e-12)
                {
                    ok += 1;
                }
            }
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / ids.len() as f64;
        let mean_c = cands as f64 / ids.len() as f64;
        row(&[
            k.to_string(),
            format!("{:.1}", mean_c),
            format!("{:.2}", 100.0 * (1.0 - mean_c / store.len() as f64)),
            format!("{:.3}", ok as f64 / trials as f64),
            format!("{:.1}", us),
        ]);
        require(ok == trials, "E6: a candidate set missed the true NN");
    }
    println!();
}

/// E7 (Fig. 6a): public probabilistic count — worked example + accuracy.
fn e7_public_count() {
    println!("## E7 — public count over private data (Fig. 6a)\n");
    println!("### Worked example (must match the paper exactly)\n");
    use lbsp_core::{StandingQuery, StandingRegistry};
    let rect = Rect::new_unchecked;
    let records = [
        (3, rect(0.4, 0.4, 0.6, 0.6)),  // D: 1.0
        (0, rect(-0.1, 0.0, 0.3, 0.2)), // A: .75
        (1, rect(0.8, 0.2, 1.2, 0.4)),  // B: .5
        (4, rect(0.9, 0.6, 1.4, 0.8)),  // E: .2
        (5, rect(0.9, 0.9, 1.1, 1.1)),  // F: .25
        (2, rect(1.5, 1.5, 1.7, 1.7)),  // C: 0
    ];
    // The same records answer the snapshot query and, one cloak record
    // at a time, a standing count over the same area.
    let unit = rect(0.0, 0.0, 1.0, 1.0);
    let mut store = PrivateStore::new();
    let mut reg = StandingRegistry::new();
    let q = reg.register(StandingQuery::Count { area: unit }, []);
    for (pseudonym, region) in records {
        store.upsert(PrivateRecord::new(pseudonym, region));
        reg.on_record(pseudonym, None, Some(&region), true);
    }
    let ans = PublicCountQuery::new(unit).evaluate(store.iter());
    let live = (reg.expected(q), reg.interval(q), reg.pdf(q));
    let (Some(expected), Some((certain, possible)), Some(pdf)) = live else {
        return require(false, "E7: the standing count is not registered");
    };
    println!("paper   : expected = 2.7, interval = [1, 5]");
    println!(
        "ours    : expected = {:.4}, interval = [{}, {}], naive = {}",
        ans.expected,
        ans.certain,
        ans.possible,
        ans.naive_count()
    );
    println!("standing: expected = {expected:.4}, interval = [{certain}, {possible}]");
    print!("PDF     : ");
    for kk in 0..=5 {
        print!("P({kk}) = {:.4}  ", ans.probability_of(kk));
    }
    let fig6a = |expected: f64, interval| (expected - 2.7).abs() < 1e-12 && interval == (1, 5);
    require(
        fig6a(ans.expected, (ans.certain, ans.possible)),
        "E7: the snapshot count misses Fig. 6a's 2.7 and [1, 5]",
    );
    require(
        fig6a(expected, (certain, possible)),
        "E7: the standing count misses Fig. 6a's 2.7 and [1, 5]",
    );
    require(
        (0..=5).all(|k| (ans.pdf.pmf(k) - pdf.pmf(k)).abs() < 1e-12),
        "E7: the standing count's PDF differs from the snapshot's",
    );
    println!("\n\n### Accuracy vs privacy level\n");
    println!(
        "5,000 users; 200 aligned 0.2x0.2 query rects. Claim: count accuracy\n\
         degrades as cloaks grow (larger k), while the expected-value answer\n\
         stays close to the truth on average.\n"
    );
    header(&["k", "mean |err|", "mean rel err %", "mean interval width"]);
    let positions = standard_positions(5_000, 23);
    for k in [1u32, 10, 50, 200] {
        let mut quad = QuadCloak::new(world(), 8);
        load(&mut quad, &positions);
        let req = CloakRequirement::k_only(k);
        let mut store = PrivateStore::new();
        for i in 0..positions.len() {
            let c = quad.cloak(i as u64, &req).unwrap();
            store.upsert(PrivateRecord::new(i as u64, c.region));
        }
        let mut abs_err = 0.0;
        let mut rel_err = 0.0;
        let mut width = 0.0;
        let trials = 200usize;
        for t in 0..trials {
            let fx = (t % 20) as f64 / 25.0;
            let fy = (t / 20) as f64 / 12.5;
            let q = Rect::new_unchecked(fx, fy, (fx + 0.2).min(1.0), (fy + 0.2).min(1.0));
            let truth = positions.iter().filter(|p| q.contains_point(**p)).count() as f64;
            let ans = PublicCountQuery::new(q).evaluate(store.iter());
            abs_err += (ans.expected - truth).abs();
            rel_err += (ans.expected - truth).abs() / truth.max(1.0);
            width += (ans.possible - ans.certain) as f64;
        }
        let t = trials as f64;
        row(&[
            k.to_string(),
            format!("{:.2}", abs_err / t),
            format!("{:.1}", 100.0 * rel_err / t),
            format!("{:.1}", width / t),
        ]);
    }
    println!();
}

/// E8 (Fig. 6b): public probabilistic NN — worked example + pruning.
fn e8_public_nn() {
    println!("## E8 — public NN over private data (Fig. 6b)\n");
    println!("### Worked example (paper: candidates {{E, D, F}}, best = D)\n");
    let q = Point::new(0.5, 0.5);
    let mut store = PrivateStore::new();
    store.upsert(PrivateRecord::new(
        3,
        Rect::new_unchecked(0.54, 0.49, 0.56, 0.51),
    )); // D
    store.upsert(PrivateRecord::new(
        4,
        Rect::new_unchecked(0.42, 0.46, 0.46, 0.54),
    )); // E
    store.upsert(PrivateRecord::new(
        5,
        Rect::new_unchecked(0.5, 0.555, 0.56, 0.615),
    )); // F
    store.upsert(PrivateRecord::new(
        0,
        Rect::new_unchecked(0.1, 0.1, 0.2, 0.2),
    )); // A
    store.upsert(PrivateRecord::new(
        1,
        Rect::new_unchecked(0.8, 0.8, 0.9, 0.9),
    )); // B
    store.upsert(PrivateRecord::new(
        2,
        Rect::new_unchecked(0.1, 0.8, 0.2, 0.9),
    )); // C
    let ans = PublicNnQuery::new(q)
        .with_samples(50_000)
        .evaluate(store.iter());
    let names = ["A", "B", "C", "D", "E", "F"];
    for c in &ans.candidates {
        println!(
            "  {} : P(nearest) = {:.3}   dist in [{:.3}, {:.3}]",
            names[c.pseudonym as usize], c.probability, c.min_dist, c.max_dist
        );
    }
    println!(
        "  -> candidate set size {}, most probable: {}\n",
        ans.candidates.len(),
        names[ans.most_probable().unwrap() as usize]
    );
    println!("### Pruning effectiveness at scale\n");
    header(&["k", "population", "mean candidates", "pruned %"]);
    let positions = standard_positions(5_000, 29);
    for k in [10u32, 50, 200] {
        let mut quad = QuadCloak::new(world(), 8);
        load(&mut quad, &positions);
        let req = CloakRequirement::k_only(k);
        let mut store = PrivateStore::new();
        for i in 0..positions.len() {
            let c = quad.cloak(i as u64, &req).unwrap();
            store.upsert(PrivateRecord::new(i as u64, c.region));
        }
        let mut cands = 0usize;
        let trials = 50usize;
        for t in 0..trials {
            let angle = t as f64 / trials as f64 * std::f64::consts::TAU;
            let from = Point::new(0.5 + 0.3 * angle.cos(), 0.5 + 0.3 * angle.sin());
            cands += PublicNnQuery::new(from)
                .with_samples(1)
                .candidate_records(store.iter())
                .len();
        }
        let mean_c = cands as f64 / trials as f64;
        row(&[
            k.to_string(),
            positions.len().to_string(),
            format!("{:.1}", mean_c),
            format!("{:.2}", 100.0 * (1.0 - mean_c / positions.len() as f64)),
        ]);
    }
    println!();
}

/// E9 (Sec. 5.3): incremental evaluation and shared execution.
fn e9_incremental() {
    println!("## E9 — incremental evaluation & shared execution (Sec. 5.3)\n");
    println!(
        "Claims: caching cloaks across updates wins when movement is local\n\
         (hit rate falls as speed rises); same-cell users can share one cloak\n\
         computation (shared execution), cutting batch latency.\n"
    );
    println!(
        "### Incremental cloaking (10,000 users, 5 update rounds, k=25)\n\n\
         Caching wins when cloak computation costs more than revalidation\n\
         (one region count). Shown for the expensive naive cloak and the\n\
         already-cheap quad cloak — the ablation DESIGN.md calls out.\n"
    );
    header(&[
        "algorithm",
        "speed/update",
        "hit rate %",
        "us/update (incremental)",
        "us/update (recompute)",
    ]);
    for speed in [0.0005f64, 0.002, 0.01, 0.05] {
        for which in ["naive", "quad"] {
            let w = world();
            let positions = standard_positions(10_000, 31);
            let make = |positions: &[Point]| -> Box<dyn CloakingAlgorithm> {
                if which == "naive" {
                    let mut a = NaiveCloak::new(w, 64);
                    load(&mut a, positions);
                    Box::new(a)
                } else {
                    let mut a = QuadCloak::new(w, 8);
                    load(&mut a, positions);
                    Box::new(a)
                }
            };
            let mut inc = IncrementalCloaker::new(make(&positions), 1000);
            let req = CloakRequirement::k_only(25);
            let mut pos: Vec<Point> = positions.clone();
            // Warm the cache.
            for (i, p) in pos.iter().enumerate() {
                inc.update_and_cloak(i as u64, *p, &req).unwrap();
            }
            inc.reset_stats();
            let rounds = 5;
            let start = Instant::now();
            for r in 0..rounds {
                for (i, p) in pos.iter_mut().enumerate() {
                    let dir = ((i + r) % 4) as f64 * std::f64::consts::FRAC_PI_2;
                    *p =
                        w.clamp_point(Point::new(p.x + speed * dir.cos(), p.y + speed * dir.sin()));
                    inc.update_and_cloak(i as u64, *p, &req).unwrap();
                }
            }
            let inc_us = start.elapsed().as_secs_f64() * 1e6 / (rounds * pos.len()) as f64;
            let hit = 100.0 * inc.stats().hit_rate();
            // Recompute baseline: same movement, no cache.
            let mut algo2 = make(&positions);
            let mut pos2: Vec<Point> = positions.clone();
            let start = Instant::now();
            for r in 0..rounds {
                for (i, p) in pos2.iter_mut().enumerate() {
                    let dir = ((i + r) % 4) as f64 * std::f64::consts::FRAC_PI_2;
                    *p =
                        w.clamp_point(Point::new(p.x + speed * dir.cos(), p.y + speed * dir.sin()));
                    algo2.upsert(i as u64, *p);
                    algo2.cloak(i as u64, &req).unwrap();
                }
            }
            let re_us = start.elapsed().as_secs_f64() * 1e6 / (rounds * pos2.len()) as f64;
            row(&[
                which.to_string(),
                format!("{speed}"),
                format!("{:.1}", hit),
                format!("{:.2}", inc_us),
                format!("{:.2}", re_us),
            ]);
        }
    }
    println!(
        "\n### Shared execution (one batch of 50,000 same-tick requests, k=25)\n\n\
         Sound only for space-dependent cloaks (same cell + same requirement\n\
         => same region). Grid cloak, 64x64 cells.\n"
    );
    header(&["strategy", "batch ms", "cloak computations"]);
    let positions = standard_positions(50_000, 37);
    let mut grid = GridCloak::new(world(), 64);
    load(&mut grid, &positions);
    let req = CloakRequirement::k_only(25);
    let requests: Vec<CloakRequest> = (0..positions.len() as u64)
        .map(|user| CloakRequest {
            user,
            requirement: req,
        })
        .collect();
    // Individual.
    let start = Instant::now();
    for r in &requests {
        grid.cloak(r.user, &r.requirement).unwrap();
    }
    let individual_ms = start.elapsed().as_secs_f64() * 1e3;
    row(&[
        "individual".into(),
        format!("{:.1}", individual_ms),
        requests.len().to_string(),
    ]);
    // Shared by grid cell (64 matches the cloak's own grid).
    let cell = |p: Point| {
        (
            (p.x * 64.0).floor().min(63.0) as u32,
            (p.y * 64.0).floor().min(63.0) as u32,
        )
    };
    let key = |id: u64| grid.location(id).map(cell);
    let start = Instant::now();
    let out = SharedExecutor::cloak_batch(&grid, &requests, key);
    let shared_ms = start.elapsed().as_secs_f64() * 1e3;
    let groups: std::collections::HashSet<(u32, u32)> =
        positions.iter().map(|p| cell(*p)).collect();
    assert!(out.iter().all(|r| r.is_ok()));
    row(&[
        "shared (by cell)".into(),
        format!("{:.1}", shared_ms),
        groups.len().to_string(),
    ]);
    // Shared + parallel.
    let start = Instant::now();
    let out = SharedExecutor::cloak_batch_parallel(&grid, &requests, key, 4);
    let par_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(out.iter().all(|r| r.is_ok()));
    row(&[
        "shared + 4 threads".into(),
        format!("{:.1}", par_ms),
        groups.len().to_string(),
    ]);
    println!();
}

/// E10 (Secs. 1 & 5): anonymizer scalability with population size.
fn e10_scalability() {
    println!("## E10 — cloaking scalability (Secs. 1 & 5)\n");
    println!(
        "Per-cloak latency (us) vs population, k=50, 500 sampled cloaks.\n\
         Claim: space-dependent cloaking is computationally efficient\n\
         (requirement 3 of Sec. 5) and scales to large populations.\n"
    );
    header(&[
        "users",
        "naive",
        "mbr",
        "quad",
        "quad+merge",
        "grid",
        "grid+multilevel",
        "hilbert",
    ]);
    for n in [1_000usize, 10_000, 100_000, 300_000] {
        let positions = uniform_positions(n, 41);
        let mut cells = vec![n.to_string()];
        for algo in all_cloaks(&positions) {
            let req = CloakRequirement::k_only(50);
            let ids = sample_ids(n, 500);
            let start = Instant::now();
            for &id in &ids {
                algo.cloak(id, &req).unwrap();
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / ids.len() as f64;
            cells.push(format!("{:.1}", us));
        }
        row(&cells);
    }
    println!();

    // Throughput through the full pipeline at the largest population.
    println!(
        "### Full-pipeline throughput (100,000 users, grid+multilevel cloak, k=25, \
         256-row batches)\n"
    );
    let mut engine = ShardedEngine::new(pipeline_grid(world(), true), 1);
    let profile = PrivacyProfile::uniform(CloakRequirement::k_only(25)).unwrap();
    let positions = uniform_positions(100_000, 43);
    let rows_at = |t: SimTime| -> Vec<(u64, Point, SimTime)> {
        (0..).zip(&positions).map(|(i, &p)| (i, p, t)).collect()
    };
    for i in 0..100_000 {
        engine.register(i, profile.clone());
    }
    for batch in rows_at(SimTime::ZERO).chunks(256) {
        engine.process_updates(batch);
    }
    let moves = rows_at(SimTime::from_secs(60.0));
    let start = Instant::now();
    for batch in moves[..20_000].chunks(256) {
        for out in engine.process_updates(batch) {
            out.unwrap();
        }
    }
    let rate = 20_000.0 / start.elapsed().as_secs_f64();
    println!("sustained update rate: {rate:.0} updates/s\n");
}

/// E11 — extensions: occupancy bound, temporal cloaking trade-off.
fn e11_extensions() {
    println!("## E11 — extensions beyond the paper\n");
    println!("### Occupancy (background-knowledge) adversary is bounded by 1/k\n");
    header(&["k", "mean attack success", "1/k bound"]);
    let positions = standard_positions(10_000, 53);
    for k in [5u32, 20, 100] {
        let mut quad = QuadCloak::new(world(), 8);
        load(&mut quad, &positions);
        let req = CloakRequirement::k_only(k);
        let cloaks: Vec<_> = sample_ids(positions.len(), 400)
            .iter()
            .map(|&id| quad.cloak(id, &req).unwrap())
            .collect();
        let mean = OccupancyAttack.attack_all(&cloaks, &positions);
        row(&[
            k.to_string(),
            format!("{:.4}", mean),
            format!("{:.4}", 1.0 / k as f64),
        ]);
    }
    println!("\n### Temporal cloaking (Gruteser-Grunwald baseline): delay vs area\n");
    println!(
        "A lone user, k=8; bystanders arrive every 10 s, each closer than the\n\
         last (spiraling in from the district edge). Tighter area bounds buy\n\
         privacy-with-QoS at the cost of waiting for a denser crowd.\n"
    );
    header(&[
        "max cloak area",
        "release delay (s)",
        "released area",
        "k satisfied",
    ]);
    for max_area in [0.5f64, 0.05, 0.005, 0.0005] {
        let quad = QuadCloak::new(world(), 8);
        let mut tc = TemporalCloak::new(quad, max_area, 1e9);
        tc.submit(
            0,
            Point::new(0.5, 0.5),
            CloakRequirement::k_only(8),
            SimTime::ZERO,
        )
        .unwrap();
        let mut outcome = None;
        for step in 1..=200u64 {
            // Arrival `step` lands at radius 0.4 / step from the subject.
            let angle = step as f64 * 2.39996; // golden angle: spread directions
            let r = 0.4 / step as f64;
            let p = Point::new(0.5 + r * angle.cos(), 0.5 + r * angle.sin());
            tc.inner_mut().upsert(step, p);
            if let Some(rel) = tc.tick(SimTime::from_secs(10.0 * step as f64)).first() {
                outcome = Some(*rel);
                break;
            }
        }
        match outcome {
            Some(rel) => row(&[
                format!("{max_area}"),
                format!("{:.0}", rel.delay()),
                format!("{:.5}", rel.region.area()),
                rel.region.k_satisfied.to_string(),
            ]),
            None => row(&[
                format!("{max_area}"),
                "> 2000".into(),
                "-".into(),
                "false".into(),
            ]),
        }
    }
    println!();
}

/// `index-micro`: the spatial-index kernels that every cloak and query
/// path runs on, each printed as `index_micro/<case>` with its median,
/// fastest and slowest sample in ns per iteration.
fn index_micro() {
    use lbsp_index::{SubCellCounts, SubSpan, UniformGrid};
    use lbsp_server::{PublicObject, PublicStore};
    let positions = uniform_positions(100_000, 51);
    // Grid: insert (move) and k-NN over the per-cell buckets.
    let mut grid = UniformGrid::new(world(), 64, 64);
    for (i, p) in positions.iter().enumerate() {
        grid.insert(i as u64, *p);
    }
    let mut i = 0usize;
    time_case("grid/upsert_100k", || {
        i = (i + 7919) % positions.len();
        grid.insert(i as u64, positions[i])
    });
    time_case("grid/knn_16", || grid.k_nearest(Point::new(0.42, 0.42), 16));
    // Sub-cell counts, the grid cloak's view at the engine's 16 x 16:
    // a move (four counter bumps) and a depth-1 quadrant count (the
    // largest a refinement asks: 8 x 8 counters of one cell).
    let mut counts = SubCellCounts::new(world(), 16, 16);
    for p in &positions {
        counts.shift(None, Some(*p));
    }
    let mut i = 0usize;
    time_case("counts/shift_100k", || {
        let from = positions[i];
        i = (i + 7919) % positions.len();
        counts.shift(Some(from), Some(positions[i]))
    });
    let quadrant = SubSpan::around(counts.lattice().sub_of(Point::new(0.42, 0.42)), 8);
    time_case("counts/quadrant", || counts.count(quadrant));
    // Public store (a packed point grid under an id-ordered array) on
    // 10k POIs, uniform, three-cities, and uniform with one more POI a
    // thousand units away: the candidate pass of a Fig. 5a range query
    // (a 1/64-side cloak at a POI, radius 0.05, as on the engine) and
    // the 1 and 8 nearest to a POI.
    let mut outlier = uniform_positions(10_000, 52);
    outlier.push(Point::new(1000.0, 1000.0));
    for (data, pois) in [
        ("uniform", uniform_positions(10_000, 52)),
        ("three_cities", standard_positions(10_000, 53)),
        ("outlier", outlier),
    ] {
        let store = PublicStore::bulk_load(
            (0..)
                .zip(&pois)
                .map(|(id, &p)| PublicObject::new(id, p, 0))
                .collect(),
        );
        let at: Vec<Point> = pois.iter().step_by(97).copied().collect();
        let mut i = 0usize;
        time_case(&format!("public/{data}/range_r05"), || {
            i = (i + 1) % at.len();
            let p = at[i];
            let cloak = Rect::new_unchecked(p.x, p.y, p.x + 1.0 / 64.0, p.y + 1.0 / 64.0);
            private_range_candidates(&store, &cloak, 0.05)
        });
        for k in [1, 8] {
            time_case(&format!("public/{data}/knn_{k}"), || {
                i = (i + 1) % at.len();
                store.k_nearest(at[i], k)
            });
        }
    }
}

/// Times `routine` and prints one `index_micro` line. The iterations
/// per sample double until a sample takes at least 1 ms (or reaches
/// 2^20); then 30 samples are taken.
fn time_case<O>(case: &str, mut routine: impl FnMut() -> O) {
    const SAMPLES: usize = 30;
    let mut sample = |iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        start.elapsed().as_nanos() as f64
    };
    let mut iters = 1u32;
    while sample(iters) < 1e6 && iters < 1 << 20 {
        iters *= 2;
    }
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| sample(iters) / f64::from(iters))
        .collect();
    ns.sort_by(f64::total_cmp);
    println!(
        "index_micro/{case:<40} median {:>12.1} ns/iter  [{:.1} .. {:.1}]",
        ns[SAMPLES / 2],
        ns[0],
        ns[SAMPLES - 1]
    );
}
