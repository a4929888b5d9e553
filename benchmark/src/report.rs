//! The metric catalogue, the result a run prints, and `compare`.
//!
//! The catalogue repeats what `BENCHMARK.json` declares (a self-test
//! holds the two together) so that `compare` knows each metric's
//! direction and bound without being handed the file.

use crate::json::{self, Value};
use crate::stats;
use std::fmt::Write as _;

pub const WORKLOADS: [&str; 4] = [
    "engine_batch",
    "node_update",
    "node_query",
    "cluster_update",
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: `(name, unit, direction, bound)`. The bound is
/// the share of the baseline median by which it may worsen.
pub const END_TO_END: [(&str, &str, Better, f64); 7] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("sat_rps", "1/s", Better::Higher, 0.25),
    ("update_p50_us", "us", Better::Lower, 0.25),
    ("update_p95_us", "us", Better::Lower, 0.25),
    ("query_p50_us", "us", Better::Lower, 0.25),
    ("query_p95_us", "us", Better::Lower, 0.25),
    ("setup_rss_mb", "MB", Better::Lower, 0.15),
];

/// A per-layer metric: `(name, unit, direction)`. No bound.
pub const PER_LAYER: [(&str, &str, Better); 67] = [
    ("anonymizer.cloak_us", "us", Better::Lower),
    ("anonymizer.cloak_area_mean", "area", Better::Lower),
    ("anonymizer.k_ratio_mean", "ratio", Better::Lower),
    ("anonymizer.fail_ratio", "ratio", Better::Lower),
    ("server.ingest_us", "us", Better::Lower),
    ("server.range_us", "us", Better::Lower),
    ("server.candidates_per_query", "count", Better::Lower),
    ("server.candidate_precision", "ratio", Better::Higher),
    ("engine.update_us", "us", Better::Lower),
    ("engine.update_row_us_b256", "us", Better::Lower),
    ("engine.query_us", "us", Better::Lower),
    ("engine.update_self_us", "us", Better::Lower),
    ("engine.query_self_us", "us", Better::Lower),
    ("standing.update_us_0hot", "us", Better::Lower),
    ("standing.update_us_32hot", "us", Better::Lower),
    ("standing.examined_per_update", "count", Better::Lower),
    ("standing.adjusted_per_update", "count", Better::Lower),
    ("wire.update_codec_us", "us", Better::Lower),
    ("wire.query_codec_us", "us", Better::Lower),
    ("wire.frame_codec_us", "us", Better::Lower),
    ("wire.req_bytes_update", "B", Better::Lower),
    ("wire.reply_bytes_update", "B", Better::Lower),
    ("wire.req_bytes_query", "B", Better::Lower),
    ("wire.reply_bytes_query", "B", Better::Lower),
    ("net.ping_rtt_us", "us", Better::Lower),
    ("net.update_rtt_us", "us", Better::Lower),
    ("net.query_rtt_us", "us", Better::Lower),
    ("net.update_self_us", "us", Better::Lower),
    ("net.query_self_us", "us", Better::Lower),
    ("net.rows_per_engine_batch", "count", Better::Higher),
    ("net.outbound_wait_us_per_req", "us", Better::Lower),
    ("net.wake_after_idle_us", "us", Better::Lower),
    ("cluster.k1_update_rtt_us", "us", Better::Lower),
    ("cluster.k1_query_rtt_us", "us", Better::Lower),
    ("cluster.k2_update_rtt_us", "us", Better::Lower),
    ("cluster.k2_query_rtt_us", "us", Better::Lower),
    ("cluster.hop_k1_update_us", "us", Better::Lower),
    ("cluster.hop_k1_query_us", "us", Better::Lower),
    ("cluster.repl_k2_update_us", "us", Better::Lower),
    ("cluster.repl_k2_query_us", "us", Better::Lower),
    ("cluster.handoff_extra_us", "us", Better::Lower),
    ("cluster.handoffs_per_1k_updates", "count", Better::Lower),
    ("cluster.node_frames_per_update", "count", Better::Lower),
    ("cluster.node_bytes_per_update", "B", Better::Lower),
    ("cluster.retryable_failures", "count", Better::Lower),
    ("cluster.mirror_drops", "count", Better::Lower),
    ("store.update_extra_us", "us", Better::Lower),
    ("store.append_us", "us", Better::Lower),
    ("store.fsync_us", "us", Better::Lower),
    ("store.wal_bytes_per_update", "B", Better::Lower),
    ("store.recover_s", "s", Better::Lower),
    ("store.recovered_ops", "count", Better::Higher),
    ("load.r20.update_p50_us", "us", Better::Lower),
    ("load.r20.update_p95_us", "us", Better::Lower),
    ("load.r20.query_p95_us", "us", Better::Lower),
    ("load.r40.update_p95_us", "us", Better::Lower),
    ("load.r40.query_p95_us", "us", Better::Lower),
    ("load.r60.update_p50_us", "us", Better::Lower),
    ("load.r60.update_p95_us", "us", Better::Lower),
    ("load.r60.query_p95_us", "us", Better::Lower),
    ("load.slo_rate_rps", "1/s", Better::Higher),
    ("load.late_p99_us", "us", Better::Lower),
    ("trace.overhead_ratio", "ratio", Better::Higher),
    ("trace.spans", "count", Better::Higher),
    ("ladder.sum_vs_rtt_ratio", "ratio", Better::Lower),
    ("ladder.clamped_rungs", "count", Better::Lower),
    ("host.factor", "ratio", Better::Lower),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(String, f64)>,
    /// Operations attempted and failed (rejected, never sent, or with a
    /// reply that broke an invariant), all phases.
    pub attempted: u64,
    pub failed: u64,
    /// Every checked output was right.
    pub correct: bool,
    /// The generator kept its schedule; an invalid run is not a slow
    /// system and is not comparable.
    pub valid: bool,
    /// Human-readable remarks: sample counts, fallbacks, flags.
    pub notes: Vec<String>,
}

impl Report {
    /// The one-line object the driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::number(*value),
                unit_of(name)
            );
        }
        out.push_str("}}");
        out
    }

    /// The line appended to a results file: the result plus what
    /// `compare` needs to group and vet runs.
    pub fn record_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"valid\": {}, \"result\": {}}}",
            self.workload,
            self.seed,
            self.trace,
            self.valid,
            self.result_line()
        )
    }

    /// The table a person reads.
    pub fn human(&self) -> String {
        let mut out = format!(
            "== {} seed {} ({}) ==\n",
            self.workload,
            self.seed,
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "{name:<34} {value:>14.4} {}", unit_of(name));
        }
        let _ = writeln!(
            out,
            "fail_ratio {:.6} ({} failed of {} attempted); outputs {}; run {}",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            if self.correct { "correct" } else { "WRONG" },
            if self.valid { "valid" } else { "INVALID" },
        );
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }
}

/// One side of a comparison: per `(workload, metric)`, the values of
/// every valid end-to-end run in the file (or in every `results-*.json`
/// of the directory).
fn load_runs(path: &str) -> Result<Vec<(String, String, Vec<f64>)>, String> {
    let mut text = String::new();
    if std::path::Path::new(path).is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("results-") && n.ends_with(".json"))
            })
            .collect();
        files.sort();
        for f in files {
            text += &std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        }
    } else {
        text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    }
    let mut out: Vec<(String, String, Vec<f64>)> = Vec::new();
    for (n, line) in text.lines().enumerate().filter(|l| !l.1.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("{path}:{}: no {k}", n + 1));
        if field("trace")? == &Value::Bool(true) {
            continue;
        }
        if field("valid")? != &Value::Bool(true) {
            return Err(format!("{path}:{}: run marked invalid", n + 1));
        }
        let result = field("result")?;
        if result.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("{path}:{}: run with wrong outputs", n + 1));
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            return Err(format!("{path}:{}: no metrics", n + 1));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}:{}: {name} has no value", n + 1))?;
            match out.iter_mut().find(|r| r.0 == workload && &r.1 == name) {
                Some(r) => r.2.push(value),
                None => out.push((workload.clone(), name.clone(), vec![value])),
            }
        }
    }
    Ok(out)
}

/// Spread of a side: interquartile distance over the median (the range
/// over the median below four runs, where quartiles mean nothing).
fn spread(values: &[f64], median: f64) -> f64 {
    let width = match stats::quartiles(values) {
        Some((q1, q3)) if values.len() >= 4 => q3 - q1,
        _ => {
            values.iter().copied().fold(f64::MIN, f64::max)
                - values.iter().copied().fold(f64::MAX, f64::min)
        }
    };
    width / median.abs().max(f64::MIN_POSITIVE)
}

/// `compare A B`: per (workload, end-to-end metric) both medians, the
/// relative change, the bound and a verdict. `regressed` means B's
/// median is worse than A's by more than the bound; `unresolved` means
/// either side's own spread is wider than the bound, so the bound cannot
/// be judged. Returns the table and whether anything regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load_runs(path_a)?, load_runs(path_b)?);
    let mut out = format!(
        "{:<15} {:<14} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    let mut regressed = false;
    for workload in WORKLOADS {
        for (name, _, better, bound) in END_TO_END {
            let side = |runs: &[(String, String, Vec<f64>)]| {
                runs.iter()
                    .find(|r| r.0 == workload && r.1 == name)
                    .and_then(|r| Some((stats::median(&r.2)?, r.2.clone())))
            };
            let (Some((ma, va)), Some((mb, vb))) = (side(&a), side(&b)) else {
                continue;
            };
            let delta = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
            let worse = match better {
                Better::Lower => delta,
                Better::Higher => -delta,
            };
            let verdict = if spread(&va, ma).max(spread(&vb, mb)) > bound {
                "unresolved"
            } else if worse > bound {
                regressed = true;
                "regressed"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{workload:<15} {name:<14} {ma:>12.3} {mb:>12.3} {:>+7.1}% {:>5.0}%  {verdict}",
                delta * 100.0,
                bound * 100.0
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, sat: f64) -> Report {
        Report {
            workload: workload.to_string(),
            seed: 1,
            metrics: vec![("sat_rps".into(), sat), ("setup_s".into(), 1.5)],
            attempted: 10,
            correct: true,
            valid: true,
            ..Report::default()
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v = json::parse(&report("node_update", 20_000.5).result_line()).unwrap();
        let Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|f| f.0.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let sat = v.get("metrics").unwrap().get("sat_rps").unwrap();
        assert_eq!(sat.get("value").unwrap().as_f64(), Some(20_000.5));
        assert_eq!(sat.get("unit").unwrap().as_str(), Some("1/s"));
    }

    #[test]
    fn compare_flags_regressions_and_noise() {
        let dir = std::env::temp_dir().join(format!("lbsbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, sats: &[f64]| {
            let path = dir.join(name);
            let text: String = sats
                .iter()
                .map(|s| report("node_update", *s).record_line() + "\n")
                .collect();
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        };
        let base = write("a.jsonl", &[20_000.0, 20_100.0, 19_900.0, 20_050.0]);
        let same = write("b.jsonl", &[19_800.0, 20_000.0, 20_100.0, 19_950.0]);
        let slow = write("c.jsonl", &[12_000.0, 12_100.0, 11_900.0, 12_050.0]);
        let noisy = write("d.jsonl", &[15_000.0, 25_000.0, 10_000.0, 30_000.0]);
        let (table, bad) = compare(&base, &same).unwrap();
        assert!(!bad && table.contains("ok"), "{table}");
        let (table, bad) = compare(&base, &slow).unwrap();
        assert!(bad && table.contains("regressed"), "{table}");
        let (table, bad) = compare(&base, &noisy).unwrap();
        assert!(!bad && table.contains("unresolved"), "{table}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `BENCHMARK.json` and the catalogue must say the same thing.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match v.get(key) {
            Some(Value::Array(a)) => a.clone(),
            _ => panic!("BENCHMARK.json has no {key}"),
        };
        let s = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
        let declared: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.0.to_string(),
                    m.1.to_string(),
                    m.2.word().to_string(),
                    m.3,
                )
            })
            .collect();
        assert_eq!(declared, ours);
        let declared: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.word().to_string()))
            .collect();
        assert_eq!(declared, ours);
        let names: Vec<String> = list("workloads").iter().map(|w| s(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
    }
}
