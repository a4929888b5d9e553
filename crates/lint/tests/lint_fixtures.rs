//! Fixture corpus: known-bad snippets must be caught with file:line
//! diagnostics, known-good snippets must be clean, and the workspace
//! itself must scan clean (the CI gate in `ci.sh` relies on that).

use lbsp_lint::{lint_file, lint_workspace, parse_registry, scope_for, Finding};
use std::path::Path;

fn registry() -> Vec<String> {
    let locks = concat!(env!("CARGO_MANIFEST_DIR"), "/../core/src/locks.rs");
    let src = std::fs::read_to_string(locks).expect("lock registry readable");
    let names = parse_registry(&src);
    assert!(
        names.contains(&"Engine".to_string()),
        "registry parsed from the real locks.rs: {names:?}"
    );
    names
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

fn lint_as(rel: &str, src: &str) -> Vec<Finding> {
    lint_file(rel, src, scope_for(rel), &registry())
}

#[test]
fn taint_leak_in_server_bound_struct_is_caught() {
    // The acceptance scenario: reintroducing a Point field (and a true
    // identity) into a server-bound wire struct must produce findings
    // that carry the file and line.
    let f = lint_as("crates/core/src/wire.rs", &fixture("bad_taint_struct.rs"));
    let taint: Vec<_> = f.iter().filter(|x| x.rule == "taint").collect();
    assert!(
        taint.len() >= 2,
        "Point field and user field both caught: {f:?}"
    );
    assert!(taint.iter().all(|x| x.line > 0));
    assert!(taint.iter().any(|x| x.message.contains("Point")));
    assert!(taint.iter().any(|x| x.message.contains("`user`")));
    let rendered = format!("{}", taint[0]);
    assert!(
        rendered.starts_with("crates/core/src/wire.rs:"),
        "diagnostic is file:line-prefixed: {rendered}"
    );
}

#[test]
fn stats_snapshot_leak_is_caught_in_obs_scope() {
    // The STATS boundary struct lives in crates/core/src/obs.rs; the
    // taint rule must cover that file so a snapshot can never grow a
    // position, identity, or exact-prefixed field.
    let f = lint_as("crates/core/src/obs.rs", &fixture("bad_stats_leak.rs"));
    let taint: Vec<_> = f.iter().filter(|x| x.rule == "taint").collect();
    assert!(
        taint.len() >= 3,
        "position (name + Point type), user_id, and exact_* all caught: {f:?}"
    );
    assert!(taint.iter().any(|x| x.message.contains("`position`")));
    assert!(taint.iter().any(|x| x.message.contains("`user_id`")));
    assert!(taint.iter().any(|x| x.message.contains("Point")));
    assert!(taint
        .iter()
        .any(|x| x.message.contains("exact_hold_micros")));
    // obs.rs is also panic-free scope: the fixture has no unwraps, so
    // no panic findings — but the scope itself must be active.
    assert!(lbsp_lint::scope_for("crates/core/src/obs.rs").panic_free);
}

#[test]
fn obs_without_marked_registry_snapshot_is_flagged() {
    // The required-marker rule pins `RegistrySnapshot` in obs.rs: if the
    // struct loses its `// lint: server-bound` annotation (silently
    // disabling the taint check), the lint itself must say so.
    let src = "pub struct RegistrySnapshot { pub served: u64 }\n";
    let f = lint_as("crates/core/src/obs.rs", src);
    assert!(
        f.iter()
            .any(|x| x.message.contains("must carry") && x.message.contains("RegistrySnapshot")),
        "{f:?}"
    );
}

#[test]
fn standing_wire_structs_cannot_leak_identity_or_position() {
    // The standing-query boundary: a count registration carries an area
    // and a pushed count state carries aggregates. Reintroducing a true
    // identity, an exact position, or an exact-prefixed field into
    // either server-bound struct must be caught with file:line.
    let f = lint_as("crates/core/src/wire.rs", &fixture("bad_standing_leak.rs"));
    let taint: Vec<_> = f.iter().filter(|x| x.rule == "taint").collect();
    assert!(
        taint.len() >= 3,
        "user field, Point field, and exact_* field all caught: {f:?}"
    );
    assert!(taint.iter().any(|x| x.message.contains("`user`")));
    assert!(taint.iter().any(|x| x.message.contains("Point")));
    assert!(taint.iter().any(|x| x.message.contains("exact_centroid")));
    assert!(taint.iter().all(|x| x.line > 0));
}

#[test]
fn standing_boundary_structs_must_stay_marked() {
    // The required-marker rule pins the standing count structs in
    // wire.rs: deleting their `// lint: server-bound` annotations
    // (silently disabling the field check) is itself a finding. The
    // standing *range* structs are deliberately unpinned — they carry a
    // user id / public candidate positions and never leave the trusted
    // hop.
    let src = "pub struct RegisterStandingCountMsg { pub area: Rect }\n\
               pub struct StandingCountState { pub seq: u64 }\n";
    let f = lint_as("crates/core/src/wire.rs", src);
    for name in ["RegisterStandingCountMsg", "StandingCountState"] {
        assert!(
            f.iter()
                .any(|x| x.message.contains("must carry") && x.message.contains(name)),
            "{name}: {f:?}"
        );
    }
}

#[test]
fn unwrap_indexing_and_panic_in_decode_path_are_caught() {
    // The acceptance scenario: an unwrap() reintroduced into frame.rs.
    let f = lint_as("crates/net/src/frame.rs", &fixture("bad_unwrap_decode.rs"));
    let panics: Vec<_> = f.iter().filter(|x| x.rule == "panic").collect();
    assert!(
        panics.iter().any(|x| x.message.contains("`.unwrap()`")),
        "{f:?}"
    );
    assert!(panics.iter().any(|x| x.message.contains("panic!")), "{f:?}");
    assert!(
        panics.iter().any(|x| x.message.contains("indexing")),
        "{f:?}"
    );
    // The same file outside the hostile-input scope is not judged.
    let f = lint_as("crates/geom/src/frame.rs", &fixture("bad_unwrap_decode.rs"));
    assert!(f.iter().all(|x| x.rule != "panic"), "{f:?}");
}

#[test]
fn unwrap_in_store_recovery_path_is_caught() {
    // The store crate parses WAL bytes read back from disk — the same
    // hostile-input doctrine as the network frame decoder applies, so
    // its whole src/ tree sits in the panic-freedom scope.
    let f = lint_as("crates/store/src/wal.rs", &fixture("bad_store_unwrap.rs"));
    let panics: Vec<_> = f.iter().filter(|x| x.rule == "panic").collect();
    assert!(
        panics.iter().any(|x| x.message.contains("`.unwrap()`")),
        "{f:?}"
    );
    assert!(
        panics.iter().any(|x| x.message.contains("`.expect(`")
            || x.message.contains("`.expect()`")
            || x.message.contains(".expect")),
        "{f:?}"
    );
    assert!(
        panics.iter().any(|x| x.message.contains("indexing")),
        "{f:?}"
    );
    assert!(
        panics.iter().any(|x| x.message.contains("unreachable!")),
        "{f:?}"
    );
    // The journal codecs decode the same bytes during replay.
    let f = lint_as(
        "crates/core/src/journal.rs",
        &fixture("bad_store_unwrap.rs"),
    );
    assert!(f.iter().any(|x| x.rule == "panic"), "{f:?}");
    // A store *test* file is out of scope (tests construct their own
    // inputs and may unwrap freely).
    let f = lint_as(
        "crates/store/tests/faults.rs",
        &fixture("bad_store_unwrap.rs"),
    );
    assert!(f.iter().all(|x| x.rule != "panic"), "{f:?}");
}

#[test]
fn little_endian_accessors_outside_the_codec_are_caught() {
    // Every field the wire and the journal share is laid out in
    // codec.rs; a core module that writes or reads little-endian
    // fields itself is a finding at each call.
    let src = fixture("bad_le_outside_codec.rs");
    for rel in ["crates/core/src/wire.rs", "crates/core/src/journal.rs"] {
        let f = lint_as(rel, &src);
        let lines: Vec<usize> = f
            .iter()
            .filter(|x| x.rule == "codec")
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![9, 10, 18, 18], "{rel}: {f:?}");
    }
    // The codec itself, and code outside lbsp-core, may use them.
    for rel in ["crates/core/src/codec.rs", "crates/net/src/frame.rs"] {
        let f = lint_as(rel, &src);
        assert!(f.iter().all(|x| x.rule != "codec"), "{rel}: {f:?}");
    }
    // Both formats decode through the codec, so it is panic-free scope.
    assert!(scope_for("crates/core/src/codec.rs").panic_free);
}

#[test]
fn unregistered_and_misnamed_locks_are_caught() {
    let f = lint_as(
        "crates/server/src/cache.rs",
        &fixture("bad_unregistered_lock.rs"),
    );
    let locks: Vec<_> = f.iter().filter(|x| x.rule == "lock").collect();
    assert_eq!(locks.len(), 2, "{f:?}");
    assert!(locks.iter().any(|x| x.message.contains("Mutex::new")));
    assert!(locks.iter().any(|x| x.message.contains("NoSuchRank")));
}

#[test]
fn unjustified_escape_hatch_is_itself_a_finding() {
    let f = lint_as(
        "crates/net/src/frame.rs",
        &fixture("bad_unjustified_escape.rs"),
    );
    assert!(
        f.iter()
            .any(|x| x.rule == "annotation" && x.message.contains("justification")),
        "{f:?}"
    );
}

#[test]
fn good_fixture_is_clean_under_every_scope() {
    let src = fixture("good_boundary.rs");
    for rel in [
        "crates/net/src/lib.rs",
        "crates/core/src/wire.rs",
        "crates/server/src/private_fixture.rs",
        "crates/anonymizer/src/fixture.rs",
    ] {
        let f: Vec<Finding> = lint_as(rel, &src)
            .into_iter()
            // The required-marker rule is about the real boundary files'
            // struct names, which the fixture deliberately doesn't use.
            .filter(|x| !x.message.contains("must carry"))
            .collect();
        assert!(f.is_empty(), "scope {rel}: {f:?}");
    }
}

#[test]
fn workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("workspace scan succeeds");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
