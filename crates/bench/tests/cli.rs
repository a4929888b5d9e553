//! `repro`'s command line: every command is a row of one table, `--help`
//! prints it, and a word that names no row is an error that prints it.

use std::process::{Command, Output};

/// Every row of the table, modes and experiments, in table order.
const ROWS: &str = "--serve --connect --stats --route --cluster-verify --cluster-chaos --cluster \
                    --net-sweep --conn-smoke index-micro --help \
                    e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15";

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// The first word of each indented table line: the row names listed.
fn listed(text: &[u8]) -> String {
    let text = String::from_utf8_lossy(text);
    let rows = text.lines().filter(|l| l.starts_with("  "));
    let names: Vec<&str> = rows.filter_map(|l| l.split_whitespace().next()).collect();
    names.join(" ")
}

#[test]
fn help_lists_every_row_and_exits_zero() {
    let out = repro(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(listed(&out.stdout), ROWS);
}

#[test]
fn a_word_that_names_no_row_exits_two_and_prints_the_table() {
    for args in [
        &["--no-such-flag"][..],
        &["e99"],
        &["--cluster-verfy", "127.0.0.1:1"],
        &["e3", "e99"],
        &["e3", "--cluster"],
        &["--serve", "127.0.0.1:0", "--wal-dri", "d"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert_eq!(listed(&out.stderr), ROWS, "{args:?}");
    }
}

#[test]
fn a_mode_without_its_operand_exits_two() {
    for args in [
        &["--serve"][..],
        &["--route", "127.0.0.1:0"],
        &["--conn-smoke", "many"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert_eq!(listed(&out.stderr), ROWS, "{args:?}");
    }
}
