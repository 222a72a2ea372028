//! End-to-end smoke test for the `islands-sweep` experiment driver: run a
//! minimal 2-cell sweep over real spawned instance processes, then check
//! the `islands-sweep/1` JSON it emits — schema identity, coherent
//! non-negative counters, and zero in-doubt 2PC leaks.

use std::process::Command;

use islands_bench::jsonscan::{int_field, num_field, str_field};

#[test]
fn minimal_sweep_runs_clean_and_emits_coherent_json() {
    let json_path =
        std::env::temp_dir().join(format!("islands-sweep-smoke-{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_islands-sweep"))
        .args([
            "--instances",
            "2",
            "--multisite",
            "0,100",
            "--sites",
            "2",
            "--secs",
            "0.3",
            "--clients",
            "2",
            "--rows",
            "400",
            "--rows-per-txn",
            "2",
            "--pin",
            "off",
            "--json",
        ])
        .arg(&json_path)
        .output()
        .expect("run islands-sweep");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "islands-sweep failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(stdout.contains("sweep complete"), "{stdout}");

    let text = std::fs::read_to_string(&json_path).expect("sweep JSON written");
    let _ = std::fs::remove_file(&json_path);

    // Document-level schema identity and totals.
    assert!(text.contains("\"schema\": \"islands-sweep/1\""), "{text}");
    let totals = text
        .lines()
        .find(|l| l.contains("\"totals\""))
        .expect("totals line");
    assert_eq!(int_field(totals, "cells"), Some(2), "{totals}");
    assert_eq!(int_field(totals, "unclean_instances"), Some(0));
    assert_eq!(int_field(totals, "in_doubt_leaks"), Some(0));
    let total_committed = int_field(totals, "committed").expect("total committed");
    assert!(total_committed > 0, "a sweep must commit transactions");

    // Cell-level checks: one line per cell, counters coherent.
    let cells: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"granularity\":"))
        .collect();
    assert_eq!(cells.len(), 2, "expected 2 cells:\n{text}");
    let mut committed_sum = 0i64;
    for cell in &cells {
        assert_eq!(str_field(cell, "granularity"), Some("2isl"));
        assert_eq!(int_field(cell, "instances"), Some(2));
        assert_eq!(int_field(cell, "sites"), Some(2));

        let committed = int_field(cell, "committed").expect("committed");
        assert!(committed >= 0);
        committed_sum += committed;
        let tput = num_field(cell, "throughput_tps").expect("throughput_tps");
        assert!(tput >= 0.0);
        // Committed at a positive rate implies a positive throughput.
        assert_eq!(committed > 0, tput > 0.0, "{cell}");

        assert_eq!(int_field(cell, "unclean_instances"), Some(0), "{cell}");
        assert_eq!(int_field(cell, "in_doubt_leaks"), Some(0), "{cell}");
        assert_eq!(int_field(cell, "client_failures"), Some(0), "{cell}");
        let elapsed = num_field(cell, "elapsed_secs").expect("elapsed");
        assert!(elapsed > 0.0);

        // The class split covers the whole committed count: at 0% multisite
        // everything is local, at 100% everything is multisite.
        let pct = num_field(cell, "multisite_pct").expect("multisite_pct");
        let local = &cell[cell.find("\"local\":").expect("local class")..];
        let multi = &cell[cell.find("\"multisite\":").expect("multisite class")..];
        let local_committed = int_field(local, "committed").unwrap();
        let multi_committed = int_field(multi, "committed").unwrap();
        assert_eq!(local_committed + multi_committed, committed, "{cell}");
        if pct == 0.0 {
            assert_eq!(multi_committed, 0, "{cell}");
        } else {
            assert_eq!(local_committed, 0, "{cell}");
            // --sites 2 pins every multisite txn to 2 instances: all of
            // them are physically distributed.
            let distributed = int_field(multi, "distributed").unwrap();
            assert_eq!(distributed, multi_committed, "{cell}");
        }

        // Per-instance exits are present and leak-free.
        let exits = &cell[cell.find("\"instance_exits\":").expect("exits")..];
        assert!(exits.contains("\"clean\":true"));
        assert!(!exits.contains("\"clean\":false"));
    }
    assert_eq!(committed_sum, total_committed, "totals must sum the cells");
}

#[test]
fn serial_engine_cell_runs_clean_and_carries_its_engine_label() {
    // The --engine axis end to end: a serial-executor cell spawns real
    // instance processes whose partitions execute one transaction at a time,
    // commits transactions, drains clean, and stamps its cells with the
    // engine label (what baseline matching keys on).
    let json_path =
        std::env::temp_dir().join(format!("islands-sweep-serial-{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_islands-sweep"))
        .args([
            "--instances",
            "2",
            "--multisite",
            "0,50",
            "--engine",
            "serial",
            "--secs",
            "0.3",
            "--clients",
            "2",
            "--rows",
            "400",
            "--rows-per-txn",
            "2",
            "--pin",
            "off",
            "--json",
        ])
        .arg(&json_path)
        .output()
        .expect("run islands-sweep");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "serial sweep failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(stdout.contains("sweep complete"), "{stdout}");

    let text = std::fs::read_to_string(&json_path).expect("sweep JSON written");
    let _ = std::fs::remove_file(&json_path);
    let cells: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"granularity\":"))
        .collect();
    assert_eq!(cells.len(), 2, "{text}");
    for cell in &cells {
        assert_eq!(str_field(cell, "engine"), Some("serial"), "{cell}");
        assert!(int_field(cell, "committed").unwrap() > 0, "{cell}");
        assert_eq!(int_field(cell, "in_doubt_leaks"), Some(0), "{cell}");
        assert_eq!(int_field(cell, "unclean_instances"), Some(0), "{cell}");
    }
}
