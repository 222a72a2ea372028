//! End-to-end smoke test for the `islands-sweep` experiment driver: run
//! minimal sweeps over real served deployments — spawned instance processes
//! in both engine modes, an in-process cluster (micro and TPC-C), an
//! open-loop schedule, a single-value "one deployment" invocation — then
//! check the
//! `islands-sweep/1` JSON each emits: schema identity, coherent
//! non-negative counters, and zero in-doubt 2PC leaks.

use std::process::Command;

use islands_bench::jsonscan::{int_field, num_field, str_field};

/// Run `islands-sweep` over a small dataset with `flags`, require exit 0 and
/// the closing verdict line, and return the JSON document it wrote.
fn sweep(tag: &str, flags: &str) -> String {
    let json_path =
        std::env::temp_dir().join(format!("islands-sweep-{tag}-{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_islands-sweep"))
        .args(flags.split_whitespace())
        .args(["--secs", "0.3", "--clients", "2", "--rows", "400"])
        .args(["--rows-per-txn", "2", "--pin", "off", "--json"])
        .arg(&json_path)
        .output()
        .expect("run islands-sweep");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "islands-sweep {flags} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(stdout.contains("sweep complete"), "{stdout}");
    let text = std::fs::read_to_string(&json_path).expect("sweep JSON written");
    let _ = std::fs::remove_file(&json_path);
    text
}

/// The one-line-per-cell objects of a sweep document.
fn cells(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| l.contains("\"granularity\":"))
        .collect()
}

#[test]
fn minimal_sweep_runs_clean_and_emits_coherent_json() {
    let text = sweep("smoke", "--instances 2 --multisite 0,100 --sites 2");

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
    let cells = cells(&text);
    assert_eq!(cells.len(), 2, "expected 2 cells:\n{text}");
    let mut committed_sum = 0i64;
    for cell in &cells {
        assert_eq!(str_field(cell, "granularity"), Some("2isl"));
        assert_eq!(str_field(cell, "deploy"), Some("proc"));
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
            // Every one of them parked a branch on each (locked) instance
            // between its vote and the decision, and the instances' obs
            // registries saw them come and go.
            assert!(int_field(cell, "parked_count").unwrap() > 0, "{cell}");
        }
        assert_eq!(int_field(cell, "parked_now"), Some(0), "{cell}");

        // Per-instance exits are present and leak-free.
        let exits = &cell[cell.find("\"instance_exits\":").expect("exits")..];
        assert!(exits.contains("\"clean\":true"));
        assert!(!exits.contains("\"clean\":false"));
    }
    assert_eq!(committed_sum, total_committed, "totals must sum the cells");
}

#[test]
fn serial_engine_cell_runs_clean_and_carries_its_engine_label() {
    // The --engine axis end to end: a serial-executor cell commits
    // transactions, drains clean, and stamps its cells with the engine
    // label — over spawned instance processes whose partitions execute one
    // transaction at a time, and over the in-process cluster of the same
    // instances behind one server.
    for deploy in ["proc", "inproc"] {
        let flags = format!("--instances 2 --multisite 0,50 --engine serial --deploy {deploy}");
        let text = sweep(deploy, &flags);
        let cells = cells(&text);
        assert_eq!(cells.len(), 2, "{text}");
        for cell in &cells {
            assert_eq!(str_field(cell, "engine"), Some("serial"), "{cell}");
            assert_eq!(str_field(cell, "deploy"), Some(deploy), "{cell}");
            assert!(int_field(cell, "committed").unwrap() > 0, "{cell}");
            assert_eq!(int_field(cell, "in_doubt_leaks"), Some(0), "{cell}");
            assert_eq!(int_field(cell, "unclean_instances"), Some(0), "{cell}");
            assert_eq!(int_field(cell, "parked_now"), Some(0), "{cell}");
        }
    }
}

#[test]
fn single_values_make_a_one_cell_sweep_open_or_closed_loop() {
    // Every list flag takes a bare value: one deployment is a one-cell
    // sweep. Closed loop, then the same cell on an open-loop schedule.
    for (open, mode) in [("", "closed"), ("--open 2000", "open@2000")] {
        let text = sweep("single", &format!("--multisite 20 --instances 2 {open}"));
        let cells = cells(&text);
        assert_eq!(cells.len(), 1, "{text}");
        assert_eq!(num_field(cells[0], "multisite_pct"), Some(20.0));
        assert!(int_field(cells[0], "committed").unwrap() > 0, "{text}");
        assert!(text.contains(&format!("\"mode\":\"{mode}\"")), "{text}");
    }
}

#[test]
fn an_inproc_tpcc_cell_runs_clean_with_remote_payments_as_2pc() {
    // The in-process cluster is built from the same deployment description
    // as the spawned one, TPC-C tables included: NewOrder and Payment plans
    // through one server in the sweep's own process, remote payments across
    // its two instances as direct-call 2PC.
    let text = sweep(
        "inproc-tpcc",
        "--deploy inproc --workload tpcc --instances 2 --multisite 50",
    );
    let cells = cells(&text);
    assert_eq!(cells.len(), 1, "{text}");
    let cell = cells[0];
    assert_eq!(str_field(cell, "workload"), Some("tpcc"), "{cell}");
    assert_eq!(str_field(cell, "deploy"), Some("inproc"), "{cell}");
    assert_eq!(int_field(cell, "warehouses"), Some(4), "{cell}");
    assert!(int_field(cell, "committed").unwrap() > 0, "{cell}");
    assert_eq!(int_field(cell, "in_doubt_leaks"), Some(0), "{cell}");
    assert_eq!(int_field(cell, "client_failures"), Some(0), "{cell}");
    assert_eq!(int_field(cell, "parked_now"), Some(0), "{cell}");
    let remote = &cell[cell.find("\"payment_multisite\":").expect("tpcc classes")..];
    assert!(int_field(remote, "committed").unwrap() > 0, "{cell}");
    assert!(int_field(remote, "distributed").unwrap() > 0, "{cell}");
}
