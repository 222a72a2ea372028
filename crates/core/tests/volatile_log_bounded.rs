//! A volatile partition (no `--wal`) must not grow by its own log volume:
//! its device counts bytes and retains none. One test per process, so the
//! RSS reading is this workload's alone.

#![cfg(target_os = "linux")]

use islands_core::native::{PartitionConfig, PartitionEngine};
use islands_workload::{OpKind, TxnRequest};

fn rss_mb() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs");
    let pages: f64 = statm
        .split_whitespace()
        .nth(1)
        .expect("resident field")
        .parse()
        .expect("page count");
    pages * 4096.0 / 1e6
}

#[test]
fn volatile_log_does_not_grow_the_process() {
    let e = PartitionEngine::build(&PartitionConfig {
        lo: 0,
        hi: 1_000,
        row_size: 256,
        buffer_frames: 256,
        ..Default::default()
    })
    .unwrap();
    let run = |commits: u64| {
        for i in 0..commits {
            let req = TxnRequest {
                kind: OpKind::Update,
                keys: (0..4).map(|j| (i * 4 + j) % 1_000).collect(),
                multisite: false,
            };
            assert!(e.submit_local(&req, 0).unwrap().committed);
        }
    };
    // Let the pool, the log buffer and its spare reach their steady sizes.
    run(5_000);
    let (rss_before, log_before) = (rss_mb(), e.instance().wal().end_lsn());
    run(60_000);
    let logged_mb = (e.instance().wal().end_lsn() - log_before) as f64 / 1e6;
    let grew_mb = rss_mb() - rss_before;
    assert!(logged_mb > 100.0, "only {logged_mb:.0} MB logged");
    assert!(
        grew_mb < logged_mb / 10.0,
        "RSS grew {grew_mb:.1} MB while logging {logged_mb:.0} MB"
    );
    let wal = e.instance().wal();
    assert_eq!(wal.device().len(), wal.durable_lsn());
}
