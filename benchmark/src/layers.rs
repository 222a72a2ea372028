//! Single-layer microbenchmarks for the traced run: each times calls into
//! one module's public functions from outside, in a tight loop, and reports
//! a mean. These are the numbers a layer-local optimisation moves first;
//! the README says which end-to-end metric each should then move.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use islands_dtxn::{Action, Coordinator, DecisionLog, Participant, Vote};
use islands_server::deploy::{split_by_owner, split_plan_by_owner};
use islands_server::wire::{FrameReader, Request, WireMessage};
use islands_storage::btree::BTree;
use islands_storage::buffer::BufferPool;
use islands_storage::heap::HeapFile;
use islands_storage::lock::{LockId, LockMode, NativeLockManager};
use islands_storage::store::MemStore;
use islands_storage::wal::{FileLogDevice, LogDevice, LogManager, LogPayload, MemLogDevice};
use islands_storage::TxnId;
use islands_workload::{PlanRequest, TxnRequest};

use crate::workloads::{Req, MICRO_ROWS, POOL_FRAMES};
use crate::{err, Res};

/// Mean nanoseconds per call of `f` over `iters` calls.
fn mean_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..iters {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// A cheap deterministic key scatter (no RNG state to thread through).
fn scatter(i: usize, modulus: u64) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % modulus
}

/// `workload`: request generation, encode, decode (ns) and encoded bytes.
pub struct Codec {
    pub gen_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub request_bytes: f64,
}

pub fn codec(stream: &mut crate::workloads::Stream, n: usize) -> Res<(Codec, Vec<Req>)> {
    let mut reqs = Vec::with_capacity(n);
    let gen_ns = mean_ns(n, |_| reqs.push(stream.next()));
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); n];
    let encode_ns = mean_ns(n, |i| reqs[i].encode_into(&mut bufs[i]));
    let mut failed = false;
    let decode_ns = mean_ns(n, |i| {
        let ok = match &reqs[i] {
            Req::Micro(_) => {
                TxnRequest::decode_from(&bufs[i]).map(|(r, _)| black_box(r).keys.len())
            }
            Req::Plan(_) => {
                PlanRequest::decode_from(&bufs[i]).map(|(p, _)| black_box(p).steps.len())
            }
        };
        failed |= ok.is_err();
    });
    if failed {
        return Err("codec: a request did not decode".into());
    }
    let request_bytes = bufs.iter().map(Vec::len).sum::<usize>() as f64 / n.max(1) as f64;
    Ok((
        Codec {
            gen_ns,
            encode_ns,
            decode_ns,
            request_bytes,
        },
        reqs,
    ))
}

pub fn to_wire(req: &Req) -> Request {
    match req {
        Req::Micro(r) => Request::Submit(r.clone()),
        Req::Plan(p) => Request::SubmitPlan(p.clone()),
    }
}

/// `server::wire`: `Request` frame encode plus `FrameReader` reassembly and
/// decode, ns per request.
pub fn wire_frame_ns(reqs: &[Req]) -> Res<f64> {
    let frames: Vec<Request> = reqs.iter().map(to_wire).collect();
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    let mut failed = false;
    let ns = mean_ns(frames.len(), |i| {
        out.clear();
        frames[i].encode_frame(&mut out);
        reader.extend(&out);
        failed |= !matches!(reader.next_message::<Request>(), Ok(Some(_)));
    });
    if failed {
        return Err("wire: a frame did not reassemble".into());
    }
    Ok(ns)
}

/// `net`: UDS ping-pong floor, microseconds per round trip.
pub fn uds_rtt_us() -> Res<f64> {
    let live = islands_net::live::measure_unix_sockets(10_000).map_err(err("uds ping-pong"))?;
    Ok(2.0e6 / live.msgs_per_sec)
}

/// `storage::lock`: uncontended acquire cost through `NativeLockManager`
/// (one IX table lock and four X row locks per transaction, then release).
pub fn lock_acquire_ns() -> Res<f64> {
    let locks = NativeLockManager::new(Duration::from_millis(200));
    let mut failed = false;
    let txns = 20_000;
    let per_txn = mean_ns(txns, |i| {
        let txn = TxnId(i as u64 + 1);
        failed |= locks.lock(txn, LockId::Table(1), LockMode::IX).is_err();
        for k in 0..4 {
            let key = scatter(i * 4 + k, MICRO_ROWS);
            failed |= locks.lock(txn, LockId::Key(1, key), LockMode::X).is_err();
        }
        locks.unlock_all(txn);
    });
    if failed {
        return Err("lock: an uncontended acquire failed".into());
    }
    Ok(per_txn / 5.0)
}

/// `storage::btree` over a pool that holds it: point get, insert, short
/// range (ns) and the height a lookup traverses.
pub struct BTreeCost {
    pub get_ns: f64,
    pub insert_ns: f64,
    pub range_ns: f64,
}

pub fn btree() -> Res<BTreeCost> {
    const KEYS: usize = 240_000; // the TPC-C customer table's row count
    let pool = BufferPool::new(Arc::new(MemStore::new()), POOL_FRAMES);
    let tree = BTree::create(pool).map_err(err("btree create"))?;
    let mut failed = false;
    let insert_ns = mean_ns(KEYS, |i| {
        failed |= tree.insert(scatter(i, u64::MAX), i as u64).is_err();
    });
    let get_ns = mean_ns(100_000, |i| {
        failed |= !matches!(tree.get(scatter(i % KEYS, u64::MAX)), Ok(Some(_)));
    });
    let range_ns = mean_ns(50_000, |i| {
        let lo = scatter(i % KEYS, u64::MAX);
        failed |= tree
            .range(lo, lo.saturating_add(u64::MAX / KEYS as u64 * 4))
            .is_err();
    });
    if failed {
        return Err("btree: an operation failed".into());
    }
    Ok(BTreeCost {
        get_ns,
        insert_ns,
        range_ns,
    })
}

/// `storage::heap`: record read and in-place update by RID, ns.
pub fn heap() -> Res<(f64, f64)> {
    const RECORDS: usize = 50_000;
    let pool = BufferPool::new(Arc::new(MemStore::new()), POOL_FRAMES);
    let heap = HeapFile::create(pool).map_err(err("heap create"))?;
    let record = vec![7u8; 248];
    let mut rids = Vec::with_capacity(RECORDS);
    for _ in 0..RECORDS {
        rids.push(heap.insert(&record).map_err(err("heap insert"))?);
    }
    let mut failed = false;
    let read_ns = mean_ns(100_000, |i| {
        let rid = rids[scatter(i, RECORDS as u64) as usize];
        failed |= heap.with_record(rid, |rec| black_box(rec[0])).is_err();
    });
    let update_ns = mean_ns(100_000, |i| {
        let rid = rids[scatter(i, RECORDS as u64) as usize];
        failed |= heap.update(rid, &record).is_err();
    });
    if failed {
        return Err("heap: an operation failed".into());
    }
    Ok((read_ns, update_ns))
}

/// `storage::buffer`: fetch of a resident page against fetch of a page that
/// must be read back from the store (pool a sixteenth of the data), ns.
pub fn buffer() -> Res<(f64, f64)> {
    const FRAMES: usize = 64;
    const PAGES: usize = 1024;
    let pool = BufferPool::new(Arc::new(MemStore::new()), FRAMES);
    let mut pids = Vec::with_capacity(PAGES);
    for i in 0..PAGES {
        pids.push(pool.new_page().map_err(err("buffer new_page"))?.pid);
        // New pages are dirty and a pool without a WAL barrier never steals
        // a dirty frame: write them back before the pool fills.
        if i % (FRAMES / 2) == 0 {
            pool.flush_all().map_err(err("buffer flush"))?;
        }
    }
    pool.flush_all().map_err(err("buffer flush"))?;
    let mut failed = false;
    let resident = pool.fetch(pids[0]).map_err(err("buffer fetch"))?.pid;
    let hit_ns = mean_ns(200_000, |_| failed |= pool.fetch(resident).is_err());
    let misses_before = pool.stats.misses.load(std::sync::atomic::Ordering::Relaxed);
    let rounds = 20 * PAGES;
    let miss_ns = mean_ns(rounds, |i| failed |= pool.fetch(pids[i % PAGES]).is_err());
    let misses = pool.stats.misses.load(std::sync::atomic::Ordering::Relaxed) - misses_before;
    if failed || misses < rounds as u64 * 9 / 10 {
        return Err(format!(
            "buffer: {misses} misses in {rounds} cyclic fetches"
        ));
    }
    Ok((hit_ns, miss_ns))
}

/// `storage::wal` device/window combinations the deployments run with.
pub struct WalCost {
    pub append_ns: f64,
    pub commit_sync_us: f64,
    pub commit_group_us: f64,
    pub commit_file_us: f64,
}

fn commit_us(device: Arc<dyn LogDevice>, window: Duration, commits: usize) -> f64 {
    let wal = LogManager::new(device, 64 << 10, window);
    mean_ns(commits, |i| {
        let lsn = wal.append(TxnId(i as u64 + 1), &LogPayload::Commit);
        wal.commit_durable(lsn);
    }) / 1_000.0
}

pub fn wal(scratch: &Path) -> Res<WalCost> {
    let row = vec![0u8; crate::workloads::MICRO_ROW_SIZE];
    let wal = LogManager::new(MemLogDevice::new(), 64 << 10, Duration::from_micros(500));
    let append_ns = mean_ns(100_000, |i| {
        black_box(wal.append(
            TxnId(i as u64 + 1),
            &LogPayload::Update {
                table: 1,
                key: i as u64,
                before: row.clone(),
                after: row.clone(),
            },
        ));
    });
    drop(wal);
    let file = FileLogDevice::open(&scratch.join("layer-wal.log")).map_err(err("wal file"))?;
    Ok(WalCost {
        append_ns,
        commit_sync_us: commit_us(MemLogDevice::new(), Duration::ZERO, 50_000),
        // One committer: every commit waits out the whole group window.
        commit_group_us: commit_us(MemLogDevice::new(), Duration::from_micros(500), 1_000),
        commit_file_us: commit_us(file, Duration::ZERO, 1_500),
    })
}

/// `dtxn`: one commit round through the pure `Coordinator` and two
/// `Participant` state machines, ns.
pub fn dtxn_machine_ns() -> Res<f64> {
    let mut failed = false;
    let ns = mean_ns(200_000, |i| {
        let gtid = i as u64 + 1;
        let (mut coord, prepares) = Coordinator::new(gtid, vec![0, 1]);
        let mut parts = [Participant::new(gtid), Participant::new(gtid)];
        let mut decisions = 0;
        for action in prepares {
            if let Action::SendPrepare { to } = action {
                black_box(parts[to].on_prepare(true, true));
                for follow in coord.on_vote(to, Vote::Yes) {
                    if let Action::SendDecision { to, commit } = follow {
                        black_box(parts[to].on_decision(commit));
                        decisions += 1;
                    }
                }
            }
        }
        for to in 0..2 {
            black_box(coord.on_ack(to));
        }
        failed |= decisions != 2;
    });
    if failed {
        return Err("dtxn: a commit round did not decide both participants".into());
    }
    Ok(ns)
}

/// `dtxn::DecisionLog::force` on a file in the run's scratch dir, us.
pub fn decision_force_us(scratch: &Path) -> Res<f64> {
    let log =
        DecisionLog::open(&scratch.join("layer-decisions.log")).map_err(err("decision log"))?;
    let mut failed = false;
    let ns = mean_ns(1_500, |i| failed |= log.force(i as u64 + 1, true).is_err());
    if failed {
        return Err("decision log: a force failed".into());
    }
    Ok(ns / 1_000.0)
}

/// `server::deploy` routing: `split_by_owner` / `split_plan_by_owner`, ns.
pub fn route_ns(reqs: &[Req], instances: usize) -> f64 {
    mean_ns(reqs.len(), |i| match &reqs[i] {
        Req::Micro(r) => {
            black_box(split_by_owner(r, instances, MICRO_ROWS));
        }
        Req::Plan(p) => {
            black_box(split_plan_by_owner(p, |_, _| 0));
        }
    })
}
