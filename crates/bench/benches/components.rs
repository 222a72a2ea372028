//! Criterion microbenchmarks of the core substrates: B+tree, buffer pool,
//! lock table and manager (alone, beside one and beside three more
//! callers), log
//! buffer, WAL commit, the session and executor hops, Zipf sampling,
//! and the DES kernel.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use islands_core::native::{PartitionConfig, PartitionEngine};
use islands_server::{Backend, Client, Endpoint, Server, ServerConfig, ServerHandle};
use islands_sim::Sim;
use islands_storage::btree::BTree;
use islands_storage::buffer::BufferPool;
use islands_storage::lock::{LockId, LockMode, LockTable, NativeLockManager};
use islands_storage::store::MemStore;
use islands_storage::wal::buffer::LogBuffer;
use islands_storage::wal::record::LogPayload;
use islands_storage::wal::{DiscardLogDevice, LogDevice, LogManager};
use islands_storage::TxnId;
use islands_workload::{OpKind, TxnRequest, Zipf};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Time `op(0, i)` on this thread while `others` more threads run
/// `op(thread, i)` flat out: what one caller pays for a shared structure
/// when it really is shared. `i` counts each thread's own calls.
fn beside(c: &mut Criterion, id: &str, others: u64, op: impl Fn(u64, u64) + Sync) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 1..=others {
            let (op, stop) = (&op, &stop);
            s.spawn(move || {
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    op(t, i);
                }
            });
        }
        let mut i = 0;
        c.bench_function(id, |b| {
            b.iter(|| {
                i += 1;
                op(0, i)
            })
        });
        stop.store(true, Ordering::Relaxed);
    });
}

/// [`beside`] alone, with one other and with three others: `ID/1x`, `ID/2x`
/// and `ID/4x`. On a two-cpu box `/2x` is one caller per cpu — what sharing
/// the line costs — while `/4x` adds time-slicing on top.
fn by_callers(c: &mut Criterion, id: &str, op: impl Fn(u64, u64) + Sync) {
    for callers in [1, 2, 4] {
        beside(c, &format!("{id}/{callers}x"), callers - 1, &op);
    }
}

/// A point lookup in a 100k-key tree the pool holds: every caller crosses
/// the same root.
fn bench_btree(c: &mut Criterion) {
    let pool = BufferPool::new(Arc::new(MemStore::new()), 8192);
    pool.set_wal_barrier(Arc::new(|| Ok(())));
    let tree = BTree::create(pool).unwrap();
    for k in 0..100_000u64 {
        tree.insert(k, k).unwrap();
    }
    by_callers(c, "btree_get", |t, i| {
        let k = (t * 25_000 + i * 7919) % 100_000;
        std::hint::black_box(tree.get(k).unwrap());
    });
}

/// A hit on a resident page: the callers' pages differ, the pool is one.
fn bench_buffer_fetch(c: &mut Criterion) {
    let pool = BufferPool::new(Arc::new(MemStore::new()), 8192);
    let pids: Vec<_> = (0..1024).map(|_| pool.new_page().unwrap().pid).collect();
    by_callers(c, "buffer_fetch_hit", |t, i| {
        let pid = pids[(t * 256 + i % 256) as usize];
        std::hint::black_box(pool.fetch(pid).unwrap().pid);
    });
}

fn bench_lock_table(c: &mut Criterion) {
    c.bench_function("lock_acquire_release", |b| {
        let mut lt = LockTable::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let txn = TxnId(t);
            lt.acquire(txn, LockId::Key(1, t % 64), LockMode::X);
            lt.release_all(txn);
        })
    });
    // The blocking manager as a direct caller may use it: one table intent,
    // four row locks, one release. Callers share the table lock and nothing
    // else — the line a transaction stopped writing when `TxnHandle` dropped
    // its intents, kept here so the cost stays measured.
    let locks = NativeLockManager::new(Duration::from_millis(200));
    by_callers(c, "lock_acquire", |t, i| {
        let txn = TxnId(i * 4 + t + 1);
        let mut held = locks.lock(txn, LockId::Table(1), LockMode::IX).unwrap();
        for row in 0..4 {
            let key = (t << 32) | ((i * 4 + row) % 40_000);
            held |= locks.lock(txn, LockId::Key(1, key), LockMode::X).unwrap();
        }
        locks.unlock(txn, held);
    });
}

fn bench_log_buffer(c: &mut Criterion) {
    c.bench_function("log_append_update", |b| {
        let mut lb = LogBuffer::new(1 << 20, 0);
        let payload = LogPayload::Update {
            table: 1,
            key: 7,
            before: vec![0u8; 64],
            after: vec![1u8; 64],
        };
        b.iter(|| {
            let lsn = lb.append(TxnId(1), &payload);
            if let Some(batch) = lb.due() {
                lb.written(batch);
            }
            std::hint::black_box(lsn)
        })
    });
}

/// A log device whose `sync` takes a disk-like while (and keeps no bytes,
/// so a long measurement does not grow the process).
struct DelayedDevice {
    inner: Arc<DiscardLogDevice>,
    sync_delay: Duration,
}

impl LogDevice for DelayedDevice {
    fn append(&self, bytes: &[u8]) -> islands_storage::Result<()> {
        self.inner.append(bytes)
    }
    fn sync(&self) -> islands_storage::Result<()> {
        std::thread::sleep(self.sync_delay);
        Ok(())
    }
    fn read_all(&self) -> islands_storage::Result<Vec<u8>> {
        self.inner.read_all()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// One forced commit (`append` + `commit_durable`) as seen by one committer,
/// alone and beside three others, on a memory-speed and on a delayed device:
/// the WAL hop of the per-layer budget. Alone, a commit costs one device
/// turn and no wait; in company on the delayed device it costs up to two
/// (the flush in flight, then the one its record rides) while the device
/// sees a fraction of the syncs.
fn bench_wal_commit(c: &mut Criterion) {
    for committers in [1u64, 4] {
        wal_commit_case(c, "mem", committers, DiscardLogDevice::new());
        let delayed = Arc::new(DelayedDevice {
            inner: DiscardLogDevice::new(),
            sync_delay: Duration::from_micros(200),
        });
        wal_commit_case(c, "delayed_200us", committers, delayed);
    }
}

fn wal_commit_case(c: &mut Criterion, name: &str, committers: u64, device: Arc<dyn LogDevice>) {
    let wal = LogManager::new(device, 64 << 10, Duration::ZERO);
    let id = format!("wal_commit/{committers}x_{name}");
    beside(c, &id, committers - 1, |txn, _| {
        let lsn = wal.append(TxnId(txn), &LogPayload::Commit);
        wal.commit_durable(lsn).unwrap();
    });
}

/// The two hops between a client's frame and the engine, each on its own
/// and stacked: a `Ping` is the session alone (read, decode, reply, flush —
/// the UDS round trip plus whatever the session adds), a 1-step `submit`
/// adds the engine in either mode, and the bare
/// `PartitionEngine::submit_plan_local` on a serial partition is that
/// engine's share with no socket in the way.
fn bench_session_roundtrip(c: &mut Criterion) {
    let partition = || PartitionConfig {
        lo: 0,
        hi: 1_000,
        ..Default::default()
    };
    let plan = TxnRequest {
        kind: OpKind::Update,
        keys: vec![7],
        multisite: false,
    }
    .to_plan();
    let serve = |name: &str, backend: Backend| -> (ServerHandle, Client) {
        let socket = std::env::temp_dir().join(format!(
            "islands-components-{}-{name}.sock",
            std::process::id()
        ));
        let handle =
            Server::spawn_backend(backend, Endpoint::Uds(socket), ServerConfig::default()).unwrap();
        let client = Client::connect(handle.endpoint()).unwrap();
        (handle, client)
    };
    let stop = |handle: ServerHandle, mut client: Client| {
        client.drain_server().unwrap();
        handle.join().unwrap();
    };

    let locked = Arc::new(PartitionEngine::build(&partition()).unwrap());
    let (handle, mut client) = serve("partition", Backend::Partition(locked));
    c.bench_function("session_roundtrip/ping", |b| {
        b.iter(|| client.ping().unwrap())
    });
    c.bench_function("session_roundtrip/submit_partition", |b| {
        b.iter(|| client.submit_plan(&plan).unwrap())
    });
    stop(handle, client);

    let serial = PartitionConfig {
        single_threaded: true,
        ..partition()
    };
    let serial = Arc::new(PartitionEngine::build(&serial).unwrap());
    c.bench_function("session_roundtrip/executor_submit_plan", |b| {
        b.iter(|| serial.submit_plan_local(&plan, 0).unwrap())
    });
    let (handle, mut client) = serve("executor", Backend::Partition(serial));
    c.bench_function("session_roundtrip/submit_executor", |b| {
        b.iter(|| client.submit_plan(&plan).unwrap())
    });
    stop(handle, client);
}

fn bench_zipf(c: &mut Criterion) {
    let z = Zipf::new(240_000, 0.99);
    let mut rng = SmallRng::seed_from_u64(3);
    c.bench_function("zipf_sample", |b| {
        b.iter(|| std::hint::black_box(z.sample(&mut rng)))
    });
}

fn bench_des(c: &mut Criterion) {
    c.bench_function("des_10k_events", |b| {
        b.iter(|| {
            let sim = Sim::new();
            for i in 0..10u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    for _ in 0..1000 {
                        s.sleep(100 + i).await;
                    }
                });
            }
            sim.run();
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(20);
    targets = bench_btree, bench_buffer_fetch, bench_lock_table, bench_log_buffer, bench_wal_commit,
        bench_session_roundtrip, bench_zipf, bench_des
}
criterion_main!(benches);
