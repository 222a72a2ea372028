//! Property-based tests on the storage substrates.

use std::collections::BTreeMap;
use std::sync::Arc;

use islands_storage::btree::{BTree, MAX_FANOUT};
use islands_storage::buffer::BufferPool;
use islands_storage::lock::{Acquire, LockId, LockMode, LockTable};
use islands_storage::store::MemStore;
use islands_storage::table::Table;
use islands_storage::wal::record::{decode, encode, encoded_len, LogPayload};
use islands_storage::{StorageError, TxnId};
use proptest::prelude::*;

/// Keys the bulk-load properties draw from: small enough that edits hit
/// loaded keys, large enough for a default-fanout tree of two levels.
const KEY_SPACE: u64 = 4096;

/// A pool that may steal dirty pages (no WAL to force first).
fn stealing_pool(frames: usize) -> Arc<BufferPool> {
    let pool = BufferPool::new(Arc::new(MemStore::new()), frames);
    pool.set_wal_barrier(Arc::new(|| Ok(())));
    pool
}

/// A strictly ascending key set.
fn ascending_keys() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..KEY_SPACE, 0..2000).prop_map(|mut keys| {
        keys.sort_unstable();
        keys.dedup();
        keys
    })
}

/// Inserts (`true`) and deletes of keys in the key space.
fn edits() -> impl Strategy<Value = Vec<(bool, u64)>> {
    prop::collection::vec((any::<bool>(), 0..KEY_SPACE), 0..200)
}

/// A payload that names its key.
fn row_of(key: u64) -> Vec<u8> {
    [key.to_le_bytes(), (!key).to_le_bytes()].concat()
}

/// Two trees answer every get, a full scan, the `lo..=hi` scan and `len`
/// alike.
fn same_trees(a: &BTree, b: &BTree, (lo, hi): (u64, u64)) {
    for k in 0..KEY_SPACE {
        prop_assert_eq!(a.get(k).unwrap(), b.get(k).unwrap(), "get {}", k);
    }
    prop_assert_eq!(a.range(0, u64::MAX).unwrap(), b.range(0, u64::MAX).unwrap());
    prop_assert_eq!(a.range(lo, hi).unwrap(), b.range(lo, hi).unwrap());
    prop_assert_eq!(a.len(), b.len());
}

/// [`same_trees`] for tables: payloads, row counts.
fn same_tables(a: &Table, b: &Table, (lo, hi): (u64, u64)) {
    for k in 0..KEY_SPACE {
        prop_assert_eq!(a.get(k).unwrap(), b.get(k).unwrap(), "get {}", k);
    }
    prop_assert_eq!(a.range(0, u64::MAX).unwrap(), b.range(0, u64::MAX).unwrap());
    prop_assert_eq!(a.range(lo, hi).unwrap(), b.range(lo, hi).unwrap());
    prop_assert_eq!(a.row_count(), b.row_count());
}

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u64),
    Delete(u16),
    Get(u16),
    Range(u16, u16),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (any::<u16>(), any::<u64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        any::<u16>().prop_map(TreeOp::Delete),
        any::<u16>().prop_map(TreeOp::Get),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| TreeOp::Range(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The page-based B+tree behaves exactly like a model BTreeMap under
    /// arbitrary interleavings of insert/delete/get/range.
    #[test]
    fn btree_matches_model(ops in prop::collection::vec(tree_op(), 1..300)) {
        let pool = BufferPool::new(Arc::new(MemStore::new()), 512);
        pool.set_wal_barrier(Arc::new(|| Ok(())));
        let tree = BTree::create_with_fanout(pool, 5).unwrap(); // deep trees
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let k = k as u64;
                    let r = tree.insert(k, v);
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        prop_assert!(r.is_ok());
                        e.insert(v);
                    } else {
                        prop_assert!(r.is_err(), "duplicate insert must fail");
                    }
                }
                TreeOp::Delete(k) => {
                    let k = k as u64;
                    let was = tree.delete(k).unwrap();
                    prop_assert_eq!(was, model.remove(&k).is_some());
                }
                TreeOp::Get(k) => {
                    let k = k as u64;
                    prop_assert_eq!(tree.get(k).unwrap(), model.get(&k).copied());
                }
                TreeOp::Range(a, b) => {
                    let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
                    let got = tree.range(lo, hi).unwrap();
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len() as u64);
    }

    /// A tree built bottom-up by `load` answers exactly like one built by
    /// inserting the same keys one at a time — at the default fanout and at
    /// a small one — is never taller, and stays alike under later inserts
    /// and deletes applied to both.
    #[test]
    fn a_bulk_loaded_btree_matches_one_built_by_inserts(
        keys in ascending_keys(),
        small_fanout in any::<bool>(),
        edits in edits(),
        a in 0..KEY_SPACE,
        b in 0..KEY_SPACE,
    ) {
        let fanout = if small_fanout { 5 } else { MAX_FANOUT };
        let tree = || BTree::create_with_fanout(stealing_pool(256), fanout).unwrap();
        let (loaded, inserted) = (tree(), tree());
        let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k * 3 + 1)).collect();
        loaded.load(&entries).unwrap();
        for &(k, v) in &entries {
            inserted.insert(k, v).unwrap();
        }
        prop_assert!(loaded.height() <= inserted.height());
        let range = (a.min(b), a.max(b));
        same_trees(&loaded, &inserted, range);
        for (insert, k) in edits {
            if insert {
                prop_assert_eq!(loaded.insert(k, k).is_ok(), inserted.insert(k, k).is_ok());
            } else {
                prop_assert_eq!(loaded.delete(k).unwrap(), inserted.delete(k).unwrap());
            }
        }
        same_trees(&loaded, &inserted, range);
    }

    /// The same for a whole table: `Table::load` against `insert_row` per
    /// row, payloads included.
    #[test]
    fn a_bulk_loaded_table_matches_one_built_row_by_row(
        keys in ascending_keys(),
        edits in edits(),
        a in 0..KEY_SPACE,
        b in 0..KEY_SPACE,
    ) {
        let table = || Table::create(stealing_pool(256), 1, "t", 16).unwrap();
        let (loaded, inserted) = (table(), table());
        loaded.load(keys.iter().map(|&k| (k, row_of(k)))).unwrap();
        for &k in &keys {
            inserted.insert_row(k, &row_of(k)).unwrap();
        }
        prop_assert!(loaded.index_height() <= inserted.index_height());
        let range = (a.min(b), a.max(b));
        same_tables(&loaded, &inserted, range);
        for (insert, k) in edits {
            if insert {
                let row = row_of(k.wrapping_mul(7));
                prop_assert_eq!(
                    loaded.insert_row(k, &row).is_ok(),
                    inserted.insert_row(k, &row).is_ok()
                );
            } else {
                prop_assert_eq!(loaded.delete_row(k).unwrap(), inserted.delete_row(k).unwrap());
            }
        }
        same_tables(&loaded, &inserted, range);
    }

    /// Log records survive an encode/decode round trip, byte-exactly.
    #[test]
    fn log_records_round_trip(
        txn in any::<u64>(),
        table in any::<u32>(),
        key in any::<u64>(),
        before in prop::collection::vec(any::<u8>(), 0..200),
        after in prop::collection::vec(any::<u8>(), 0..200),
        gtid in any::<u64>(),
        commit in any::<bool>(),
    ) {
        for payload in [
            LogPayload::Begin,
            LogPayload::Insert { table, key, data: after.clone() },
            LogPayload::Update { table, key, before, after },
            LogPayload::Commit,
            LogPayload::Abort,
            LogPayload::Prepare { gtid },
            LogPayload::Decision { gtid, commit },
            LogPayload::End,
            LogPayload::Checkpoint { snapshot_lsn: key },
        ] {
            let mut buf = Vec::new();
            encode(TxnId(txn), &payload, &mut buf);
            prop_assert_eq!(buf.len(), encoded_len(&payload));
            let (rec, used) = decode(&buf, 7).unwrap();
            prop_assert_eq!(used, buf.len());
            prop_assert_eq!(rec.txn, TxnId(txn));
            prop_assert_eq!(rec.payload, payload);
        }
    }

    /// Lock-table safety: whatever the request sequence, the granted set of
    /// every lock stays pairwise compatible, and releasing everything
    /// leaves the table empty.
    #[test]
    fn lock_table_grants_stay_compatible(
        reqs in prop::collection::vec(
            (1u64..12, 0u64..6, 0u8..4), 1..200
        )
    ) {
        let mut lt = LockTable::new();
        let mut live: Vec<TxnId> = Vec::new();
        for (txn, key, mode) in reqs {
            let txn = TxnId(txn);
            let mode = match mode {
                0 => LockMode::IS,
                1 => LockMode::IX,
                2 => LockMode::S,
                _ => LockMode::X,
            };
            match lt.acquire(txn, LockId::Key(1, key), mode) {
                Acquire::Granted => {
                    if !live.contains(&txn) {
                        live.push(txn);
                    }
                    // The new holder must be compatible with co-holders:
                    // verified indirectly by holds() + the matrix below.
                    prop_assert!(lt.holds(txn, LockId::Key(1, key), mode));
                }
                Acquire::Wait | Acquire::Die => {
                    // Waiting/killed txns release everything (abort path),
                    // waking whoever became grantable.
                    lt.release_all(txn);
                    live.retain(|&t| t != txn);
                }
            }
        }
        for t in live {
            lt.release_all(t);
        }
        prop_assert_eq!(lt.active_locks(), 0, "all entries drained");
    }
}

/// Every way a load can be malformed is a typed error raised before a page
/// is written, and the table still reads as empty (and still loads).
#[test]
fn a_rejected_load_is_a_typed_error_and_leaves_no_row_visible() {
    type Check = fn(&StorageError) -> bool;
    type Rows = Vec<(u64, Vec<u8>)>;
    let row = |k: u64| (k, row_of(k));
    // A load of many pages whose one bad row is its last.
    let mut late: Rows = (1..=3000).map(row).collect();
    late.push(row(3000));
    let cases: [(&str, Rows, Check); 4] = [
        ("unsorted", vec![row(1), row(3), row(2)], |e| {
            matches!(e, StorageError::UnsortedLoad { prev: 3, key: 2 })
        }),
        ("duplicate", vec![row(1), row(2), row(2)], |e| {
            matches!(e, StorageError::DuplicateKey(2))
        }),
        ("payload", vec![row(1), (2, vec![0u8; 15])], |e| {
            matches!(e, StorageError::RecordTooLarge(15))
        }),
        ("late duplicate", late, |e| {
            matches!(e, StorageError::DuplicateKey(3000))
        }),
    ];
    for (what, rows, rejected) in cases {
        let pool = stealing_pool(64);
        let t = Table::create(Arc::clone(&pool), 1, "t", 16).unwrap();
        let pages = pool.store().num_pages();
        let err = t.load(rows).unwrap_err();
        assert!(rejected(&err), "{what}: {err}");
        assert_eq!(
            pool.store().num_pages(),
            pages,
            "{what}: a page was allocated"
        );
        assert_eq!(t.row_count(), 0, "{what}");
        assert!(t.range(0, u64::MAX).unwrap().is_empty(), "{what}");
        assert_eq!(t.get(1).unwrap(), None, "{what}");
        t.load([row(1), row(2)]).unwrap();
        assert_eq!(t.get(2).unwrap(), Some(row_of(2)), "{what}: loads after");
    }

    // A table that holds rows, loaded or inserted, takes no load, and
    // allocates nothing refusing one.
    let pool = stealing_pool(64);
    let t = Table::create(Arc::clone(&pool), 1, "t", 16).unwrap();
    t.load([row(1)]).unwrap();
    let u = Table::create(Arc::clone(&pool), 2, "u", 16).unwrap();
    u.insert_row(1, &row_of(1)).unwrap();
    let pages = pool.store().num_pages();
    let many = || (5..3000).map(row);
    assert!(matches!(t.load(many()), Err(StorageError::NotEmpty(_))));
    assert!(matches!(u.load(many()), Err(StorageError::NotEmpty(_))));
    assert_eq!(pool.store().num_pages(), pages);
    for t in [&t, &u] {
        assert_eq!(t.range(0, u64::MAX).unwrap(), vec![row(1)]);
        assert_eq!(t.get(5).unwrap(), None);
    }
    // So does an index.
    let tree = BTree::create(stealing_pool(64)).unwrap();
    tree.insert(1, 1).unwrap();
    assert!(matches!(
        tree.load(&[(5, 5)]),
        Err(StorageError::NotEmpty(_))
    ));
    assert_eq!(tree.range(0, u64::MAX).unwrap(), vec![(1, 1)]);
}
