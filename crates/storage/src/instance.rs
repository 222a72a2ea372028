//! A database instance: catalog + buffer pool + lock manager + WAL, with
//! full transaction support and participant-side 2PC.
//!
//! One [`StorageInstance`] corresponds to one "database instance" in the
//! paper's deployments: shared-everything runs a single instance spanning
//! the machine, `NISL` configurations run `N` of them side by side, each
//! owning a partition.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use islands_obs::BreakdownCategory;
use parking_lot::RwLock;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::lock::{LockId, LockMode, NativeLockManager, ShardSet};
use crate::page::{Page, PageId, PAGE_TYPE_CATALOG};
use crate::store::PageStore;
use crate::table::{Table, TableMeta};
use crate::wal::record::LogPayload;
use crate::wal::recovery::{analyze, LogAnalysis, RedoOp, ReplayOp, UndoOp};
use crate::wal::{LogDevice, LogManager};
use crate::{Lsn, TxnId};

/// Instance construction knobs.
#[derive(Debug, Clone)]
pub struct InstanceOptions {
    /// Buffer pool frames (8 KB each).
    pub buffer_frames: usize,
    /// One worker thread ⇒ skip locking entirely (paper's fine-grained
    /// shared-nothing optimization; Sections 6.2, 7.1.1).
    pub single_threaded: bool,
    pub lock_timeout: Duration,
    /// Log-buffer bytes at which an appender flushes without being asked.
    pub flush_threshold: usize,
    /// Ignored. The log manager groups commits behind whichever committer
    /// is in the device, not behind a timer (see [`LogManager`]); the field
    /// exists only because `benchmark/`, which a product PR may not edit,
    /// still reads and sets it.
    pub group_window: Duration,
}

impl Default for InstanceOptions {
    fn default() -> Self {
        InstanceOptions {
            buffer_frames: 4096, // 32 MB
            single_threaded: false,
            lock_timeout: Duration::from_secs(2),
            flush_threshold: 64 << 10,
            group_window: Duration::from_micros(500),
        }
    }
}

/// An in-doubt transaction surfaced by recovery: prepared locally, awaiting
/// the coordinator's decision.
#[derive(Debug)]
pub struct InDoubt {
    pub txn: TxnId,
    pub gtid: u64,
    /// Applied (idempotently) if the decision is commit.
    pub ops: Vec<RedoOp>,
    /// Applied (idempotently, already reversed) if the decision is abort.
    pub undo: Vec<UndoOp>,
}

impl InDoubt {
    /// Key footprint `(table, key)` this branch will touch when resolved —
    /// the rows new transactions must not write while it is parked undecided
    /// (the branch's old incarnation held X locks on exactly these).
    pub fn keys(&self) -> Vec<(u32, u64)> {
        let mut keys: Vec<(u32, u64)> = self
            .ops
            .iter()
            .map(|op| match op {
                RedoOp::Insert { table, key, .. } | RedoOp::Update { table, key, .. } => {
                    (*table, *key)
                }
            })
            .chain(self.undo.iter().map(|op| match op {
                UndoOp::Revert { table, key, .. } | UndoOp::Remove { table, key } => (*table, *key),
            }))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// The database instance.
pub struct StorageInstance {
    pub opts: InstanceOptions,
    pool: Arc<BufferPool>,
    locks: Arc<NativeLockManager>,
    wal: Arc<LogManager>,
    catalog: RwLock<Catalog>,
    next_txn: AtomicU64,
    next_table: AtomicU64,
    active_txns: AtomicU64,
    #[cfg(feature = "lockcheck")]
    lockcheck: crate::lockcheck::InstanceCheck,
}

#[derive(Default)]
struct Catalog {
    by_name: HashMap<String, Arc<Table>>,
    by_id: HashMap<u32, Arc<Table>>,
    snapshot_lsn: Lsn,
}

impl StorageInstance {
    /// Create a fresh instance over `store` and `log_device`.
    pub fn create(
        store: Arc<dyn PageStore>,
        log_device: Arc<dyn LogDevice>,
        opts: InstanceOptions,
    ) -> Arc<Self> {
        let pool = BufferPool::new(store, opts.buffer_frames);
        let wal = LogManager::new(log_device, opts.flush_threshold, opts.group_window);
        Self::wire_wal_barrier(&pool, &wal);
        Arc::new(StorageInstance {
            locks: Arc::new(NativeLockManager::new(opts.lock_timeout)),
            pool,
            wal,
            catalog: RwLock::new(Catalog::default()),
            next_txn: AtomicU64::new(1),
            next_table: AtomicU64::new(1),
            active_txns: AtomicU64::new(0),
            opts,
            #[cfg(feature = "lockcheck")]
            lockcheck: crate::lockcheck::InstanceCheck::new(),
        })
    }

    /// Register this instance into a deployment-wide `lockcheck` ownership
    /// [`Scope`](crate::lockcheck::Scope): from now on, a key first touched
    /// here panics if another scoped instance touches it.
    #[cfg(feature = "lockcheck")]
    pub fn set_lockcheck_scope(&self, scope: std::sync::Arc<crate::lockcheck::Scope>) {
        self.lockcheck.set_scope(scope);
    }

    /// Make the calling thread this `single_threaded` instance's owner until
    /// the claim drops; see [`lockcheck`](crate::lockcheck) on thread
    /// ownership.
    #[cfg(feature = "lockcheck")]
    pub fn lockcheck_claim(&self) -> crate::lockcheck::Claim<'_> {
        self.lockcheck.claim()
    }

    /// Dirty-page steal honors the write-ahead rule by forcing the whole log
    /// first (coarse but correct; stealing is rare when the pool fits the
    /// working set, as in the paper's setup).
    fn wire_wal_barrier(pool: &Arc<BufferPool>, wal: &Arc<LogManager>) {
        let wal = Arc::clone(wal);
        pool.set_wal_barrier(Arc::new(move || wal.flush()));
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn wal(&self) -> &Arc<LogManager> {
        &self.wal
    }

    pub fn locks(&self) -> &Arc<NativeLockManager> {
        &self.locks
    }

    // -- catalog -------------------------------------------------------------

    /// Create an empty table; fill it with [`Table::load`]. A row size no
    /// page can hold is refused before an id or a page is spent.
    pub fn create_table(&self, name: &str, row_size: usize) -> Result<Arc<Table>> {
        Table::check_row_size(row_size)?;
        let id = self.next_table.fetch_add(1, Ordering::SeqCst) as u32;
        let table = Arc::new(Table::create(Arc::clone(&self.pool), id, name, row_size)?);
        let mut cat = self.catalog.write();
        cat.by_name.insert(name.to_owned(), Arc::clone(&table));
        cat.by_id.insert(id, Arc::clone(&table));
        Ok(table)
    }

    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.catalog
            .read()
            .by_name
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(name.to_owned()))
    }

    pub fn table_by_id(&self, id: u32) -> Option<Arc<Table>> {
        self.catalog.read().by_id.get(&id).cloned()
    }

    // -- transactions ---------------------------------------------------------

    /// Start a transaction.
    pub fn begin(self: &Arc<Self>) -> TxnHandle {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::SeqCst));
        self.active_txns.fetch_add(1, Ordering::SeqCst);
        TxnHandle {
            instance: Arc::clone(self),
            id,
            state: TxnState::Active,
            wrote: false,
            last_lsn: 0,
            undo: Vec::new(),
            lock_shards: ShardSet::default(),
        }
    }

    pub fn active_txns(&self) -> u64 {
        self.active_txns.load(Ordering::SeqCst)
    }

    // -- checkpoint / recovery -----------------------------------------------

    /// Quiesced checkpoint: flush the pool, persist the catalog, log a
    /// checkpoint record. Fails if transactions are active.
    pub fn checkpoint(&self) -> Result<()> {
        if self.active_txns() != 0 {
            return Err(StorageError::CorruptCatalog(
                "checkpoint requires quiesce (active transactions)".into(),
            ));
        }
        let snapshot_lsn = self.wal.end_lsn();
        self.pool.flush_all()?;
        self.write_catalog_page(snapshot_lsn)?;
        let lsn = self
            .wal
            .append(TxnId(0), &LogPayload::Checkpoint { snapshot_lsn });
        self.wal.commit_durable(lsn)?;
        self.catalog.write().snapshot_lsn = snapshot_lsn;
        Ok(())
    }

    fn write_catalog_page(&self, snapshot_lsn: Lsn) -> Result<()> {
        let cat = self.catalog.read();
        let mut page = Page::new();
        page.set_page_type(PAGE_TYPE_CATALOG);
        let mut off = 16usize;
        page.write_u32(off, 0x15_1A_0D_05); // magic
        off += 4;
        page.write_u64(off, snapshot_lsn);
        off += 8;
        page.write_u64(off, self.next_txn.load(Ordering::SeqCst));
        off += 8;
        page.write_u64(off, self.next_table.load(Ordering::SeqCst));
        off += 8;
        page.write_u32(off, cat.by_id.len() as u32);
        off += 4;
        let mut metas: Vec<TableMeta> = cat.by_id.values().map(|t| t.meta()).collect();
        metas.sort_by_key(|m| m.id);
        for m in metas {
            page.write_u32(off, m.id);
            off += 4;
            page.write_u32(off, m.row_size as u32);
            off += 4;
            page.write_u64(off, m.heap_head.0);
            off += 8;
            page.write_u64(off, m.index_root.0);
            off += 8;
            page.write_u32(off, m.index_height);
            off += 4;
            page.write_u64(off, m.row_count);
            off += 8;
            let name = m.name.as_bytes();
            page.write_u16(off, name.len() as u16);
            off += 2;
            page.data[off..off + name.len()].copy_from_slice(name);
            off += name.len();
        }
        self.pool.store().write_page(PageId(0), &page)?;
        self.pool.store().sync()?;
        Ok(())
    }

    fn read_catalog_page(store: &Arc<dyn PageStore>) -> Result<(Lsn, u64, u64, Vec<TableMeta>)> {
        let mut page = Page::new();
        store.read_page(PageId(0), &mut page)?;
        if page.page_type() != PAGE_TYPE_CATALOG {
            return Err(StorageError::CorruptCatalog("bad page type".into()));
        }
        let mut off = 16usize;
        let magic = page.read_u32(off);
        off += 4;
        if magic != 0x15_1A_0D_05 {
            return Err(StorageError::CorruptCatalog("bad magic".into()));
        }
        let snapshot_lsn = page.read_u64(off);
        off += 8;
        let next_txn = page.read_u64(off);
        off += 8;
        let next_table = page.read_u64(off);
        off += 8;
        let n = page.read_u32(off);
        off += 4;
        let mut metas = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let id = page.read_u32(off);
            off += 4;
            let row_size = page.read_u32(off) as usize;
            off += 4;
            let heap_head = PageId(page.read_u64(off));
            off += 8;
            let index_root = PageId(page.read_u64(off));
            off += 8;
            let index_height = page.read_u32(off);
            off += 4;
            let row_count = page.read_u64(off);
            off += 8;
            let name_len = page.read_u16(off) as usize;
            off += 2;
            let name = String::from_utf8(page.data[off..off + name_len].to_vec())
                .map_err(|_| StorageError::CorruptCatalog("bad table name".into()))?;
            off += name_len;
            metas.push(TableMeta {
                id,
                name,
                row_size,
                heap_head,
                index_root,
                index_height,
                row_count,
            });
        }
        Ok((snapshot_lsn, next_txn, next_table, metas))
    }

    /// Recover an instance from a store (last checkpoint snapshot) and its
    /// log. Returns the instance and any in-doubt prepared transactions for
    /// the deployment layer to resolve against coordinator decisions.
    pub fn recover(
        store: Arc<dyn PageStore>,
        log_device: Arc<dyn LogDevice>,
        opts: InstanceOptions,
    ) -> Result<(Arc<Self>, Vec<InDoubt>)> {
        let (snapshot_lsn, next_txn, next_table, metas) = Self::read_catalog_page(&store)?;
        let log_bytes = log_device.read_all()?;
        let pool = BufferPool::new(store, opts.buffer_frames);
        let mut cat = Catalog {
            snapshot_lsn,
            ..Default::default()
        };
        for m in &metas {
            let t = Arc::new(Table::open(Arc::clone(&pool), m)?);
            cat.by_name.insert(m.name.clone(), Arc::clone(&t));
            cat.by_id.insert(m.id, t);
        }
        let analysis = analyze(&log_bytes, snapshot_lsn)?;
        Self::apply_analysis(&cat, &analysis)?;
        let max_seen = analysis
            .committed
            .iter()
            .chain(analysis.aborted.iter())
            .chain(analysis.in_doubt.keys())
            .map(|t| t.0)
            .max()
            .unwrap_or(0);
        let wal = LogManager::new(log_device, opts.flush_threshold, opts.group_window);
        let inst = Arc::new(StorageInstance {
            locks: Arc::new(NativeLockManager::new(opts.lock_timeout)),
            pool,
            wal,
            catalog: RwLock::new(cat),
            next_txn: AtomicU64::new(next_txn.max(max_seen + 1)),
            next_table: AtomicU64::new(next_table),
            active_txns: AtomicU64::new(0),
            opts,
            #[cfg(feature = "lockcheck")]
            lockcheck: crate::lockcheck::InstanceCheck::new(),
        });
        let in_doubt = analysis
            .in_doubt
            .into_iter()
            .map(|(txn, gtid)| InDoubt {
                txn,
                gtid,
                ops: analysis.in_doubt_ops.get(&txn).cloned().unwrap_or_default(),
                undo: analysis
                    .in_doubt_undo
                    .get(&txn)
                    .cloned()
                    .unwrap_or_default(),
            })
            .collect();
        Ok((inst, in_doubt))
    }

    /// Replay a full WAL byte stream into this freshly rebuilt instance —
    /// the restart path for deployments whose page store is volatile and
    /// whose only durable state is the WAL file.
    ///
    /// The caller rebuilds the instance exactly as at first boot (same
    /// table-creation order, same unlogged initial load), then hands the
    /// prior log here. Unlike [`recover`](Self::recover), there is no
    /// snapshot to start from: the rebuilt initial load *is* the base image,
    /// so the whole log is analyzed from offset 0 and checkpoint records are
    /// ignored. Committed work is redone (idempotently), losers are undone,
    /// and surviving prepared 2PC branches come back as [`InDoubt`] for the
    /// deployment layer to resolve via [`resolve_in_doubt`](Self::resolve_in_doubt).
    pub fn replay_log(&self, log: &[u8]) -> Result<Vec<InDoubt>> {
        let analysis = analyze(log, 0)?;
        Self::apply_analysis(&self.catalog.read(), &analysis)?;
        // Never reuse a transaction id the old incarnation logged under —
        // losers included, or a new txn's records would alias a dead one's.
        let max_seen = analysis
            .committed
            .iter()
            .chain(analysis.aborted.iter())
            .chain(analysis.in_doubt.keys())
            .map(|t| t.0)
            .chain(analysis.undo.iter().map(|&(_, t, _)| t.0))
            .max()
            .unwrap_or(0);
        self.next_txn.fetch_max(max_seen + 1, Ordering::SeqCst);
        let in_doubt = analysis
            .in_doubt
            .into_iter()
            .map(|(txn, gtid)| InDoubt {
                txn,
                gtid,
                ops: analysis.in_doubt_ops.get(&txn).cloned().unwrap_or_default(),
                undo: analysis
                    .in_doubt_undo
                    .get(&txn)
                    .cloned()
                    .unwrap_or_default(),
            })
            .collect();
        Ok(in_doubt)
    }

    /// The forward pass in LSN order (committed work redone, aborted work
    /// rolled back where its `Abort` was logged), then losers undone in
    /// reverse LSN order (stolen pages may hold their effects).
    fn apply_analysis(cat: &Catalog, analysis: &LogAnalysis) -> Result<()> {
        for (_, _, op) in &analysis.replay {
            match op {
                ReplayOp::Redo(op) => Self::apply_redo(cat, op)?,
                ReplayOp::Rollback(op) => Self::apply_undo(cat, op)?,
            }
        }
        for (_, _, op) in analysis.undo.iter().rev() {
            Self::apply_undo(cat, op)?;
        }
        Ok(())
    }

    fn apply_redo(cat: &Catalog, op: &RedoOp) -> Result<()> {
        match op {
            RedoOp::Insert { table, key, data } => {
                if let Some(t) = cat.by_id.get(table) {
                    match t.insert_row(*key, data) {
                        Ok(_) | Err(StorageError::DuplicateKey(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            RedoOp::Update { table, key, after } => {
                if let Some(t) = cat.by_id.get(table) {
                    match t.update(*key, after) {
                        Ok(_) => {}
                        // Row may post-date the snapshot and precede this
                        // update only if its insert was redone; missing row
                        // with no insert means corrupted log.
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Ok(())
    }

    fn apply_undo(cat: &Catalog, op: &UndoOp) -> Result<()> {
        match op {
            UndoOp::Revert { table, key, before } => {
                if let Some(t) = cat.by_id.get(table) {
                    match t.update(*key, before) {
                        Ok(_) | Err(StorageError::KeyNotFound(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            UndoOp::Remove { table, key } => {
                if let Some(t) = cat.by_id.get(table) {
                    t.delete_row(*key)?;
                }
            }
        }
        Ok(())
    }

    /// Apply the decision for an in-doubt transaction from recovery.
    pub fn resolve_in_doubt(&self, in_doubt: &InDoubt, commit: bool) -> Result<()> {
        let cat = self.catalog.read();
        if commit {
            for op in &in_doubt.ops {
                Self::apply_redo(&cat, op)?;
            }
            self.wal.append(in_doubt.txn, &LogPayload::Commit);
        } else {
            for op in &in_doubt.undo {
                Self::apply_undo(&cat, op)?;
            }
            self.wal.append(in_doubt.txn, &LogPayload::Abort);
        }
        drop(cat);
        let lsn = self.wal.append(in_doubt.txn, &LogPayload::End);
        self.wal.commit_durable(lsn)
    }
}

// ---------------------------------------------------------------------------
// TxnHandle
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    Active,
    Prepared,
    Finished,
}

/// What rolls one write back. Tables go by catalog id: a clone of the
/// table's `Arc` per write would have every session bumping the same
/// reference count.
struct UndoEntry {
    table: u32,
    key: u64,
    /// The image an update overwrote; `None` for an insert, which is rolled
    /// back by removing the row.
    before: Option<Vec<u8>>,
}

/// A live transaction. Dropping an unfinished handle aborts it (RAII).
pub struct TxnHandle {
    instance: Arc<StorageInstance>,
    id: TxnId,
    state: TxnState,
    wrote: bool,
    last_lsn: Lsn,
    undo: Vec<UndoEntry>,
    /// Lock-manager shards this transaction holds locks in: the only ones
    /// its release visits.
    lock_shards: ShardSet,
}

impl TxnHandle {
    pub fn id(&self) -> TxnId {
        self.id
    }

    fn check_active(&self) -> Result<()> {
        match self.state {
            TxnState::Active => Ok(()),
            _ => Err(StorageError::TxnFinished(self.id)),
        }
    }

    /// Lock row `key` of `table` in `mode` (`S` or `X`), and nothing else.
    ///
    /// No table intent: an `IS`/`IX` conflicts only with a table-level `S`
    /// or `X`, and no transaction path requests one, so an intent would buy
    /// no exclusion — only one more lock-table entry every session writes.
    /// Whoever adds a table-level `S`/`X` request (a scan under a table
    /// lock, a lock-escalation path) must bring the intents back here first.
    fn lock_row(&mut self, table: u32, key: u64, mode: LockMode) -> Result<()> {
        if self.instance.opts.single_threaded {
            return Ok(());
        }
        self.lock_shards |= self
            .instance
            .locks
            .lock(self.id, LockId::Key(table, key), mode)?;
        Ok(())
    }

    /// Race-detector hook on every transactional key access (no-op unless
    /// built with `--features lockcheck`).
    #[inline]
    fn lockcheck_access(&self, key: u64) {
        #[cfg(feature = "lockcheck")]
        self.instance
            .lockcheck
            .on_access(self.instance.opts.single_threaded, key);
        #[cfg(not(feature = "lockcheck"))]
        let _ = key;
    }

    /// Read one row (S lock on the key).
    pub fn read_row(&mut self, table: &Table, key: u64) -> Result<Option<Vec<u8>>> {
        let _span = islands_obs::enter(BreakdownCategory::XctExecution);
        self.check_active()?;
        self.lockcheck_access(key);
        self.lock_row(table.id, key, LockMode::S)?;
        table.get(key)
    }

    /// Rewrite one row in place (X lock on the key),
    /// logging before/after images: the read-modify-write of a row as one
    /// lock request, one index descent and one page latch. A transaction
    /// that reads under S and then updates pays each of those twice and
    /// can die on the S→X upgrade with its work half done.
    pub fn modify(&mut self, table: &Table, key: u64, f: impl FnOnce(&mut [u8])) -> Result<()> {
        let _span = islands_obs::enter(BreakdownCategory::XctExecution);
        self.check_active()?;
        self.lockcheck_access(key);
        self.lock_row(table.id, key, LockMode::X)?;
        let (before, after) = table.modify(key, |row| {
            let before = row.to_vec();
            f(row);
            (before, row.to_vec())
        })?;
        self.last_lsn = self.instance.wal.append(
            self.id,
            &LogPayload::Update {
                table: table.id,
                key,
                before: before.clone(),
                after,
            },
        );
        self.wrote = true;
        self.undo.push(UndoEntry {
            table: table.id,
            key,
            before: Some(before),
        });
        Ok(())
    }

    /// Overwrite one row (see [`modify`](Self::modify)).
    pub fn update_row(&mut self, table: &Table, key: u64, payload: &[u8]) -> Result<()> {
        table.check_payload(payload)?;
        self.modify(table, key, |row| row.copy_from_slice(payload))
    }

    /// Insert a new row.
    pub fn insert_row(&mut self, table: &Table, key: u64, payload: &[u8]) -> Result<()> {
        let _span = islands_obs::enter(BreakdownCategory::XctExecution);
        self.check_active()?;
        self.lockcheck_access(key);
        self.lock_row(table.id, key, LockMode::X)?;
        table.insert_row(key, payload)?;
        self.last_lsn = self.instance.wal.append(
            self.id,
            &LogPayload::Insert {
                table: table.id,
                key,
                data: payload.to_vec(),
            },
        );
        self.wrote = true;
        self.undo.push(UndoEntry {
            table: table.id,
            key,
            before: None,
        });
        Ok(())
    }

    /// [`read_row`](Self::read_row) on the table called `table`.
    pub fn read(&mut self, table: &str, key: u64) -> Result<Option<Vec<u8>>> {
        let table = self.instance.table(table)?;
        self.read_row(&table, key)
    }

    /// [`update_row`](Self::update_row) on the table called `table`.
    pub fn update(&mut self, table: &str, key: u64, payload: &[u8]) -> Result<()> {
        let table = self.instance.table(table)?;
        self.update_row(&table, key, payload)
    }

    /// [`insert_row`](Self::insert_row) on the table called `table`.
    pub fn insert(&mut self, table: &str, key: u64, payload: &[u8]) -> Result<()> {
        let table = self.instance.table(table)?;
        self.insert_row(&table, key, payload)
    }

    /// Commit: force the commit record if the transaction wrote (group
    /// commit absorbs the force), then release locks.
    pub fn commit(mut self) -> Result<()> {
        self.check_active()?;
        self.finish_commit()
    }

    fn finish_commit(&mut self) -> Result<()> {
        if self.wrote || self.state == TxnState::Prepared {
            let lsn = self.instance.wal.append(self.id, &LogPayload::Commit);
            // On a failed force the handle stays unfinished: dropping it
            // rolls the transaction back, and the caller sees the error
            // instead of a commit.
            self.instance.wal.commit_durable(lsn)?;
        }
        self.release(TxnState::Finished);
        Ok(())
    }

    /// Roll back: undo applied changes in reverse order, log the abort.
    pub fn abort(mut self) -> Result<()> {
        self.do_abort()
    }

    fn do_abort(&mut self) -> Result<()> {
        if self.state == TxnState::Finished {
            return Ok(());
        }
        for UndoEntry { table, key, before } in self.undo.drain(..).rev() {
            let table = self
                .instance
                .table_by_id(table)
                .ok_or_else(|| StorageError::NoSuchTable(format!("table id {table}")))?;
            match before {
                Some(before) => {
                    table.update(key, &before)?;
                }
                None => {
                    table.delete_row(key)?;
                }
            }
        }
        if self.wrote || self.state == TxnState::Prepared {
            self.instance.wal.append(self.id, &LogPayload::Abort);
        }
        self.release(TxnState::Finished);
        Ok(())
    }

    /// Participant side of 2PC phase 1: force a prepare record. After this,
    /// only the coordinator's decision may finish the transaction.
    /// Read-only participants skip the force and report it.
    pub fn prepare(&mut self, gtid: u64) -> Result<PrepareVote> {
        self.check_active()?;
        if !self.wrote {
            // Read-only optimization: vote, release immediately, no phase 2.
            self.release(TxnState::Finished);
            return Ok(PrepareVote::ReadOnly);
        }
        let lsn = self
            .instance
            .wal
            .append(self.id, &LogPayload::Prepare { gtid });
        self.instance.wal.commit_durable(lsn)?;
        self.state = TxnState::Prepared;
        Ok(PrepareVote::Yes)
    }

    /// Phase 2 for a prepared participant.
    pub fn decide(mut self, commit: bool) -> Result<()> {
        if self.state != TxnState::Prepared {
            return Err(StorageError::TxnFinished(self.id));
        }
        if commit {
            self.finish_commit()
        } else {
            self.state = TxnState::Active; // allow undo path
            self.do_abort()
        }
    }

    /// Whether this transaction performed any writes.
    pub fn wrote(&self) -> bool {
        self.wrote
    }

    fn release(&mut self, end_state: TxnState) {
        if !self.instance.opts.single_threaded {
            self.instance
                .locks
                .unlock(self.id, std::mem::take(&mut self.lock_shards));
        }
        if self.state != TxnState::Finished {
            self.instance.active_txns.fetch_sub(1, Ordering::SeqCst);
        }
        self.state = end_state;
        self.undo.clear();
    }
}

/// Participant's vote in 2PC phase 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepareVote {
    Yes,
    ReadOnly,
}

impl Drop for TxnHandle {
    fn drop(&mut self) {
        if self.state != TxnState::Finished {
            let _ = self.do_abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::wal::device::testdev::TestDevice;
    use crate::wal::MemLogDevice;

    fn fresh(opts: InstanceOptions) -> Arc<StorageInstance> {
        StorageInstance::create(Arc::new(MemStore::new()), MemLogDevice::new(), opts)
    }

    fn small_opts() -> InstanceOptions {
        InstanceOptions {
            buffer_frames: 256,
            group_window: Duration::from_micros(100),
            ..Default::default()
        }
    }

    #[test]
    fn commit_makes_changes_visible() {
        let inst = fresh(small_opts());
        let t = inst.create_table("a", 8).unwrap();
        t.load([(1, [0u8; 8])]).unwrap();
        let mut txn = inst.begin();
        txn.update("a", 1, &[9u8; 8]).unwrap();
        txn.commit().unwrap();
        let mut txn = inst.begin();
        assert_eq!(txn.read("a", 1).unwrap(), Some(vec![9u8; 8]));
        txn.commit().unwrap();
        assert_eq!(inst.active_txns(), 0);
    }

    #[test]
    fn abort_rolls_back_updates_and_inserts() {
        let inst = fresh(small_opts());
        let t = inst.create_table("a", 8).unwrap();
        t.load([(1, [1u8; 8])]).unwrap();
        let mut txn = inst.begin();
        txn.update("a", 1, &[2u8; 8]).unwrap();
        txn.insert("a", 5, &[5u8; 8]).unwrap();
        txn.abort().unwrap();
        let mut txn = inst.begin();
        assert_eq!(txn.read("a", 1).unwrap(), Some(vec![1u8; 8]));
        assert_eq!(txn.read("a", 5).unwrap(), None);
        txn.commit().unwrap();
    }

    #[test]
    fn drop_without_commit_aborts() {
        let inst = fresh(small_opts());
        let t = inst.create_table("a", 8).unwrap();
        t.load([(1, [1u8; 8])]).unwrap();
        {
            let mut txn = inst.begin();
            txn.update("a", 1, &[9u8; 8]).unwrap();
            // dropped here
        }
        let mut txn = inst.begin();
        assert_eq!(txn.read("a", 1).unwrap(), Some(vec![1u8; 8]));
        txn.commit().unwrap();
        assert_eq!(inst.active_txns(), 0);
    }

    #[test]
    fn a_row_no_page_holds_is_refused_at_create_table() {
        let inst = fresh(small_opts());
        let pages = inst.pool().store().num_pages();
        let too_big = crate::page::MAX_RECORD - 7;
        assert!(matches!(
            inst.create_table("big", too_big),
            Err(StorageError::RecordTooLarge(n)) if n == too_big + 8
        ));
        assert_eq!(inst.pool().store().num_pages(), pages, "no page spent");
        assert!(inst.table("big").is_err());
        let t = inst.create_table("widest", too_big - 1).unwrap();
        assert_eq!(t.id, 1, "the refused table spent no id");
        t.load([(1, vec![5u8; too_big - 1])]).unwrap();
        assert_eq!(t.get(1).unwrap(), Some(vec![5u8; too_big - 1]));
    }

    #[test]
    fn conflicting_writers_serialize_or_die() {
        let inst = fresh(small_opts());
        let t = inst.create_table("a", 8).unwrap();
        t.load([(1, [0u8; 8])]).unwrap();
        let mut t1 = inst.begin();
        let t2 = inst.begin(); // younger
        let mut t2 = t2;
        t1.update("a", 1, &[1u8; 8]).unwrap();
        // Younger conflicting writer dies immediately (wait-die).
        let err = t2.update("a", 1, &[2u8; 8]).unwrap_err();
        assert!(matches!(err, StorageError::Deadlock(_)));
        t2.abort().unwrap();
        t1.commit().unwrap();
    }

    /// An instance with a 64-row table: a transaction over all of it holds
    /// locks in (nearly) every shard of the lock manager.
    fn wide(lock_timeout: Duration) -> Arc<StorageInstance> {
        let inst = fresh(InstanceOptions {
            lock_timeout,
            ..small_opts()
        });
        let t = inst.create_table("a", 8).unwrap();
        t.load((0..64).map(|k| (k, [0u8; 8]))).unwrap();
        inst
    }

    fn update_all_but(txn: &mut TxnHandle, skip: u64) {
        for k in (0..64).filter(|&k| k != skip) {
            txn.update("a", k, &[1u8; 8]).unwrap();
        }
    }

    #[test]
    fn commit_releases_locks_in_every_shard_it_touched() {
        let inst = wide(Duration::from_secs(2));
        let mut txn = inst.begin();
        update_all_but(&mut txn, 64);
        assert_eq!(inst.locks().active_locks(), 64, "the rows, no table");
        txn.commit().unwrap();
        assert_eq!(inst.locks().active_locks(), 0);
    }

    #[test]
    fn a_killed_transaction_releases_every_shard_it_touched() {
        let inst = wide(Duration::from_secs(2));
        let mut old = inst.begin();
        let mut young = inst.begin();
        old.update("a", 7, &[1u8; 8]).unwrap();
        update_all_but(&mut young, 7);
        assert!(matches!(
            young.update("a", 7, &[2u8; 8]),
            Err(StorageError::Deadlock(_))
        ));
        young.abort().unwrap();
        assert_eq!(inst.locks().active_locks(), 1, "the survivor's row");
        old.commit().unwrap();
        assert_eq!(inst.locks().active_locks(), 0);
    }

    #[test]
    fn a_timed_out_transaction_releases_every_shard_and_its_queued_wait() {
        let inst = wide(Duration::from_millis(50));
        let mut old = inst.begin();
        let mut young = inst.begin();
        young.update("a", 7, &[1u8; 8]).unwrap();
        update_all_but(&mut old, 7);
        // Older than the holder, so it waits — and nobody releases.
        assert!(matches!(
            old.update("a", 7, &[2u8; 8]),
            Err(StorageError::LockTimeout(_))
        ));
        old.abort().unwrap();
        assert_eq!(inst.locks().active_locks(), 1, "the holder's row");
        young.commit().unwrap();
        assert_eq!(inst.locks().active_locks(), 0);
        let (_, waits, dies) = inst.locks().stats();
        assert_eq!((waits, dies), (1, 0));
    }

    #[test]
    fn single_threaded_skips_locking() {
        let inst = fresh(InstanceOptions {
            single_threaded: true,
            ..small_opts()
        });
        let t = inst.create_table("a", 8).unwrap();
        t.load([(1, [0u8; 8])]).unwrap();
        let mut t1 = inst.begin();
        let mut t2 = inst.begin();
        t1.update("a", 1, &[1u8; 8]).unwrap();
        // No lock manager: no conflict surfaces (single worker by contract).
        t2.update("a", 1, &[2u8; 8]).unwrap();
        t2.commit().unwrap();
        t1.commit().unwrap();
        let (acquires, _, _) = inst.locks().stats();
        assert_eq!(acquires, 0);
    }

    #[test]
    fn recovery_replays_committed_and_drops_losers() {
        let store: Arc<dyn PageStore> = Arc::new(MemStore::new());
        let dev = MemLogDevice::new();
        {
            let inst = StorageInstance::create(Arc::clone(&store), dev.clone(), small_opts());
            let t = inst.create_table("a", 8).unwrap();
            t.load((0..10u64).map(|k| (k, [0u8; 8]))).unwrap();
            inst.checkpoint().unwrap();
            // Committed update.
            let mut txn = inst.begin();
            txn.update("a", 3, &[3u8; 8]).unwrap();
            txn.commit().unwrap();
            // Committed insert.
            let mut txn = inst.begin();
            txn.insert("a", 100, &[7u8; 8]).unwrap();
            txn.commit().unwrap();
            // Loser: updated but never committed ("crash" before commit).
            let mut txn = inst.begin();
            txn.update("a", 4, &[9u8; 8]).unwrap();
            std::mem::forget(txn); // simulate crash: no abort, no commit
        }
        // "Reboot" from store + log.
        let (inst, in_doubt) = StorageInstance::recover(store, dev, small_opts()).unwrap();
        assert!(in_doubt.is_empty());
        let mut txn = inst.begin();
        assert_eq!(txn.read("a", 3).unwrap(), Some(vec![3u8; 8]));
        assert_eq!(txn.read("a", 100).unwrap(), Some(vec![7u8; 8]));
        assert_eq!(
            txn.read("a", 4).unwrap(),
            Some(vec![0u8; 8]),
            "loser undone"
        );
        txn.commit().unwrap();
    }

    #[test]
    fn recovery_surfaces_in_doubt_and_resolves() {
        let store: Arc<dyn PageStore> = Arc::new(MemStore::new());
        let dev = MemLogDevice::new();
        {
            let inst = StorageInstance::create(Arc::clone(&store), dev.clone(), small_opts());
            let t = inst.create_table("a", 8).unwrap();
            t.load([(1, [0u8; 8])]).unwrap();
            inst.checkpoint().unwrap();
            let mut txn = inst.begin();
            txn.update("a", 1, &[5u8; 8]).unwrap();
            assert_eq!(txn.prepare(777).unwrap(), PrepareVote::Yes);
            std::mem::forget(txn); // crash while in doubt
        }
        let (inst, in_doubt) = StorageInstance::recover(store, dev, small_opts()).unwrap();
        assert_eq!(in_doubt.len(), 1);
        assert_eq!(in_doubt[0].gtid, 777);
        // Effects withheld until the decision arrives.
        {
            let mut txn = inst.begin();
            assert_eq!(txn.read("a", 1).unwrap(), Some(vec![0u8; 8]));
            txn.commit().unwrap();
        }
        inst.resolve_in_doubt(&in_doubt[0], true).unwrap();
        let mut txn = inst.begin();
        assert_eq!(txn.read("a", 1).unwrap(), Some(vec![5u8; 8]));
        txn.commit().unwrap();
    }

    #[test]
    fn replay_log_rebuilds_a_volatile_instance_from_the_wal_alone() {
        // First incarnation: volatile store, durable-ish log device we keep.
        let dev = MemLogDevice::new();
        let log_bytes;
        {
            let inst =
                StorageInstance::create(Arc::new(MemStore::new()), dev.clone(), small_opts());
            let t = inst.create_table("a", 8).unwrap();
            t.load((0..4u64).map(|k| (k, [0u8; 8]))).unwrap();
            inst.checkpoint().unwrap();
            let mut txn = inst.begin();
            txn.update("a", 1, &[1u8; 8]).unwrap();
            txn.commit().unwrap();
            // Loser mid-flight at the crash.
            let mut txn = inst.begin();
            txn.update("a", 2, &[9u8; 8]).unwrap();
            std::mem::forget(txn);
            // Prepared 2PC branch, undecided at the crash.
            let mut txn = inst.begin();
            txn.update("a", 3, &[3u8; 8]).unwrap();
            assert_eq!(txn.prepare(777).unwrap(), PrepareVote::Yes);
            std::mem::forget(txn);
            log_bytes = dev.read_all().unwrap();
        }
        // Second incarnation: the store is gone; rebuild exactly as at first
        // boot (same table order, same unlogged load), then replay the log.
        let inst =
            StorageInstance::create(Arc::new(MemStore::new()), MemLogDevice::new(), small_opts());
        let t = inst.create_table("a", 8).unwrap();
        t.load((0..4u64).map(|k| (k, [0u8; 8]))).unwrap();
        let in_doubt = inst.replay_log(&log_bytes).unwrap();
        assert_eq!(in_doubt.len(), 1);
        assert_eq!(in_doubt[0].gtid, 777);
        assert_eq!(in_doubt[0].keys(), vec![(t.id, 3)]);
        {
            let mut txn = inst.begin();
            assert_eq!(txn.read("a", 1).unwrap(), Some(vec![1u8; 8]), "redone");
            assert_eq!(
                txn.read("a", 2).unwrap(),
                Some(vec![0u8; 8]),
                "loser undone"
            );
            assert_eq!(txn.read("a", 3).unwrap(), Some(vec![0u8; 8]), "withheld");
            txn.commit().unwrap();
        }
        inst.resolve_in_doubt(&in_doubt[0], true).unwrap();
        let mut txn = inst.begin();
        assert_eq!(txn.read("a", 3).unwrap(), Some(vec![3u8; 8]));
        txn.commit().unwrap();
    }

    /// `upd k by T1, Abort T1, upd k by T2, Commit T2` through a real
    /// instance: the restart must keep T2's image.
    #[test]
    fn replay_keeps_a_commit_that_follows_an_abort_on_the_same_row() {
        let dev = MemLogDevice::new();
        let build = |dev: Arc<MemLogDevice>| {
            let inst = StorageInstance::create(Arc::new(MemStore::new()), dev, small_opts());
            let t = inst.create_table("a", 8).unwrap();
            t.load([(1, [0u8; 8])]).unwrap();
            inst
        };
        {
            let inst = build(dev.clone());
            let mut txn = inst.begin();
            txn.update("a", 1, &[1u8; 8]).unwrap();
            txn.prepare(5).unwrap();
            txn.decide(false).unwrap();
            let mut txn = inst.begin();
            txn.update("a", 1, &[2u8; 8]).unwrap();
            txn.commit().unwrap();
        }
        let inst = build(MemLogDevice::new());
        assert!(inst
            .replay_log(&dev.read_all().unwrap())
            .unwrap()
            .is_empty());
        let mut txn = inst.begin();
        assert_eq!(txn.read("a", 1).unwrap(), Some(vec![2u8; 8]));
        txn.commit().unwrap();
    }

    #[test]
    fn failed_log_force_is_an_error_not_a_commit() {
        let dev = Arc::new(TestDevice {
            fail_from_sync: Some(2),
            ..Default::default()
        });
        let inst = StorageInstance::create(Arc::new(MemStore::new()), dev, small_opts());
        let t = inst.create_table("a", 8).unwrap();
        t.load([(1, [0u8; 8]), (2, [0u8; 8])]).unwrap();
        let mut txn = inst.begin();
        txn.update("a", 1, &[1u8; 8]).unwrap();
        txn.commit().unwrap();
        let acknowledged = inst.wal().durable_lsn();
        // The device dies under the second commit.
        let mut txn = inst.begin();
        txn.update("a", 2, &[2u8; 8]).unwrap();
        assert!(matches!(txn.commit(), Err(StorageError::LogPoisoned(_))));
        assert_eq!(inst.active_txns(), 0, "the failed commit rolled back");
        // From here on no write is acknowledged, as a commit or as a vote.
        let mut txn = inst.begin();
        assert_eq!(txn.read("a", 1).unwrap(), Some(vec![1u8; 8]));
        assert_eq!(txn.read("a", 2).unwrap(), Some(vec![0u8; 8]));
        txn.update("a", 1, &[3u8; 8]).unwrap();
        assert!(matches!(txn.prepare(9), Err(StorageError::LogPoisoned(_))));
        txn.abort().unwrap();
        assert!(matches!(
            inst.checkpoint(),
            Err(StorageError::LogPoisoned(_))
        ));
        assert_eq!(inst.wal().durable_lsn(), acknowledged);
    }

    /// A table several times the pool, written by one uncommitted
    /// transaction: frames can only be had by stealing dirty pages.
    fn steal_heavy(dev: Arc<dyn LogDevice>) -> (Arc<StorageInstance>, Result<()>) {
        let inst = StorageInstance::create(
            Arc::new(MemStore::new()),
            dev,
            InstanceOptions {
                buffer_frames: 8,
                // Out of reach, so only a steal's barrier can force the log.
                flush_threshold: 4 << 20,
                ..Default::default()
            },
        );
        let t = inst.create_table("a", 64).unwrap();
        t.load((0..2000u64).map(|k| (k, [0u8; 64]))).unwrap();
        let mut txn = inst.begin();
        let wrote = (0..2000u64).try_for_each(|k| txn.update("a", k, &[7u8; 64]));
        std::mem::forget(txn);
        (inst, wrote)
    }

    #[test]
    fn dirty_page_steal_forces_the_log_first() {
        let (inst, wrote) = steal_heavy(MemLogDevice::new());
        wrote.unwrap();
        assert!(inst.pool().stats.writebacks.load(Ordering::Relaxed) > 0);
        assert!(
            inst.wal().durable_lsn() > 0,
            "stolen pages went out with no log forced ahead of them"
        );
    }

    #[test]
    fn steal_fails_rather_than_outrun_a_dead_log() {
        let (inst, wrote) = steal_heavy(Arc::new(TestDevice {
            fail_from_sync: Some(1),
            ..Default::default()
        }));
        assert!(matches!(wrote, Err(StorageError::LogPoisoned(_))));
        assert_eq!(inst.wal().durable_lsn(), 0);
    }

    #[test]
    fn read_only_prepare_votes_read_only() {
        let inst = fresh(small_opts());
        let t = inst.create_table("a", 8).unwrap();
        t.load([(1, [0u8; 8])]).unwrap();
        let mut txn = inst.begin();
        assert_eq!(txn.read("a", 1).unwrap(), Some(vec![0u8; 8]));
        assert_eq!(txn.prepare(1).unwrap(), PrepareVote::ReadOnly);
        // Handle is finished; commit would be an error, drop is clean.
        drop(txn);
        assert_eq!(inst.active_txns(), 0);
    }

    #[test]
    fn prepared_participant_decides_commit_and_abort() {
        let inst = fresh(small_opts());
        let t = inst.create_table("a", 8).unwrap();
        t.load([(1, [0u8; 8]), (2, [0u8; 8])]).unwrap();
        // Commit path.
        let mut txn = inst.begin();
        txn.update("a", 1, &[1u8; 8]).unwrap();
        txn.prepare(11).unwrap();
        txn.decide(true).unwrap();
        // Abort path.
        let mut txn = inst.begin();
        txn.update("a", 2, &[2u8; 8]).unwrap();
        txn.prepare(12).unwrap();
        txn.decide(false).unwrap();
        let mut txn = inst.begin();
        assert_eq!(txn.read("a", 1).unwrap(), Some(vec![1u8; 8]));
        assert_eq!(txn.read("a", 2).unwrap(), Some(vec![0u8; 8]));
        txn.commit().unwrap();
    }

    #[test]
    fn concurrent_transfers_conserve_total() {
        let inst = fresh(InstanceOptions {
            buffer_frames: 512,
            ..small_opts()
        });
        let t = inst.create_table("acct", 8).unwrap();
        let n_accounts = 16u64;
        t.load((0..n_accounts).map(|k| (k, 100u64.to_le_bytes())))
            .unwrap();
        let mut handles = Vec::new();
        for w in 0..4 {
            let inst = Arc::clone(&inst);
            handles.push(std::thread::spawn(move || {
                let mut done = 0;
                let mut i = 0u64;
                while done < 100 {
                    i += 1;
                    let from = (w * 31 + i * 7) % n_accounts;
                    let to = (w * 17 + i * 13) % n_accounts;
                    if from == to {
                        continue;
                    }
                    let mut txn = inst.begin();
                    let r = (|| -> Result<()> {
                        let a = txn.read("acct", from)?.unwrap();
                        let b = txn.read("acct", to)?.unwrap();
                        let av = u64::from_le_bytes(a.try_into().unwrap());
                        let bv = u64::from_le_bytes(b.try_into().unwrap());
                        if av == 0 {
                            return Ok(());
                        }
                        txn.update("acct", from, &(av - 1).to_le_bytes())?;
                        txn.update("acct", to, &(bv + 1).to_le_bytes())?;
                        Ok(())
                    })();
                    match r {
                        Ok(()) => {
                            if txn.commit().is_ok() {
                                done += 1;
                            }
                        }
                        Err(StorageError::Deadlock(_)) | Err(StorageError::LockTimeout(_)) => {
                            let _ = txn.abort();
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut txn = inst.begin();
        let total: u64 = (0..n_accounts)
            .map(|k| {
                let v = txn.read("acct", k).unwrap().unwrap();
                u64::from_le_bytes(v.try_into().unwrap())
            })
            .sum();
        txn.commit().unwrap();
        assert_eq!(total, 100 * n_accounts, "money conserved");
    }
}
