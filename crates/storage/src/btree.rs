//! Page-based B+tree (u64 keys → u64 values) with latch-coupled traversal.
//!
//! * Lookups/scans read-latch-couple down the tree (hold parent, latch
//!   child, release parent).
//! * Inserts first try an optimistic descent (read latches down to the
//!   leaf's parent, write latch only on the leaf); if the leaf is full they
//!   restart pessimistically, write-latching from the root and
//!   **preemptively splitting** every full node on the way down, so at most
//!   two write latches are held at a time.
//! * Deletes are lazy: the key is removed from its leaf, but nodes are never
//!   merged (a common production simplification; space is reclaimed only by
//!   rebuilds).
//! * A bulk [`load`](BTree::load) of ascending entries into an empty tree
//!   builds it bottom-up: full leaves chained left to right (the empty root
//!   leaf becomes the first), then each internal level over the one below.
//!   Nodes are filled completely: a loaded table takes updates, not
//!   inserts, so there is no room to leave; a later insert into a full
//!   node splits it as any insert does.
//!
//! Node layout over a [`Page`] (common 16-byte header first):
//!
//! ```text
//! leaf:     nkeys u16 @16 | next_leaf u64 @18 | (key u64, val u64)* @26
//! internal: nkeys u16 @16 | child0   u64 @18 | (key u64, child u64)* @26
//! ```
//!
//! Separator convention: `key[i]` is the smallest key reachable through
//! `child[i+1]`, so child index for a lookup is the number of keys `<= key`.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::buffer::{BufferPool, PageRead, PageWrite, PinnedPage};
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PAGE_SIZE, PAGE_TYPE_BTREE_INTERNAL, PAGE_TYPE_BTREE_LEAF};

const NKEYS_OFF: usize = 16;
const NEXT_OFF: usize = 18; // leaf: next-leaf pid; internal: child0
const ENTRIES_OFF: usize = 26;
const ENTRY: usize = 16;

/// Maximum entries that physically fit in a node.
pub const MAX_FANOUT: usize = (PAGE_SIZE - ENTRIES_OFF) / ENTRY; // 510

// ---------------------------------------------------------------------------
// Node accessors (free functions over Page)
// ---------------------------------------------------------------------------

fn nkeys(p: &Page) -> usize {
    p.read_u16(NKEYS_OFF) as usize
}

fn set_nkeys(p: &mut Page, n: usize) {
    p.write_u16(NKEYS_OFF, n as u16);
}

fn entry_key(p: &Page, i: usize) -> u64 {
    p.read_u64(ENTRIES_OFF + ENTRY * i)
}

fn entry_val(p: &Page, i: usize) -> u64 {
    p.read_u64(ENTRIES_OFF + ENTRY * i + 8)
}

fn set_entry(p: &mut Page, i: usize, k: u64, v: u64) {
    p.write_u64(ENTRIES_OFF + ENTRY * i, k);
    p.write_u64(ENTRIES_OFF + ENTRY * i + 8, v);
}

/// Shift entries `[i..n)` right by one (making room at `i`).
fn shift_right(p: &mut Page, i: usize, n: usize) {
    let src = ENTRIES_OFF + ENTRY * i;
    let end = ENTRIES_OFF + ENTRY * n;
    p.data.copy_within(src..end, src + ENTRY);
}

/// Shift entries `[i+1..n)` left by one (removing entry `i`).
fn shift_left(p: &mut Page, i: usize, n: usize) {
    let src = ENTRIES_OFF + ENTRY * (i + 1);
    let end = ENTRIES_OFF + ENTRY * n;
    p.data.copy_within(src..end, src - ENTRY);
}

fn init_leaf(p: &mut Page) {
    p.data.fill(0);
    p.set_page_type(PAGE_TYPE_BTREE_LEAF);
    set_nkeys(p, 0);
    p.write_u64(NEXT_OFF, 0);
}

fn init_internal(p: &mut Page, child0: PageId) {
    p.data.fill(0);
    p.set_page_type(PAGE_TYPE_BTREE_INTERNAL);
    set_nkeys(p, 0);
    p.write_u64(NEXT_OFF, child0.0);
}

fn leaf_next(p: &Page) -> PageId {
    PageId(p.read_u64(NEXT_OFF))
}

fn leaf_set_next(p: &mut Page, pid: PageId) {
    p.write_u64(NEXT_OFF, pid.0);
}

fn int_child(p: &Page, i: usize) -> PageId {
    if i == 0 {
        PageId(p.read_u64(NEXT_OFF))
    } else {
        PageId(entry_val(p, i - 1))
    }
}

/// Binary search in a leaf: `Ok(i)` if `key` is at entry `i`, `Err(i)` with
/// the insertion position otherwise.
fn leaf_search(p: &Page, key: u64) -> std::result::Result<usize, usize> {
    let n = nkeys(p);
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match entry_key(p, mid).cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Child index to follow for `key`: number of separators `<= key`.
fn int_search(p: &Page, key: u64) -> usize {
    let n = nkeys(p);
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if entry_key(p, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Insert `(sep, right)` into internal node after child `left_idx`.
fn int_insert_after(p: &mut Page, left_idx: usize, sep: u64, right: PageId) {
    let n = nkeys(p);
    debug_assert!(n < MAX_FANOUT);
    shift_right(p, left_idx, n);
    set_entry(p, left_idx, sep, right.0);
    set_nkeys(p, n + 1);
}

/// Write `entries` into an empty node, in order.
fn fill(p: &mut Page, entries: impl Iterator<Item = (u64, u64)>) {
    let mut n = 0;
    for (i, (k, v)) in entries.enumerate() {
        set_entry(p, i, k, v);
        n = i + 1;
    }
    set_nkeys(p, n);
}

/// A bulk load's next key must be above the one before it.
pub(crate) fn check_ascending(prev: u64, key: u64) -> Result<()> {
    match key.cmp(&prev) {
        std::cmp::Ordering::Greater => Ok(()),
        std::cmp::Ordering::Equal => Err(StorageError::DuplicateKey(key)),
        std::cmp::Ordering::Less => Err(StorageError::UnsortedLoad { prev, key }),
    }
}

// ---------------------------------------------------------------------------
// Latched node wrappers
// ---------------------------------------------------------------------------

// Latch before pin in both: fields drop in order, and a frame must stay
// pinned for as long as it is latched.
struct RNode<'a> {
    g: PageRead<'a>,
    /// Keeps the frame pinned while the latch is held.
    _pin: PinnedPage<'a>,
}

struct WNode<'a> {
    g: PageWrite<'a>,
    pin: PinnedPage<'a>,
}

impl RNode<'_> {
    fn page(&self) -> &Page {
        &self.g
    }
}

impl WNode<'_> {
    fn page(&self) -> &Page {
        &self.g
    }
    fn page_mut(&mut self) -> &mut Page {
        self.pin.mark_dirty();
        &mut self.g
    }
    fn pid(&self) -> PageId {
        self.pin.pid
    }
}

// ---------------------------------------------------------------------------
// BTree
// ---------------------------------------------------------------------------

/// Concurrency-safe unique B+tree index.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: RwLock<PageId>,
    height: AtomicU32,
    len: AtomicU64,
    /// Runtime fanout cap (≤ [`MAX_FANOUT`]); small values force deep trees
    /// in tests.
    max_keys: usize,
}

impl BTree {
    /// Create a fresh tree with default (maximum) fanout.
    pub fn create(pool: Arc<BufferPool>) -> Result<BTree> {
        Self::create_with_fanout(pool, MAX_FANOUT)
    }

    /// Create a tree whose nodes hold at most `max_keys` entries.
    pub fn create_with_fanout(pool: Arc<BufferPool>, max_keys: usize) -> Result<BTree> {
        assert!((4..=MAX_FANOUT).contains(&max_keys), "fanout out of range");
        let pid = {
            let root = pool.new_page()?;
            init_leaf(&mut root.write());
            root.pid
        };
        Ok(BTree {
            pool,
            root: RwLock::new(pid),
            height: AtomicU32::new(1),
            len: AtomicU64::new(0),
            max_keys,
        })
    }

    /// Re-attach to an existing tree rooted at `root` (recovery path).
    pub fn open(pool: Arc<BufferPool>, root: PageId, height: u32, len: u64) -> BTree {
        BTree {
            pool,
            root: RwLock::new(root),
            height: AtomicU32::new(height),
            len: AtomicU64::new(len),
            max_keys: MAX_FANOUT,
        }
    }

    pub fn root_pid(&self) -> PageId {
        *self.root.read()
    }

    /// Tree height in nodes (1 = a single leaf). A point lookup touches
    /// exactly `height()` nodes — the simulator charges index probes with
    /// this.
    pub fn height(&self) -> u32 {
        self.height.load(Ordering::Acquire)
    }

    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn rlatch(&self, pid: PageId) -> Result<RNode<'_>> {
        let pin = self.pool.fetch(pid)?;
        let g = pin.read();
        Ok(RNode { _pin: pin, g })
    }

    fn wlatch(&self, pid: PageId) -> Result<WNode<'_>> {
        let pin = self.pool.fetch(pid)?;
        let g = pin.write();
        Ok(WNode { pin, g })
    }

    /// Latch the root for reading, immune to concurrent root replacement.
    fn rlatch_root(&self) -> Result<RNode<'_>> {
        let rg = self.root.read();
        self.rlatch(*rg)
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Result<Option<u64>> {
        let mut cur = self.rlatch_root()?;
        loop {
            if cur.page().page_type() == PAGE_TYPE_BTREE_LEAF {
                return Ok(match leaf_search(cur.page(), key) {
                    Ok(i) => Some(entry_val(cur.page(), i)),
                    Err(_) => None,
                });
            }
            let child = int_child(cur.page(), int_search(cur.page(), key));
            let next = self.rlatch(child)?;
            cur = next;
        }
    }

    /// Insert a new key. Fails with [`StorageError::DuplicateKey`] if present.
    pub fn insert(&self, key: u64, val: u64) -> Result<()> {
        // Optimistic attempt, then pessimistic with preemptive splits.
        match self.insert_optimistic(key, val)? {
            true => Ok(()),
            false => self.insert_pessimistic(key, val),
        }
    }

    /// Returns Ok(true) on success, Ok(false) if a split is needed.
    fn insert_optimistic(&self, key: u64, val: u64) -> Result<bool> {
        let rg = self.root.read();
        let root_pid = *rg;
        // Single-node tree: write-latch the root leaf directly.
        let first = self.pool.fetch(root_pid)?;
        let fg = first.read();
        if fg.page_type() == PAGE_TYPE_BTREE_LEAF {
            drop(fg);
            let mut w = WNode {
                g: first.write(),
                pin: first,
            };
            drop(rg);
            return self.leaf_try_insert(&mut w, key, val);
        }
        drop(rg);
        let mut cur = RNode { g: fg, _pin: first };
        loop {
            let idx = int_search(cur.page(), key);
            let child_pid = int_child(cur.page(), idx);
            // Peek at the child: leaf gets a write latch, internal a read.
            let pin = self.pool.fetch(child_pid)?;
            let peek = pin.read();
            if peek.page_type() == PAGE_TYPE_BTREE_LEAF {
                drop(peek);
                let mut w = WNode {
                    g: pin.write(),
                    pin,
                };
                drop(cur);
                return self.leaf_try_insert(&mut w, key, val);
            }
            cur = RNode { g: peek, _pin: pin };
        }
    }

    fn leaf_try_insert(&self, leaf: &mut WNode<'_>, key: u64, val: u64) -> Result<bool> {
        match leaf_search(leaf.page(), key) {
            Ok(_) => Err(StorageError::DuplicateKey(key)),
            Err(pos) => {
                let n = nkeys(leaf.page());
                if n >= self.max_keys {
                    return Ok(false); // needs split; caller restarts
                }
                let p = leaf.page_mut();
                shift_right(p, pos, n);
                set_entry(p, pos, key, val);
                set_nkeys(p, n + 1);
                self.len.fetch_add(1, Ordering::AcqRel);
                Ok(true)
            }
        }
    }

    fn insert_pessimistic(&self, key: u64, val: u64) -> Result<()> {
        // Exclusive access to the root pointer for possible root split.
        let mut rg = self.root.write();
        let mut cur = self.wlatch(*rg)?;
        if nkeys(cur.page()) >= self.max_keys {
            // Split the root: new internal root above it.
            let new_root_pin = self.pool.new_page()?;
            {
                let mut w = new_root_pin.write();
                init_internal(&mut w, cur.pid());
            }
            new_root_pin.mark_dirty();
            let mut new_root = WNode {
                g: new_root_pin.write(),
                pin: new_root_pin,
            };
            self.split_child(&mut new_root, 0, &mut cur)?;
            *rg = new_root.pid();
            self.height.fetch_add(1, Ordering::AcqRel);
            // Descend from the new root.
            let idx = int_search(new_root.page(), key);
            let child = int_child(new_root.page(), idx);
            drop(cur);
            cur = if child == new_root.pid() {
                unreachable!("root cannot be its own child")
            } else {
                let next = self.wlatch(child)?;
                drop(new_root);
                next
            };
        }
        drop(rg);

        loop {
            if cur.page().page_type() == PAGE_TYPE_BTREE_LEAF {
                return match self.leaf_try_insert(&mut cur, key, val)? {
                    true => Ok(()),
                    false => unreachable!("leaf split preemptively"),
                };
            }
            let idx = int_search(cur.page(), key);
            let child_pid = int_child(cur.page(), idx);
            let mut child = self.wlatch(child_pid)?;
            if nkeys(child.page()) >= self.max_keys {
                self.split_child(&mut cur, idx, &mut child)?;
                // Re-decide: the key may belong in the new right sibling.
                let idx2 = int_search(cur.page(), key);
                let target = int_child(cur.page(), idx2);
                if target != child.pid() {
                    let next = self.wlatch(target)?;
                    drop(child);
                    child = next;
                }
            }
            drop(std::mem::replace(&mut cur, child));
        }
    }

    /// Split full node `child` (the `child_idx`-th child of `parent`),
    /// inserting the separator into `parent`. Both stay write-latched.
    fn split_child(
        &self,
        parent: &mut WNode<'_>,
        child_idx: usize,
        child: &mut WNode<'_>,
    ) -> Result<()> {
        let right_pin = self.pool.new_page()?;
        let right_pid = right_pin.pid;
        let mut right_g = right_pin.write();
        let n = nkeys(child.page());
        debug_assert!(n >= 2);
        let sep;
        if child.page().page_type() == PAGE_TYPE_BTREE_LEAF {
            let mid = n / 2;
            init_leaf(&mut right_g);
            for (j, i) in (mid..n).enumerate() {
                set_entry(
                    &mut right_g,
                    j,
                    entry_key(child.page(), i),
                    entry_val(child.page(), i),
                );
            }
            set_nkeys(&mut right_g, n - mid);
            leaf_set_next(&mut right_g, leaf_next(child.page()));
            sep = entry_key(child.page(), mid);
            let cp = child.page_mut();
            set_nkeys(cp, mid);
            leaf_set_next(cp, right_pid);
        } else {
            let mid = n / 2;
            sep = entry_key(child.page(), mid);
            init_internal(&mut right_g, PageId(entry_val(child.page(), mid)));
            for (j, i) in (mid + 1..n).enumerate() {
                set_entry(
                    &mut right_g,
                    j,
                    entry_key(child.page(), i),
                    entry_val(child.page(), i),
                );
            }
            set_nkeys(&mut right_g, n - mid - 1);
            set_nkeys(child.page_mut(), mid);
        }
        drop(right_g);
        right_pin.mark_dirty();
        int_insert_after(parent.page_mut(), child_idx, sep, right_pid);
        Ok(())
    }

    /// Fill this empty tree from `entries`, keys strictly ascending, bottom
    /// up (see the module docs). Root, height and length are published once,
    /// under the root write lock, which is held throughout; a rejected or
    /// failed load leaves the tree empty.
    pub fn load(&self, entries: &[(u64, u64)]) -> Result<()> {
        entries
            .windows(2)
            .try_for_each(|w| check_ascending(w[0].0, w[1].0))?;
        let mut rg = self.root.write();
        let mut first = self.wlatch(*rg)?;
        if !self.is_empty() || first.page().page_type() != PAGE_TYPE_BTREE_LEAF {
            return Err(StorageError::NotEmpty("index".into()));
        }
        if entries.is_empty() {
            return Ok(());
        }
        // Leaves after the first, each written whole and chained to the
        // next. The first (the root leaf, latched) is written last, so
        // nothing is visible before the load has succeeded.
        let mut chunks = entries.chunks(self.max_keys);
        let head = chunks.next().expect("entries is not empty");
        let mut level = vec![(head[0].0, first.pid())];
        let mut prev: Option<WNode<'_>> = None;
        let mut second = PageId::INVALID;
        for chunk in chunks {
            let mut leaf = self.new_node(init_leaf)?;
            fill(leaf.page_mut(), chunk.iter().copied());
            match prev.as_mut() {
                Some(p) => leaf_set_next(p.page_mut(), leaf.pid()),
                None => second = leaf.pid(),
            }
            level.push((chunk[0].0, leaf.pid()));
            prev = Some(leaf);
        }
        drop(prev);
        // Internal levels: a node over up to `max_keys + 1` children, the
        // smallest key under each child but the first as its separator. A
        // lone child at a level's end gets a node with no separator, which
        // every descent reads as "child 0".
        let mut height = 1;
        while level.len() > 1 {
            let mut upper = Vec::with_capacity(level.len() / self.max_keys + 1);
            for group in level.chunks(self.max_keys + 1) {
                let mut node = self.new_node(|p| init_internal(p, group[0].1))?;
                fill(node.page_mut(), group[1..].iter().map(|&(k, c)| (k, c.0)));
                upper.push((group[0].0, node.pid()));
            }
            level = upper;
            height += 1;
        }
        let p = first.page_mut();
        fill(p, head.iter().copied());
        leaf_set_next(p, second);
        *rg = level[0].1;
        self.height.store(height, Ordering::Release);
        self.len.store(entries.len() as u64, Ordering::Release);
        Ok(())
    }

    /// A fresh page formatted by `init`, write-latched and dirty.
    fn new_node(&self, init: impl FnOnce(&mut Page)) -> Result<WNode<'_>> {
        let pin = self.pool.new_page()?;
        let mut g = pin.write();
        init(&mut g);
        Ok(WNode { g, pin })
    }

    /// Remove `key`; returns whether it was present. No rebalancing.
    pub fn delete(&self, key: u64) -> Result<bool> {
        let rg = self.root.read();
        let root_pid = *rg;
        let pin = self.pool.fetch(root_pid)?;
        let peek = pin.read();
        let mut cur = if peek.page_type() == PAGE_TYPE_BTREE_LEAF {
            drop(peek);
            let w = WNode {
                g: pin.write(),
                pin,
            };
            drop(rg);
            return Ok(self.leaf_remove(w, key));
        } else {
            let r = RNode { g: peek, _pin: pin };
            drop(rg);
            r
        };
        loop {
            let idx = int_search(cur.page(), key);
            let child_pid = int_child(cur.page(), idx);
            let pin = self.pool.fetch(child_pid)?;
            let peek = pin.read();
            if peek.page_type() == PAGE_TYPE_BTREE_LEAF {
                drop(peek);
                let w = WNode {
                    g: pin.write(),
                    pin,
                };
                drop(cur);
                return Ok(self.leaf_remove(w, key));
            }
            cur = RNode { g: peek, _pin: pin };
        }
    }

    fn leaf_remove(&self, mut leaf: WNode<'_>, key: u64) -> bool {
        match leaf_search(leaf.page(), key) {
            Ok(i) => {
                let n = nkeys(leaf.page());
                let p = leaf.page_mut();
                shift_left(p, i, n);
                set_nkeys(p, n - 1);
                self.len.fetch_sub(1, Ordering::AcqRel);
                true
            }
            Err(_) => false,
        }
    }

    /// All `(key, value)` pairs with `lo <= key <= hi`, in key order.
    pub fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        let mut cur = self.rlatch_root()?;
        // Descend to the leaf containing lo.
        loop {
            if cur.page().page_type() == PAGE_TYPE_BTREE_LEAF {
                break;
            }
            let child = int_child(cur.page(), int_search(cur.page(), lo));
            let next = self.rlatch(child)?;
            cur = next;
        }
        // Walk the leaf chain.
        loop {
            let p = cur.page();
            let n = nkeys(p);
            let start = match leaf_search(p, lo) {
                Ok(i) => i,
                Err(i) => i,
            };
            for i in start..n {
                let k = entry_key(p, i);
                if k > hi {
                    return Ok(out);
                }
                out.push((k, entry_val(p, i)));
            }
            let next_pid = leaf_next(p);
            if !next_pid.is_valid() {
                return Ok(out);
            }
            let next = self.rlatch(next_pid)?;
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn tree(fanout: usize, frames: usize) -> BTree {
        let pool = BufferPool::new(Arc::new(MemStore::new()), frames);
        // Unit tests have no WAL; a no-op barrier enables dirty-page steal.
        pool.set_wal_barrier(Arc::new(|| Ok(())));
        BTree::create_with_fanout(pool, fanout).unwrap()
    }

    #[test]
    fn insert_get_small() {
        let t = tree(64, 64);
        for k in [5u64, 1, 9, 3, 7] {
            t.insert(k, k * 10).unwrap();
        }
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(t.get(k).unwrap(), Some(k * 10));
        }
        assert_eq!(t.get(2).unwrap(), None);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn duplicate_key_rejected() {
        let t = tree(64, 64);
        t.insert(1, 1).unwrap();
        assert!(matches!(t.insert(1, 2), Err(StorageError::DuplicateKey(1))));
        assert_eq!(t.get(1).unwrap(), Some(1));
    }

    #[test]
    fn splits_build_a_deep_tree() {
        let t = tree(4, 256);
        let n = 1000u64;
        for k in 0..n {
            // Scatter inserts to hit both split paths.
            let key = (k * 7919) % 10007;
            t.insert(key, key + 1).unwrap();
        }
        assert!(t.height() >= 4, "height {} too small", t.height());
        for k in 0..n {
            let key = (k * 7919) % 10007;
            assert_eq!(t.get(key).unwrap(), Some(key + 1), "key {key}");
        }
    }

    #[test]
    fn sequential_inserts_and_full_scan() {
        let t = tree(8, 256);
        for k in 0..500u64 {
            t.insert(k, k).unwrap();
        }
        let all = t.range(0, u64::MAX).unwrap();
        assert_eq!(all.len(), 500);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
    }

    #[test]
    fn range_bounds_inclusive() {
        let t = tree(6, 128);
        for k in (0..100u64).map(|x| x * 2) {
            t.insert(k, k).unwrap();
        }
        let r = t.range(10, 20).unwrap();
        assert_eq!(
            r.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![10, 12, 14, 16, 18, 20]
        );
        assert!(t.range(21, 21).unwrap().is_empty());
        assert!(t.range(30, 10).unwrap().is_empty(), "inverted range");
    }

    #[test]
    fn delete_removes_and_reinsert_works() {
        let t = tree(5, 128);
        for k in 0..200u64 {
            t.insert(k, k).unwrap();
        }
        for k in (0..200u64).step_by(2) {
            assert!(t.delete(k).unwrap());
        }
        assert!(!t.delete(0).unwrap(), "double delete is a no-op");
        assert_eq!(t.len(), 100);
        for k in 0..200u64 {
            let expect = if k % 2 == 0 { None } else { Some(k) };
            assert_eq!(t.get(k).unwrap(), expect);
        }
        // Freed keys can be inserted again.
        t.insert(0, 42).unwrap();
        assert_eq!(t.get(0).unwrap(), Some(42));
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), 512);
        pool.set_wal_barrier(Arc::new(|| Ok(())));
        let t = Arc::new(BTree::create_with_fanout(pool, 16).unwrap());
        let mut handles = Vec::new();
        for part in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    t.insert(part * 10_000 + i, part).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 2000);
        for part in 0..4u64 {
            for i in (0..500u64).step_by(37) {
                assert_eq!(t.get(part * 10_000 + i).unwrap(), Some(part));
            }
        }
    }

    #[test]
    fn concurrent_readers_during_inserts() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), 512);
        pool.set_wal_barrier(Arc::new(|| Ok(())));
        let t = Arc::new(BTree::create_with_fanout(pool, 8).unwrap());
        for k in 0..1000u64 {
            t.insert(k * 2, k).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = (i * 31) % 2000;
                    if k.is_multiple_of(2) {
                        assert_eq!(t.get(k).unwrap(), Some(k / 2));
                    }
                    i += 1;
                }
            }));
        }
        // Writer inserts odd keys concurrently.
        for k in 0..1000u64 {
            t.insert(k * 2 + 1, k).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 2000);
    }

    #[test]
    fn height_counts_probe_depth() {
        let t = tree(4, 256);
        assert_eq!(t.height(), 1);
        for k in 0..5 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.height(), 2, "one root split");
    }
}
