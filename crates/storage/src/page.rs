//! Pages and the slotted-page record layout.
//!
//! Every page starts with a common header:
//!
//! ```text
//! offset  size  field
//! 0       8     page LSN (recovery ordering)
//! 8       4     page type tag
//! 12      4     reserved
//! ```
//!
//! Slotted pages (heap data) extend this with a slot directory that grows
//! from the end of the page toward the record area:
//!
//! ```text
//! 16      2     slot count
//! 18      2     free-space offset (start of unused gap)
//! 20      8     next page in the heap file's chain (0 = none)
//! 28..    records, appended upward
//! ...gap...
//! end     4*n   slot directory entries (offset u16, len u16), grows downward
//! ```

use crate::error::{Result, StorageError};

/// Size of every page, matching Shore-MT's default of 8 KB.
pub const PAGE_SIZE: usize = 8192;

/// Common header size shared by all page types.
pub const PAGE_HEADER: usize = 16;

/// Page type tags.
pub const PAGE_TYPE_FREE: u32 = 0;
pub const PAGE_TYPE_SLOTTED: u32 = 1;
pub const PAGE_TYPE_BTREE_LEAF: u32 = 2;
pub const PAGE_TYPE_BTREE_INTERNAL: u32 = 3;
pub const PAGE_TYPE_CATALOG: u32 = 4;

/// Identifier of a page within a store. Page 0 is reserved for the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl PageId {
    pub const INVALID: PageId = PageId(0);

    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 != 0
    }
}

/// Record identifier: page + slot, packable into a `u64` (48-bit page ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rid {
    pub page: PageId,
    pub slot: u16,
}

impl Rid {
    pub fn pack(self) -> u64 {
        debug_assert!(self.page.0 < (1 << 48));
        (self.page.0 << 16) | self.slot as u64
    }

    pub fn unpack(v: u64) -> Rid {
        Rid {
            page: PageId(v >> 16),
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// An 8 KB page image.
pub struct Page {
    pub data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            data: Box::new(*self.data),
        }
    }
}

impl Page {
    pub fn new() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    // -- primitive field access ---------------------------------------------

    #[inline]
    pub fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.data[off..off + 2].try_into().unwrap())
    }

    #[inline]
    pub fn write_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap())
    }

    #[inline]
    pub fn write_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn read_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.data[off..off + 8].try_into().unwrap())
    }

    #[inline]
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    // -- common header -------------------------------------------------------

    #[inline]
    pub fn lsn(&self) -> u64 {
        self.read_u64(0)
    }

    #[inline]
    pub fn set_lsn(&mut self, lsn: u64) {
        self.write_u64(0, lsn);
    }

    #[inline]
    pub fn page_type(&self) -> u32 {
        self.read_u32(8)
    }

    #[inline]
    pub fn set_page_type(&mut self, t: u32) {
        self.write_u32(8, t);
    }
}

// ---------------------------------------------------------------------------
// Slotted layout
// ---------------------------------------------------------------------------

const SLOT_COUNT_OFF: usize = 16;
const FREE_OFF: usize = 18;
const NEXT_PAGE_OFF: usize = 20;
/// First byte usable for record data.
const DATA_START: usize = 28;
/// Bytes per slot directory entry.
const SLOT_ENTRY: usize = 4;
/// Marker for a deleted slot.
const DEAD: u16 = u16::MAX;

/// Largest record an empty slotted page holds (with its slot entry).
pub const MAX_RECORD: usize = PAGE_SIZE - DATA_START - SLOT_ENTRY;

/// Slotted-page operations, implemented directly on [`Page`].
impl Page {
    /// Format this page as an empty slotted page.
    pub fn init_slotted(&mut self) {
        self.data.fill(0);
        self.set_page_type(PAGE_TYPE_SLOTTED);
        self.write_u16(SLOT_COUNT_OFF, 0);
        self.write_u16(FREE_OFF, DATA_START as u16);
        self.write_u64(NEXT_PAGE_OFF, 0);
    }

    #[inline]
    pub fn slot_count(&self) -> u16 {
        self.read_u16(SLOT_COUNT_OFF)
    }

    #[inline]
    pub fn next_page(&self) -> PageId {
        PageId(self.read_u64(NEXT_PAGE_OFF))
    }

    #[inline]
    pub fn set_next_page(&mut self, p: PageId) {
        self.write_u64(NEXT_PAGE_OFF, p.0);
    }

    fn slot_dir_off(&self, slot: u16) -> usize {
        PAGE_SIZE - SLOT_ENTRY * (slot as usize + 1)
    }

    /// Contiguous free bytes between record area and slot directory.
    pub fn free_space(&self) -> usize {
        let free = self.read_u16(FREE_OFF) as usize;
        let dir_start = PAGE_SIZE - SLOT_ENTRY * self.slot_count() as usize;
        dir_start.saturating_sub(free)
    }

    /// Whether a `len`-byte record and its slot entry fit.
    pub fn has_room(&self, len: usize) -> bool {
        len <= MAX_RECORD && self.free_space() >= len + SLOT_ENTRY
    }

    /// Append a record; returns its slot number or `None` if it doesn't fit
    /// (including the new slot directory entry).
    pub fn insert_record(&mut self, rec: &[u8]) -> Option<u16> {
        let (slot, space) = self.reserve_record(rec.len())?;
        space.copy_from_slice(rec);
        Some(slot)
    }

    /// Append a `len`-byte record for the caller to write in place; `None`
    /// if it doesn't fit (including the new slot directory entry).
    pub fn reserve_record(&mut self, len: usize) -> Option<(u16, &mut [u8])> {
        if !self.has_room(len) {
            return None;
        }
        let slot = self.slot_count();
        let off = self.read_u16(FREE_OFF);
        let dir = self.slot_dir_off(slot);
        self.write_u16(dir, off);
        self.write_u16(dir + 2, len as u16);
        self.write_u16(FREE_OFF, off + len as u16);
        self.write_u16(SLOT_COUNT_OFF, slot + 1);
        let start = off as usize;
        Some((slot, &mut self.data[start..start + len]))
    }

    /// Byte range of the live record in `slot`.
    fn record_span(&self, slot: u16) -> Result<std::ops::Range<usize>> {
        if slot >= self.slot_count() {
            return Err(StorageError::NoSuchPage(slot as u64));
        }
        let dir = self.slot_dir_off(slot);
        let off = self.read_u16(dir) as usize;
        let len = self.read_u16(dir + 2);
        if len == DEAD {
            return Err(StorageError::KeyNotFound(slot as u64));
        }
        Ok(off..off + len as usize)
    }

    /// Read the record in `slot`.
    pub fn get_record(&self, slot: u16) -> Result<&[u8]> {
        Ok(&self.data[self.record_span(slot)?])
    }

    /// The record in `slot`, to rewrite in place (fixed-size rows, as in the
    /// paper's microbenchmark tables: a record never changes length).
    pub fn record_mut(&mut self, slot: u16) -> Result<&mut [u8]> {
        let span = self.record_span(slot)?;
        Ok(&mut self.data[span])
    }

    /// Overwrite the record in `slot`; the new record must have the same
    /// length.
    pub fn update_record(&mut self, slot: u16, rec: &[u8]) -> Result<()> {
        let old = self.record_mut(slot)?;
        if rec.len() != old.len() {
            return Err(StorageError::RecordTooLarge(rec.len()));
        }
        old.copy_from_slice(rec);
        Ok(())
    }

    /// Tombstone the record in `slot`. Space is not reclaimed (no compaction).
    pub fn delete_record(&mut self, slot: u16) -> Result<()> {
        if slot >= self.slot_count() {
            return Err(StorageError::NoSuchPage(slot as u64));
        }
        let dir = self.slot_dir_off(slot);
        self.write_u16(dir + 2, DEAD);
        Ok(())
    }

    /// Whether `slot` holds a live record.
    pub fn slot_live(&self, slot: u16) -> bool {
        slot < self.slot_count() && self.read_u16(self.slot_dir_off(slot) + 2) != DEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rid_pack_round_trip() {
        let r = Rid {
            page: PageId(123_456),
            slot: 789,
        };
        assert_eq!(Rid::unpack(r.pack()), r);
    }

    #[test]
    fn insert_and_get_records() {
        let mut p = Page::new();
        p.init_slotted();
        let s0 = p.insert_record(b"hello").unwrap();
        let s1 = p.insert_record(b"world!").unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(p.get_record(0).unwrap(), b"hello");
        assert_eq!(p.get_record(1).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn update_in_place_same_size() {
        let mut p = Page::new();
        p.init_slotted();
        p.insert_record(b"aaaa").unwrap();
        p.update_record(0, b"bbbb").unwrap();
        assert_eq!(p.get_record(0).unwrap(), b"bbbb");
        assert!(matches!(
            p.update_record(0, b"c"),
            Err(StorageError::RecordTooLarge(_))
        ));
    }

    #[test]
    fn delete_tombstones() {
        let mut p = Page::new();
        p.init_slotted();
        p.insert_record(b"x").unwrap();
        assert!(p.slot_live(0));
        p.delete_record(0).unwrap();
        assert!(!p.slot_live(0));
        assert!(p.get_record(0).is_err());
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        p.init_slotted();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert_record(&rec).is_some() {
            n += 1;
        }
        // 8192 - 28 header bytes, 104 bytes per record+slot.
        assert_eq!(n, (PAGE_SIZE - DATA_START) / (100 + SLOT_ENTRY));
        assert!(p.free_space() < 104);
        // Still intact after fill.
        assert_eq!(p.get_record(n as u16 - 1).unwrap(), &rec[..]);
    }

    #[test]
    fn lsn_and_type_header() {
        let mut p = Page::new();
        p.init_slotted();
        p.set_lsn(0xDEAD_BEEF);
        assert_eq!(p.lsn(), 0xDEAD_BEEF);
        assert_eq!(p.page_type(), PAGE_TYPE_SLOTTED);
    }

    #[test]
    fn next_page_chain_field() {
        let mut p = Page::new();
        p.init_slotted();
        assert!(!p.next_page().is_valid());
        p.set_next_page(PageId(42));
        assert_eq!(p.next_page(), PageId(42));
    }
}
