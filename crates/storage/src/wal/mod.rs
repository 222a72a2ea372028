//! Write-ahead logging with group commit.
//!
//! The paper identifies logging as one of the three dominant overheads of
//! distributed update transactions (Figure 11), and its shared-everything
//! baseline relies on Shore-MT's Aether-style group commit for short
//! read-write transactions (Section 7.3, \[19\]). This module provides:
//!
//! * [`record`] — log record encoding, including the 2PC `Prepare` /
//!   `Decision` records distributed transactions force to disk.
//! * [`buffer`] — the pure group-commit buffer: appends return LSNs,
//!   batches are cut for whoever flushes, durability advances on completion.
//! * [`device`] — [`device::LogDevice`] and its memory, file and discarding
//!   implementations.
//! * [`native`] — [`native::LogManager`]: leader/follower group commit over
//!   a log device — the committer that finds no flush in flight writes the
//!   batch itself; there is no flusher thread and no timer.
//! * [`recovery`] — log analysis and logical redo, including in-doubt
//!   (prepared) transaction reporting for 2PC recovery.

pub mod buffer;
pub mod device;
pub mod native;
pub mod record;
pub mod recovery;

pub use buffer::LogBuffer;
pub use device::{DiscardLogDevice, FileLogDevice, LogDevice, MemLogDevice};
pub use native::LogManager;
pub use record::{LogPayload, LogRecord};
pub use recovery::{analyze, LogAnalysis, RedoOp};
