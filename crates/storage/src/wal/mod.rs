//! Write-ahead logging with group commit.
//!
//! The paper identifies logging as one of the three dominant overheads of
//! distributed update transactions (Figure 11), and its shared-everything
//! baseline relies on Shore-MT's Aether-style group commit for short
//! read-write transactions (Section 7.3, \[19\]). This module provides:
//!
//! * [`record`] — log record encoding, including the 2PC `Prepare` /
//!   `Decision` records distributed transactions force to disk.
//! * [`buffer`] — the pure group-commit buffer and its one policy: appends
//!   return LSNs, a committer learns whether to return, wait or lead a
//!   batch, durability advances when the batch comes back.
//! * [`device`] — [`device::LogDevice`], its memory, file and discarding
//!   implementations, and [`reopen`], the one rule for reopening a log file:
//!   whole records stay, a torn tail goes, anything else is refused.
//! * [`native`] — [`native::LogManager`]: the buffer's policy driven by OS
//!   threads over a log device — the committer that finds no flush in
//!   flight writes the batch itself; there is no flusher thread and no
//!   timer. The coordinator's decision log (`islands-dtxn`) is one too.
//! * [`recovery`] — log analysis and logical redo, including in-doubt
//!   (prepared) transaction reporting for 2PC recovery.

pub mod buffer;
pub mod device;
pub mod native;
pub mod record;
pub mod recovery;

pub use buffer::{Batch, Force, LogBuffer};
pub use device::{reopen, DiscardLogDevice, FileLogDevice, LogDevice, MemLogDevice};
pub use native::LogManager;
pub use record::{LogPayload, LogRecord};
pub use recovery::{analyze, LogAnalysis, RedoOp};
