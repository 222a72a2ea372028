//! A serial-service-queue disk model.
//!
//! Two uses in the reproduction, matching the paper's Section 5 setup:
//! a **log device** absorbing group-commit flushes, and the **data disks**
//! (two 10 kRPM SAS HDDs in RAID-0) that serve buffer-pool misses once the
//! working set outgrows memory (Section 7.4 / Figure 14).
//!
//! Requests are serviced one at a time in arrival order; a request arriving
//! while the device is busy queues behind the in-flight one. Service time is
//! `access_ps + bytes * per_byte_ps`.

use std::cell::Cell;
use std::rc::Rc;

use crate::{Sim, SimTime};

/// Disk service parameters.
#[derive(Debug, Clone, Copy)]
pub struct DiskParams {
    /// Fixed positioning/controller cost per request, picoseconds.
    pub access_ps: u64,
    /// Transfer cost per byte, picoseconds.
    pub per_byte_ps: u64,
}

impl DiskParams {
    /// A 10 kRPM SAS HDD serving random 8 KB pages: ~3 ms positioning
    /// (seek + half-rotation) and ~100 MB/s media rate.
    pub fn hdd_random() -> Self {
        DiskParams {
            access_ps: 3_000_000_000,
            per_byte_ps: 10_000,
        }
    }

    /// A memory-backed device (the paper's main experiments put data and log
    /// on memory-mapped disks). Small fixed cost for the kernel crossing.
    pub fn memory_mapped() -> Self {
        DiskParams {
            access_ps: 2_000_000, // 2 us
            per_byte_ps: 100,     // ~10 GB/s
        }
    }
}

/// One disk. Clone handles share the device queue.
#[derive(Clone)]
pub struct Disk {
    inner: Rc<DiskInner>,
}

struct DiskInner {
    sim: Sim,
    params: DiskParams,
    next_free: Cell<u64>,
    requests: Cell<u64>,
    busy_ps: Cell<u64>,
}

impl Disk {
    pub fn new(sim: &Sim, params: DiskParams) -> Self {
        Disk {
            inner: Rc::new(DiskInner {
                sim: sim.clone(),
                params,
                next_free: Cell::new(0),
                requests: Cell::new(0),
                busy_ps: Cell::new(0),
            }),
        }
    }

    /// Perform an I/O of `bytes`; resolves when the transfer completes.
    pub async fn access(&self, bytes: u64) {
        let d = &self.inner;
        let now = d.sim.now().as_ps();
        let start = now.max(d.next_free.get());
        let service = d.params.access_ps + bytes * d.params.per_byte_ps;
        let done = start + service;
        d.next_free.set(done);
        d.requests.set(d.requests.get() + 1);
        d.busy_ps.set(d.busy_ps.get() + service);
        d.sim.sleep_until(SimTime(done)).await;
    }

    /// `(requests served, total busy picoseconds)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.inner.requests.get(), self.inner.busy_ps.get())
    }
}

/// A RAID-0 stripe over `n` disks: requests are routed by stripe index
/// (page id), so independent pages can be serviced in parallel.
#[derive(Clone)]
pub struct Raid0 {
    disks: Vec<Disk>,
}

impl Raid0 {
    pub fn new(sim: &Sim, params: DiskParams, n: usize) -> Self {
        assert!(n >= 1);
        Raid0 {
            disks: (0..n).map(|_| Disk::new(sim, params)).collect(),
        }
    }

    pub async fn access(&self, stripe_key: u64, bytes: u64) {
        let disk = &self.disks[(stripe_key % self.disks.len() as u64) as usize];
        disk.access(bytes).await;
    }

    pub fn stats(&self) -> Vec<(u64, u64)> {
        self.disks.iter().map(|d| d.stats()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_queue_serially() {
        let sim = Sim::new();
        let disk = Disk::new(
            &sim,
            DiskParams {
                access_ps: 1_000,
                per_byte_ps: 0,
            },
        );
        let mut handles = Vec::new();
        for _ in 0..3 {
            let d = disk.clone();
            let s = sim.clone();
            handles.push(sim.spawn(async move {
                d.access(0).await;
                s.now().as_ps()
            }));
        }
        sim.run();
        let times: Vec<u64> = handles.iter().map(|h| h.try_take().unwrap()).collect();
        assert_eq!(times, vec![1_000, 2_000, 3_000]);
    }

    #[test]
    fn transfer_cost_scales_with_bytes() {
        let sim = Sim::new();
        let disk = Disk::new(
            &sim,
            DiskParams {
                access_ps: 100,
                per_byte_ps: 2,
            },
        );
        let d = disk.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            d.access(50).await;
            s.now().as_ps()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 100 + 50 * 2);
    }

    #[test]
    fn raid0_parallelizes_different_stripes() {
        let sim = Sim::new();
        let raid = Raid0::new(
            &sim,
            DiskParams {
                access_ps: 1_000,
                per_byte_ps: 0,
            },
            2,
        );
        let mut handles = Vec::new();
        for key in [0u64, 1] {
            let r = raid.clone();
            let s = sim.clone();
            handles.push(sim.spawn(async move {
                r.access(key, 0).await;
                s.now().as_ps()
            }));
        }
        sim.run();
        let times: Vec<u64> = handles.iter().map(|h| h.try_take().unwrap()).collect();
        assert_eq!(times, vec![1_000, 1_000], "different stripes overlap");
    }

    #[test]
    fn stats_accumulate() {
        let sim = Sim::new();
        let disk = Disk::new(&sim, DiskParams::memory_mapped());
        let d = disk.clone();
        sim.spawn(async move {
            d.access(10).await;
            d.access(10).await;
        });
        sim.run();
        let (n, busy) = disk.stats();
        assert_eq!(n, 2);
        assert!(busy > 0);
    }
}
