//! Disk cost model for the discrete-event simulator.
//!
//! The paper's evaluation contrasts asynchronous writes (Fig. 4/5) with
//! synchronous `fsync` writes (Fig. 6): *"in order to achieve crash
//! tolerance, the server application has to write the state
//! synchronously to disk (fsync), this clearly decreases the
//! performance"*. [`DiskModel`] converts a write size and sync flag into
//! a simulated latency charged by the engine.

use std::time::Duration;

/// Latency/throughput model of the server's SSD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Fixed cost of an fsync barrier (SATA SSD class: ~1–5 ms; the
    /// shapes in Fig. 6 imply a few ms on the paper's machine).
    pub fsync_latency: Duration,
    /// Per-byte streaming write cost (1 / bandwidth).
    pub ns_per_byte: f64,
    /// Fixed submission overhead of any write syscall.
    pub submit_overhead: Duration,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel {
            fsync_latency: Duration::from_micros(2_500),
            // ~500 MB/s SATA SSD ⇒ 2 ns/byte.
            ns_per_byte: 2.0,
            submit_overhead: Duration::from_micros(5),
        }
    }
}

impl DiskModel {
    /// Cost of writing `bytes` without a sync barrier (page-cache write).
    pub fn async_write_cost(&self, bytes: usize) -> Duration {
        self.submit_overhead + Duration::from_nanos((bytes as f64 * self.ns_per_byte) as u64)
    }

    /// Cost of writing `bytes` followed by `fsync`.
    pub fn sync_write_cost(&self, bytes: usize) -> Duration {
        self.async_write_cost(bytes) + self.fsync_latency
    }

    /// Cost of a write under the given durability flag.
    pub fn write_cost(&self, bytes: usize, fsync: bool) -> Duration {
        if fsync {
            self.sync_write_cost(bytes)
        } else {
            self.async_write_cost(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_costs_more_than_async() {
        let disk = DiskModel::default();
        assert!(disk.sync_write_cost(1024) > disk.async_write_cost(1024));
        assert_eq!(
            disk.sync_write_cost(1024) - disk.async_write_cost(1024),
            disk.fsync_latency
        );
    }

    #[test]
    fn cost_scales_with_size() {
        let disk = DiskModel::default();
        assert!(disk.async_write_cost(1 << 20) > disk.async_write_cost(1 << 10));
    }

    #[test]
    fn write_cost_dispatches_on_flag() {
        let disk = DiskModel::default();
        assert_eq!(disk.write_cost(100, true), disk.sync_write_cost(100));
        assert_eq!(disk.write_cost(100, false), disk.async_write_cost(100));
    }

    #[test]
    fn zero_byte_write_still_costs_overhead() {
        let disk = DiskModel::default();
        assert_eq!(disk.async_write_cost(0), disk.submit_overhead);
    }
}
