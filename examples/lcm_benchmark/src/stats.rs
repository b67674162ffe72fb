//! Small numeric helpers: medians, percentiles, the machine-speed
//! kernel, and process CPU time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of `samples`, which it reorders.
pub fn percentile_u32(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len()) - 1;
    let (_, v, _) = samples.select_nth_unstable(rank);
    f64::from(*v)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method) — the driver's spread is `(q3 - q1) / median`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

/// A fixed integer kernel (xorshift-multiply chain, no memory traffic)
/// run for `dur`: millions of rounds per second. One dependent chain in
/// registers, so it reads the clock rate and little else; the timings
/// are scaled by [`SpeedKernel`] instead.
pub fn calib_mops(dur: Duration) -> f64 {
    const CHUNK: u64 = 1 << 16;
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut rounds = 0u64;
    while start.elapsed() < dur {
        for _ in 0..CHUNK {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        rounds += CHUNK;
    }
    std::hint::black_box(x);
    rounds as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Items between two looks at the clock while sampling the speed.
const ITEMS_PER_LOOK: u32 = 200;
/// Records the speed kernel's own store holds.
const KERNEL_RECORDS: u64 = 4096;
/// Items per second the speed kernel reaches on this sandbox when the
/// host is quiet: the machine speed every scaled timing is stated at.
pub const REFERENCE_ITEMS_PER_S: f64 = 1.5e6;

/// The machine-speed kernel: a fixed piece of work that belongs to the
/// harness, timed right before and after what is being measured (when
/// nothing of the program runs), so that a timing can be stated at one
/// machine speed ([`REFERENCE_ITEMS_PER_S`]) whatever the shared host
/// was doing.
///
/// An item is what a key-value operation is made of, with none of the
/// library's code: format a key, allocate a value of varying length,
/// fill and hash it, replace the record in an ordered map (which frees
/// the old value). It was chosen by measurement. On this host the
/// identical binary runs 25-45 % slower for seconds to minutes at a
/// time, its CPU time per operation rising alike and `calib_mops` (one
/// chain in registers) within 5 %; rounds of a block cipher in
/// registers follow the workloads' throughput with a slope of 2, an
/// allocating, pointer-following kernel like this one with a slope of
/// 1.0-1.1 (over one-second stretches of `kv-put-n16` and
/// `kv-put-n512`), so dividing by it is the right scale.
pub struct SpeedKernel {
    store: BTreeMap<Vec<u8>, Vec<u8>>,
    lcg: u64,
}

impl SpeedKernel {
    pub fn new() -> Self {
        let mut kernel = SpeedKernel {
            store: BTreeMap::new(),
            lcg: 0x9e37_79b9_7f4a_7c15,
        };
        for rank in 0..KERNEL_RECORDS {
            kernel.put(rank, 100);
        }
        kernel
    }

    fn put(&mut self, rank: u64, len: usize) {
        let key = format!("{rank:016x}").into_bytes();
        let mut value = Vec::with_capacity(len);
        value.extend_from_slice(&rank.to_be_bytes());
        value.resize(len, b'v');
        let hash = value.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        value[8..16].copy_from_slice(&hash.to_be_bytes());
        self.store.insert(key, value);
    }

    /// Works for `dur` on the calling thread: the machine's speed
    /// relative to the reference.
    pub fn sample(&mut self, dur: Duration) -> f64 {
        let start = Instant::now();
        let mut items = 0u64;
        while start.elapsed() < dur {
            for _ in 0..ITEMS_PER_LOOK {
                self.lcg = self
                    .lcg
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let rank = (self.lcg >> 33) % KERNEL_RECORDS;
                let len = 64 + (self.lcg >> 20) as usize % 400;
                self.put(rank, len);
            }
            items += u64::from(ITEMS_PER_LOOK);
        }
        items as f64 / start.elapsed().as_secs_f64() / REFERENCE_ITEMS_PER_S
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timespec` where `time_t` and `long` are both 64 bits.
    #[repr(C)]
    pub struct Timespec {
        pub sec: std::ffi::c_long,
        pub nsec: std::ffi::c_long,
    }
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// CPU time of this process in microseconds, all threads (clients and
/// server). std has no such clock; libc, which std links anyway, does.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_us() -> f64 {
    let mut ts = sys::Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` the call fills.
    if unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 * 1e6 + ts.nsec as f64 / 1e3
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_us() -> f64 {
    0.0
}

/// Deterministic 64-bit mixer for seeding (`splitmix64`).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), (3.5, 13.5, 31.0));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile_u32(&mut v, 0.50), 50.0);
        assert_eq!(percentile_u32(&mut v, 0.99), 99.0);
        assert_eq!(percentile_u32(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median_f64(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_f64(&mut []), 0.0);
    }
}
