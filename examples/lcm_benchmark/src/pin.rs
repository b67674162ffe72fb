//! Confines the process to one CPU for the single-driver workloads.
//!
//! Those workloads run one thread at a time by construction (the
//! harness thread blocks in `step()` while a pool worker executes the
//! batch), but every hand-off wakes a thread that sleeps on the other
//! virtual CPU, which costs an inter-processor interrupt. In this VM
//! that cost flips between two regimes minutes apart — the identical
//! binary reads 21k or 37k ops/s on `kv-put-n16` — and on one CPU it
//! does not arise. std has no affinity call; libc, which std links
//! anyway, does.

#[cfg(target_os = "linux")]
mod sys {
    /// Words of a CPU mask: room for 1024 CPUs, the kernel's default.
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Restores the CPU mask it replaced when dropped.
pub struct Pinned {
    #[cfg(target_os = "linux")]
    original: [u64; sys::WORDS],
}

/// Restricts the calling thread, and every thread spawned from it
/// afterwards, to the first CPU it is allowed on. `None` (and no
/// change) where the platform or the kernel refuses.
#[cfg(target_os = "linux")]
pub fn to_one_cpu() -> Option<Pinned> {
    let mut original = [0u64; sys::WORDS];
    let bytes = std::mem::size_of_val(&original);
    // SAFETY: `original` is a live, writable buffer of exactly `bytes`
    // bytes, which is what the call fills; pid 0 names the caller.
    if unsafe { sys::sched_getaffinity(0, bytes, original.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = original.iter().enumerate().find(|(_, w)| **w != 0)?;
    let mut one = [0u64; sys::WORDS];
    one[word] = 1u64 << bits.trailing_zeros();
    // SAFETY: `one` is a live buffer of `bytes` bytes the call only reads.
    if unsafe { sys::sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return None;
    }
    Some(Pinned { original })
}

#[cfg(not(target_os = "linux"))]
pub fn to_one_cpu() -> Option<Pinned> {
    None
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        {
            let bytes = std::mem::size_of_val(&self.original);
            // SAFETY: `original` is a live buffer of `bytes` bytes the
            // call only reads. A failure leaves the thread pinned,
            // which `generator_threads` then reflects; nothing to undo.
            let _ = unsafe { sys::sched_setaffinity(0, bytes, self.original.as_ptr()) };
        }
    }
}
