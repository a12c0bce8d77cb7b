//! Spreads the benchmark's one thread evenly over the CPUs it may run on.
//!
//! On a shared host each CPU is slowed by its neighbours' load on its own,
//! in phases that last tens of seconds. A thread the scheduler leaves on
//! one CPU measures that CPU's phase. On a 2-core x86-64 VM the speeds of a
//! fixed loop on the two CPUs, sampled alternately every 0.25 s for 150 s,
//! had a correlation of 0.08; the quartile spread of their 10-s medians was
//! 0.20 and 0.22 of the median on either CPU, and 0.09 for the mean of the
//! two. So the client moves to the next allowed CPU before every timed
//! set-up, batch and churn round, outside the timed interval, and every
//! run sees each CPU alike. The program runs one thread at one scan
//! worker, so nothing else is pinned.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The CPUs this process may run on, ascending; empty where they cannot
/// be read.
pub fn allowed() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(sys::allowed)
}

/// Pin the calling thread to the next allowed CPU, round robin. With fewer
/// than two allowed CPUs, or where pinning fails, the thread stays where
/// the scheduler puts it.
pub fn next() {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let cpus = allowed();
    if cpus.len() >= 2 {
        sys::pin(cpus[NEXT.fetch_add(1, Ordering::Relaxed) % cpus.len()]);
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words of a `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
        // the calling thread. A failure leaves the affinity unchanged.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_this_thread_to_each_allowed_cpu() {
        let cpus = allowed();
        assert!(!cpus.is_empty(), "affinity mask unreadable");
        for &cpu in cpus {
            sys::pin(cpu);
            assert_eq!(sys::allowed(), [cpu]);
        }
        // The set read once at the start stays the process's whole set.
        assert_eq!(allowed(), cpus);
    }
}
