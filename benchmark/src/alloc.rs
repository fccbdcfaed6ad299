//! A counting global allocator, installed in the benchmark binary only:
//! it forwards to the system allocator and counts every allocation and
//! reallocation, so a run's allocation count is one subtraction.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`], counting `alloc` and `realloc` calls.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocations (including reallocations) made by the process so far.
pub fn allocations() -> u64 {
    // Relaxed: a statistic that publishes no other data.
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect on
// the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // guarantees on `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations() {
        let before = allocations();
        let boxed = std::hint::black_box(Box::new([0u8; 64]));
        assert!(allocations() > before);
        drop(boxed);
    }

    #[test]
    fn reports_a_positive_peak_rss() {
        let rss = peak_rss_mib().expect("Linux exposes VmHWM");
        assert!(rss > 0.0);
    }
}
