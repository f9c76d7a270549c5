//! Peak resident memory of the process, per part of a loop.

use std::time::{Duration, Instant};

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free memory to the operating system, so the next
/// part's peak starts from the memory actually in use. Without it the heap
/// keeps the pages of the largest d-tree compiled so far, and every later
/// part's peak is that one tree again.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` has no preconditions; it only releases free
    // memory of glibc's own heap.
    unsafe {
        malloc_trim(0);
    }
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident memory per part of a loop. The peak of the whole run is the
/// single largest transient (one d-tree of the hardest lineage), which
/// varies from seed to seed far more than the typical peak (133k to 348k
/// nodes over eight seeds, against 74k to 106k for the 99th percentile); so
/// at each part boundary the heap is trimmed and the kernel's peak counter
/// reset, and the median part can be reported. Where the counter cannot be
/// reset, the run is one part.
pub struct PeakRss {
    part: Duration,
    next: Instant,
    resettable: bool,
    peaks_mb: Vec<f64>,
}

/// Parts of a loop the peak is taken over.
const PARTS: u32 = 10;

impl PeakRss {
    /// Starts counting [`PARTS`] parts of a loop of length `window` from now.
    pub fn start(window: Duration) -> Self {
        let part = window / PARTS;
        trim_heap();
        let resettable = reset_peak();
        PeakRss { part, next: Instant::now() + part, resettable, peaks_mb: Vec::new() }
    }

    /// Closes the part in progress if its time is up.
    pub fn tick(&mut self) {
        if self.resettable && Instant::now() >= self.next {
            self.close_part();
            self.next = Instant::now() + self.part;
        }
    }

    fn close_part(&mut self) {
        if let Some(kb) = status_kb("VmHWM:") {
            self.peaks_mb.push(kb / 1024.0);
        }
        trim_heap();
        reset_peak();
    }

    /// Closes the last part and returns each part's peak in MB.
    pub fn finish(mut self) -> Vec<f64> {
        self.close_part();
        self.peaks_mb
    }
}

/// Resets the kernel's peak resident set counter (`VmHWM`) to the current
/// resident set.
fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
