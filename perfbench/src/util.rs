//! Small shared helpers: hashing, order statistics, seeded choice, and
//! the host facts recorded with every result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// FNV-1a offset basis: the digest of no bytes.
pub const FNV_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over bytes: the digest every output check compares.
pub fn fnv(bytes: &[u8]) -> u64 {
    fnv_extend(FNV_EMPTY, bytes)
}

/// Continues an FNV-1a digest with more bytes.
pub fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted values; 0 when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0 (keeps every reported value finite).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The global allocator: the system allocator, counting the bytes
/// allocated and not yet freed, and their peak.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    // Relaxed: the counters publish no other data.
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments,
// so `System`'s guarantees hold; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Restarts the peak from the bytes allocated now and returns them:
/// the baseline for [`peak_heap_mb_since`].
pub fn reset_peak_heap() -> usize {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Peak bytes allocated at once since [`reset_peak_heap`], above the
/// `baseline` it returned, in MB. Unlike the resident set, this does
/// not depend on how the allocator's free lists happen to fragment:
/// the same allocation sequence gives the same figure.
pub fn peak_heap_mb_since(baseline: usize) -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(baseline) as f64 / (1024.0 * 1024.0)
}

/// Host facts recorded with every result.
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // `output` waits for the child, so no process outlives this call.
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    (!text.is_empty()).then_some(text)
}

impl Host {
    pub fn probe() -> Host {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
        // A source checkout without git metadata reports "unknown".
        let commit = if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            None
        }
        .unwrap_or_else(|| "unknown".to_owned());
        Host { cores, cpu_model, rustc, commit }
    }

    pub fn to_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        format!(
            "{{\"host\":{{\"cores\":{},\"cpu_model\":{},\"rustc\":{},\"commit\":{}}},\
             \"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace}}}",
            self.cores,
            sim_server::json::escape(&self.cpu_model),
            sim_server::json::escape(&self.rustc),
            sim_server::json::escape(&self.commit),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
