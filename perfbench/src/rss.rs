//! Peak resident memory of this process, from `getrusage(2)`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads peak RSS through the 64-bit Linux `struct rusage` layout");

use std::ffi::{c_int, c_long};

/// `struct rusage` on 64-bit Linux: two `struct timeval`s (two longs each)
/// followed by fourteen longs, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    times: [c_long; 4],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` (the layout above
    // matches the kernel's on 64-bit Linux, which the `compile_error!` above
    // enforces), and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_covers_a_touched_allocation() {
        let before = peak_rss_mb();
        assert!(before > 0.0);
        let v = vec![1u8; 64 << 20];
        std::hint::black_box(&v);
        assert!(peak_rss_mb() >= before.max(64.0));
    }
}
