//! The calling thread's CPU time, read through the C library's
//! `clock_gettime` so the benchmark needs no external crate.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Nanoseconds of CPU time this thread has run so far. Time the thread
/// spent waiting for a core — behind another process, or while the
/// hypervisor ran someone else — is not counted.
pub fn thread_ns() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, and the clock id is a constant the kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_time_advances_with_work_and_not_with_sleep() {
        let t0 = thread_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_ns() - t0;
        assert!(slept < 20e6, "sleeping cost {slept} ns of CPU");
        let t1 = thread_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_ns() > t1);
    }
}
