//! Pins a run to one CPU.
//!
//! The reference host gives the benchmark two vCPUs of a shared
//! machine. Left alone, the library's fork-join starts a worker per
//! vCPU on every call and `tree_tcp`'s two children do so side by side:
//! more runnable threads than vCPUs, each join waiting for a wake-up
//! from the other vCPU, which the host may have parked. Ten runs of one
//! commit then spread by a fifth to two fifths of their median and the
//! PR driver refuses the benchmark. On one CPU
//! `std::thread::available_parallelism` is 1, so the library takes its
//! serial path, the runner's processes take turns, and a round's time
//! is the work it does. The price: the benchmark sees no parallel
//! speed-up — which two shared vCPUs cannot show reliably anyway.
//!
//! `sched_setaffinity` applies to the calling thread and is inherited
//! by every thread and process it starts later, so [`pin_to_one_cpu`]
//! runs on the main thread before the first call into the library.

/// Words of glibc's `cpu_set_t`: 1024 CPUs.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The highest CPU in `mask`. Any allowed CPU would do; a fixed rule
/// makes every run of a host choose the same one.
fn highest_cpu(mask: &[u64; WORDS]) -> Option<usize> {
    let word = mask.iter().rposition(|&w| w != 0)?;
    Some(word * 64 + 63 - mask[word].leading_zeros() as usize)
}

/// Restrict the calling thread, and everything it starts from now on,
/// to the highest CPU it is allowed on. Returns that CPU and how many
/// were allowed.
pub fn pin_to_one_cpu() -> Result<(usize, u32), String> {
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the
    // `cpusetsize` bytes passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = highest_cpu(&allowed).ok_or("the affinity mask allows no CPU")?;
    let mut only = [0u64; WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the `cpusetsize` bytes
    // passed, and the kernel only reads it; pid 0 names the calling
    // thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((cpu, allowed.iter().map(|w| w.count_ones()).sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_highest_allowed_cpu_is_chosen() {
        let mut mask = [0u64; WORDS];
        assert_eq!(highest_cpu(&mask), None);
        mask[0] = 0b0101;
        assert_eq!(highest_cpu(&mask), Some(2));
        mask[1] = 1;
        assert_eq!(highest_cpu(&mask), Some(64));
        mask[WORDS - 1] = 1 << 63;
        assert_eq!(highest_cpu(&mask), Some(1023));
    }

    #[test]
    fn a_pinned_thread_sees_one_cpu() {
        // on a thread of its own: the pin must not leak into other tests
        std::thread::spawn(|| {
            let (_, allowed) = pin_to_one_cpu().unwrap();
            assert!(allowed >= 1);
            assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
            // pinning again finds the one CPU that is left
            assert_eq!(pin_to_one_cpu().unwrap().1, 1);
        })
        .join()
        .unwrap();
    }
}
