//! CPU placement: the whole process — load generator and chronusd's
//! threads, which inherit it — runs on the first CPU.
//!
//! On the 2-vCPU virtual machine this benchmark was built on, any call
//! that crossed vCPUs paid for waking an idle or descheduled vCPU, from
//! tens of microseconds to milliseconds, and that cost decided the
//! figures: `facility`'s submit p99 read 1.0–2.5 ms across seeds with the
//! daemon on its own vCPU and 0.81–0.88 ms beside the generator; left to
//! the scheduler, `churn`'s submit median read 52 µs in one run and 82 µs
//! in the next; and the shared-memory transport, whose peers spin-wait
//! for each other on separate CPUs, read a submit p99 of 117–575 µs over
//! ten seeds as the host's steal time rose. The traced run's
//! shared-memory leg is the one exception: its client thread moves to
//! the second CPU (see `workload::shm_leg`).

/// `cpu_set_t`: 1024 CPUs, as glibc defines it.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread, and every thread it spawns from now on, to
/// CPU `cpu`. Returns whether the kernel accepted it.
pub fn to_cpu(cpu: usize) -> bool {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised `cpu_set_t`-sized buffer,
    // the size passed is its size, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

/// Pins the whole process to CPU 0. Call it before any thread is
/// spawned.
pub fn to_one_cpu() {
    if !to_cpu(0) {
        eprintln!("perfbench: could not pin to CPU 0; figures will vary with thread placement");
    }
}
