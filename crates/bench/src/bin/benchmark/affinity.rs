//! CPU affinity for `daemon_mixed`: the daemon's threads on one half of the
//! CPUs, the load generator on the other.
//!
//! Left to the scheduler, a generator thread and the serving worker it talks
//! to sometimes share a core and sometimes do not, and the latency and
//! capacity figures move by tens of percent between otherwise identical
//! runs. A thread inherits the affinity of the thread that spawns it, so
//! pinning the calling thread around `Daemon::start` places the daemon
//! without touching its code. Where the platform or the sandbox refuses,
//! nothing is pinned and the run goes on as the scheduler likes.

#[cfg(target_os = "linux")]
mod sys {
    /// Bits in the mask handed to the kernel: enough for 1024 CPUs.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Option<Vec<usize>> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then(|| (0..WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect())
    }

    pub fn pin(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed and is
        // only read; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Option<Vec<usize>> {
        None
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }
}

/// How the CPUs this process may use are divided.
pub struct Split {
    all: Vec<usize>,
    generator: Vec<usize>,
    daemon: Vec<usize>,
}

impl Split {
    /// Lower half to the generator, upper half to the daemon; `None` on one
    /// CPU or where affinity cannot be read.
    pub fn of_this_process() -> Option<Split> {
        let all = sys::allowed().filter(|cpus| cpus.len() >= 2)?;
        let (generator, daemon) = all.split_at(all.len() / 2);
        Some(Split { generator: generator.to_vec(), daemon: daemon.to_vec(), all: all.clone() })
    }

    /// Threads spawned from now on run on the daemon's CPUs.
    pub fn enter_daemon(&self) -> bool {
        sys::pin(&self.daemon)
    }

    /// This thread, and threads spawned from now on, run on the generator's.
    pub fn enter_generator(&self) -> bool {
        sys::pin(&self.generator)
    }

    pub fn describe(&self) -> String {
        format!("generator on CPUs {:?}, daemon on CPUs {:?}", self.generator, self.daemon)
    }
}

impl Drop for Split {
    /// Give the calling thread its CPUs back.
    fn drop(&mut self) {
        sys::pin(&self.all);
    }
}
