//! The host block printed with every result: a number is only comparable
//! with another taken on the same kind of machine.

/// What the machine offers and how busy it was when the run started.
#[derive(Debug, Clone)]
pub struct Host {
    /// Processors listed by the kernel (`/proc/cpuinfo`), 0 if unreadable.
    pub nproc: usize,
    /// `std::thread::available_parallelism` (cgroup/affinity aware).
    pub available_parallelism: usize,
    pub cpu_features: &'static str,
    pub simd_backend: &'static str,
    /// 1-minute load average at start, if the kernel exposes it.
    pub load_average: Option<f64>,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        let load_average = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()));
        Host {
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_features: gem_core::simd::cpu_feature_name(),
            simd_backend: gem_core::simd::backend().name(),
            load_average,
        }
    }

    /// Threads the benchmark may use for anything: never more than the
    /// machine has, so a 1-core host measures 1-core numbers.
    pub fn cores(&self) -> usize {
        self.available_parallelism.max(1)
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"available_parallelism\":{},\"cpu_features\":\"{}\",\
             \"simd_backend\":\"{}\",\"load_average\":{}}}",
            self.nproc,
            self.available_parallelism,
            self.cpu_features,
            self.simd_backend,
            self.load_average.map_or("null".to_string(), |l| l.to_string()),
        )
    }
}
