//! What the run measured on: core count, CPU, ISA features, memory
//! high-water mark and the CPU time other guests stole.

use std::fs;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn isa_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(if std::is_x86_feature_detected!($f) { out.push($f); })*};
        }
        probe!("sse4.2", "popcnt", "bmi2", "avx2", "avx512f", "avx512bw", "avx512vpopcntdq");
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the host, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let s = fs::read_to_string("/proc/stat").ok()?;
    let line = s.lines().next()?;
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user, so only the first eight add up.
    let total = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, total))
}

/// Share of host CPU time stolen by the hypervisor between
/// [`StealMeter::start`] and [`StealMeter::pct`], in percent.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    /// Start counting.
    pub fn start() -> Self {
        Self(cpu_ticks())
    }

    /// Steal share so far, in percent (0 where `/proc/stat` is absent).
    pub fn pct(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// The one-line host description every run prints.
pub fn line(workers: usize, steal_pct: f64) -> String {
    format!(
        "host: nproc={} cpu=\"{}\" isa={} workers={} steal={:.2}%",
        nproc(),
        cpu_model(),
        isa_features().join(","),
        workers,
        steal_pct
    )
}
