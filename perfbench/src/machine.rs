//! What the benchmark reads about the machine and its own process:
//! the descriptor printed with every result, peak RSS and CPU time.

use std::process::Command;

/// `nproc`, last-level cache, RAM and compiler version.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Available parallelism.
    pub nproc: usize,
    /// Size of the largest CPU cache level, in bytes (0 if unknown).
    pub llc_bytes: u64,
    /// Total RAM, in bytes (0 if unknown).
    pub ram_bytes: u64,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
}

impl Machine {
    /// Probes the running machine.
    #[must_use]
    pub fn probe() -> Self {
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
            );
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            llc_bytes: llc_bytes(),
            ram_bytes: proc_field("/proc/meminfo", "MemTotal:").map_or(0, |kib| kib * 1024),
            rustc,
        }
    }

    /// One-line rendering.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "machine: nproc={} llc={:.1}MiB ram={:.1}GiB rustc=\"{}\"",
            self.nproc,
            self.llc_bytes as f64 / f64::from(1 << 20),
            self.ram_bytes as f64 / f64::from(1 << 30),
            self.rustc
        )
    }
}

/// The largest cache size sysfs lists for CPU 0.
fn llc_bytes() -> u64 {
    let mut best = 0;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, mult) = match text.strip_suffix('K') {
            Some(d) => (d, 1 << 10),
            None => match text.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (text, 1),
            },
        };
        if let Ok(v) = digits.parse::<u64>() {
            best = best.max(v * mult);
        }
    }
    best
}

/// The first number after `key` in a `/proc` status-style file.
fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// User + system CPU seconds this process has used so far (all
/// threads).
#[must_use]
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz on
    // Linux).
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}
