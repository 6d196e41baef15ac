//! Measurement plumbing shared by every workload: order statistics, the
//! metric list a run prints, per-thread CPU from procfs, and the host
//! fingerprint stamped on every result.

use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

/// Linear-interpolated quantile of `xs` (`q` in `0..=1`); `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The set-up time of `f`, in seconds: on each CPU in turn, one untimed
/// warm call and then the median of `reps / cpus` timed calls. The host's
/// other tenants load the vCPUs unevenly, so the least-loaded CPU's median
/// is the one reported.
pub fn setup_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut best = f64::INFINITY;
    for cpu in 0..cpus {
        pin_thread(Some(cpu));
        f();
        let xs: Vec<f64> = (0..reps.div_ceil(cpus).max(1))
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        best = best.min(median(&xs));
    }
    pin_thread(None);
    best
}

/// The named metrics one run prints, in insertion order.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds (or replaces) metric `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(row) => *row = (name.to_string(), value, unit),
            None => self.rows.push((name.to_string(), value, unit)),
        }
    }

    /// Current value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// Metrics whose value is not a finite number (a bug in the workload).
    pub fn non_finite(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| !r.1.is_finite())
            .map(|r| r.0.as_str())
            .collect()
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.rows {
            let _ = writeln!(s, "  {name:<36} {value:>16.6} {unit}");
        }
        s
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite `f64` in JSON, with every digit Rust's shortest round-trip
/// formatting gives.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Nanoseconds this thread has run on a CPU (`/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    read_schedstat("/proc/thread-self/schedstat")
}

/// Nanoseconds task `tid` of this process has run on a CPU.
pub fn task_cpu_ns(tid: u32) -> u64 {
    read_schedstat(&format!("/proc/self/task/{tid}/schedstat"))
}

fn read_schedstat(path: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Thread ids of this process, ascending.
pub fn task_ids() -> Vec<u32> {
    let mut ids: Vec<u32> = fs::read_dir("/proc/self/task")
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// The system call task `tid` is blocked in (`/proc/self/task/<tid>/syscall`
/// first field), or `None` when it is running or the file is unreadable.
pub fn task_syscall(tid: u32) -> Option<i64> {
    let s = fs::read_to_string(format!("/proc/self/task/{tid}/syscall")).ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Restricts the calling thread to CPU `cpu`, or to every CPU when `None`
/// (`sched_setaffinity(2)`). Returns `false` when the kernel refuses.
pub fn pin_thread(cpu: Option<usize>) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    match cpu {
        Some(c) => mask[c / 64 % 16] |= 1 << (c % 64),
        None => mask = [u64::MAX; 16],
    }
    // SAFETY: `mask` outlives the call and its byte size is passed with it;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Sum of the `steal` column of the aggregate `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The host a result was measured on.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    steal_at_start: u64,
}

impl Host {
    /// Reads the fingerprint and starts the steal-tick window.
    pub fn probe() -> Host {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            steal_at_start: steal_ticks(),
        }
    }

    /// The fingerprint as one JSON object, with the steal ticks taken
    /// since [`Host::probe`].
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"kernel\": \"{}\", \"steal_ticks\": {}}}",
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.kernel.replace('"', "'"),
            steal_ticks().saturating_sub(self.steal_at_start)
        )
    }
}
