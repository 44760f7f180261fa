//! Measurement helpers: latency percentiles, process resource usage and the
//! provenance block.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The value at percentile `pct` (0..=100) of `sorted`, by the
/// nearest-rank rule; 0 for no samples.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Seconds since the first call: one clock for samples taken on different
/// threads, so they can be put in completion order.
fn clock_s() -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Latency samples in seconds, each with its completion time, summarised as
/// median and tail.
#[derive(Debug, Clone, Default)]
pub struct Latencies(Vec<(f64, f64)>);

impl Latencies {
    /// Record one sample that completed now.
    pub fn push(&mut self, d: Duration) {
        self.0.push((clock_s(), d.as_secs_f64()));
    }

    /// Append another set.
    pub fn extend(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Median in seconds (0 for an empty set).
    pub fn p50(&self) -> f64 {
        self.at(50.0)
    }

    /// Value at `pct` over all samples, in seconds (0 for an empty set).
    pub fn at(&self, pct: f64) -> f64 {
        percentile(&sorted(self.0.iter().map(|s| s.1)), pct)
    }

    /// Slices [`Latencies::tail`] cuts the samples into for `pct`.
    pub fn tail_slices(&self, pct: f64) -> usize {
        let per_slice = (10.0 / (1.0 - pct / 100.0)).ceil() as usize;
        (self.0.len() / per_slice.max(1)).clamp(1, MAX_SLICES)
    }

    /// The tail at `pct`, in seconds, robust to a short stall of the host:
    /// the samples are cut, in completion order, into as many slices (at
    /// most five) as still hold ten samples beyond `pct` each, and the
    /// median of the slices' values at `pct` is reported.
    pub fn tail(&self, pct: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut by_time = self.0.clone();
        by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (n, k) = (by_time.len(), self.tail_slices(pct));
        let tails = sorted((0..k).map(|i| {
            let slice = &by_time[i * n / k..(i + 1) * n / k];
            percentile(&sorted(slice.iter().map(|s| s.1)), pct)
        }));
        (tails[(k - 1) / 2] + tails[k / 2]) / 2.0
    }
}

/// Slices of a run a tail percentile is taken over, at most.
const MAX_SLICES: usize = 5;

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Process-wide resource usage, from `getrusage(RUSAGE_SELF)`: every thread
/// of the process, live or exited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set size in KiB over the process lifetime.
    pub max_rss_kib: u64,
    /// Voluntary context switches.
    pub voluntary_ctx: u64,
    /// Involuntary context switches.
    pub involuntary_ctx: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out on 64-bit Linux (`long` is 64 bits).
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage with the 64-bit Linux layout");

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

impl Usage {
    /// Usage of the whole process so far.
    pub fn now() -> Usage {
        let mut ru = RUsage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            ixrss: 0,
            idrss: 0,
            isrss: 0,
            minflt: 0,
            majflt: 0,
            nswap: 0,
            inblock: 0,
            oublock: 0,
            msgsnd: 0,
            msgrcv: 0,
            nsignals: 0,
            nvcsw: 0,
            nivcsw: 0,
        };
        // SAFETY: `ru` is a valid, writable `struct rusage` with the layout
        // the C library uses on 64-bit Linux (checked by the cfg above), and
        // getrusage writes nothing beyond it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Usage {
            user_s: secs(&ru.utime),
            sys_s: secs(&ru.stime),
            max_rss_kib: ru.maxrss.max(0) as u64,
            voluntary_ctx: ru.nvcsw.max(0) as u64,
            involuntary_ctx: ru.nivcsw.max(0) as u64,
        }
    }

    /// The usage accrued since `earlier` (the peak RSS stays absolute).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            max_rss_kib: self.max_rss_kib,
            voluntary_ctx: self.voluntary_ctx.saturating_sub(earlier.voluntary_ctx),
            involuntary_ctx: self.involuntary_ctx.saturating_sub(earlier.involuntary_ctx),
        }
    }

    /// Add another delta (for phases measured in pieces).
    pub fn add(&mut self, other: &Usage) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.max_rss_kib = self.max_rss_kib.max(other.max_rss_kib);
        self.voluntary_ctx += other.voluntary_ctx;
        self.involuntary_ctx += other.involuntary_ctx;
    }
}

/// The commit the benchmark was built from: `.git/HEAD` of the working
/// directory, resolved through loose or packed refs, or "unknown" outside a
/// git checkout. Reads nothing outside the working directory.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{refname}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == refname).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
