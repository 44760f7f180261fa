//! The repository's benchmark: three workloads driven through the public
//! APIs (`BlobSeerClient`, `Bsfs`, `JobTracker::submit`) on a simulated
//! multi-rack network, reporting end-to-end metrics from an untraced pass
//! and per-layer metrics from a traced one. See `README.md` beside this
//! crate for the workloads' rationale and the metric map.

pub mod append;
pub mod deploy;
pub mod gen;
pub mod measure;
pub mod mrmix;
pub mod read;
pub mod trace;

use deploy::{Footprint, StoreCounters};
use measure::{Latencies, Usage};
use std::sync::Arc;
use std::time::Duration;
use trace::Tracer;

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two appenders on one shared blob.
    AppendShared,
    /// Two readers of one file larger than the metadata cache.
    ReadCold,
    /// Rounds of batch and ad-hoc jobs from two tenants.
    MrMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::AppendShared, Workload::ReadCold, Workload::MrMix];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AppendShared => "append-shared",
            Workload::ReadCold => "read-cold",
            Workload::MrMix => "mr-mix",
        }
    }

    /// The tail percentile of the primary operation's latency: p99 for
    /// appends and point reads, p90 for the hundreds of jobs a run times.
    pub fn tail_pct(self) -> f64 {
        if self == Workload::MrMix {
            90.0
        } else {
            99.0
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is the benchmark, `Tiny` the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Sizes small enough for a unit test.
    Tiny,
}

/// A fault injected into stored data before the outputs are checked, so the
/// self-test can show that the checks catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Leave the data alone.
    None,
    /// Overwrite part of the file `read-cold` reads.
    Read,
    /// Overwrite one output file of an `mr-mix` job.
    JobOutput,
}

/// How to run one pass of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall time the measured phase lasts.
    pub measure: Duration,
    /// Input sizes.
    pub scale: Scale,
    /// Fault injected before the output checks.
    pub corrupt: Corruption,
}

/// MapReduce job counters summed over the measured phase.
#[derive(Debug, Clone, Default)]
pub struct MrCounters {
    pub map_tasks: u64,
    pub reduce_tasks: u64,
    pub task_retries: u64,
    pub data_local: u64,
    pub located_tasks: u64,
    /// Job latency minus `JobResult::elapsed`, per job.
    pub queue_waits: Latencies,
    pub spill_bytes: u64,
    pub segments_fetched: u64,
    pub shuffle_read_rts: u64,
    pub merge_runs: u64,
    pub control_messages: u64,
}

/// One slice of the measured phase: an epoch, a round, or a fixed share of
/// the run. Throughput and CPU per op are medians over the windows, so a
/// short stall of the host moves one window, not the run's figure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    pub secs: f64,
    pub bytes: u64,
    pub ops: u64,
    pub cpu_s: f64,
}

/// Median of `values` (0 for none).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Seconds of each set-up (deployment, load, warm-up).
    pub setup_s: Vec<f64>,
    /// Wall seconds of the measured phase.
    pub measured_s: f64,
    /// The measured phase, window by window.
    pub windows: Vec<Window>,
    /// Operations attempted and failed in the measured phase.
    pub attempted: u64,
    pub failed: u64,
    /// User bytes the completed operations moved.
    pub user_bytes: u64,
    /// Latencies of the workload's primary operation (append, point read,
    /// ad-hoc job).
    pub primary: Latencies,
    /// Latencies of the secondary operation (scan, round).
    pub secondary: Latencies,
    /// SimNet makespan of the measured phase, seconds.
    pub virtual_s: f64,
    /// Process resource usage during the measured phase.
    pub usage: Usage,
    /// Storage-layer counters during the measured phase.
    pub store: StoreCounters,
    /// What the deployments held at the end, against what was written.
    pub footprint: Footprint,
    /// BSFS block-cache counters of the benchmark's readers.
    pub bsfs_cache_hits: u64,
    pub bsfs_cache_misses: u64,
    pub bsfs_bytes_loaded: u64,
    /// Job counters (`mr-mix`).
    pub mr: MrCounters,
    /// miniexec census: peak live system threads, and threads spawned
    /// during the measured phase.
    pub census_peak: u64,
    pub census_spawned: u64,
    /// Workload parameters, for the provenance block.
    pub params: Vec<(&'static str, String)>,
}

impl Measured {
    /// Operations completed.
    pub fn ops(&self) -> u64 {
        self.attempted - self.failed
    }

    fn per_op(&self, x: f64) -> f64 {
        x / self.ops().max(1) as f64
    }

    fn setup_median(&self) -> f64 {
        median(self.setup_s.iter().copied())
    }

    fn mibps(&self) -> f64 {
        median(
            self.windows
                .iter()
                .map(|w| w.bytes as f64 / (1024.0 * 1024.0) / w.secs.max(1e-9)),
        )
    }

    fn cpu_ms_per_op(&self) -> f64 {
        median(
            self.windows
                .iter()
                .filter(|w| w.ops > 0)
                .map(|w| w.cpu_s * 1e3 / w.ops as f64),
        )
    }

    fn stored_per_user_byte(&self) -> f64 {
        let f = &self.footprint;
        (f.provider_stored + f.dht_stored) as f64 / f.user_written.max(1) as f64
    }
}

/// A named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics the benchmark gates on. Every run reports every
/// gated metric, so these are the quantities that apply to all workloads,
/// and the ones a shared two-core host reproduces from run to run: its
/// wall-clock and CPU figures move by up to a quarter between batches taken
/// minutes apart, so those are printed (see [`named_metrics`]) but not
/// gated.
pub fn gate_metrics(r: &Measured) -> Vec<Metric> {
    vec![
        m("setup_s", "s", r.setup_median()),
        m("virtual_ms_per_op", "ms", r.per_op(r.virtual_s * 1e3)),
        m("peak_rss_mib", "MiB", r.usage.max_rss_kib as f64 / 1024.0),
        m(
            "stored_bytes_per_user_byte",
            "ratio",
            r.stored_per_user_byte(),
        ),
    ]
}

/// The sixteen end-to-end metrics by their workload-specific names; `None`
/// where a metric does not apply to the workload.
pub fn named_metrics(w: Workload, r: &Measured) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let on = |yes: bool, v: f64| yes.then_some(v);
    let (a, rd, mr) = (
        w == Workload::AppendShared,
        w == Workload::ReadCold,
        w == Workload::MrMix,
    );
    let p = &r.primary;
    vec![
        ("setup_s", "s", Some(r.setup_median())),
        ("append_mibps", "MiB/s", on(a, r.mibps())),
        ("append_p50_ms", "ms", on(a, p.p50() * 1e3)),
        ("append_p99_ms", "ms", on(a, p.tail(w.tail_pct()) * 1e3)),
        ("read_mibps", "MiB/s", on(rd, r.mibps())),
        ("point_read_p50_ms", "ms", on(rd, p.p50() * 1e3)),
        (
            "point_read_p99_ms",
            "ms",
            on(rd, p.tail(w.tail_pct()) * 1e3),
        ),
        ("scan_p50_ms", "ms", on(rd, r.secondary.p50() * 1e3)),
        ("job_p50_s", "s", on(mr, p.p50())),
        ("job_p90_s", "s", on(mr, p.tail(w.tail_pct()))),
        ("round_s", "s", on(mr, r.secondary.p50())),
        ("virtual_ms_per_op", "ms", Some(r.per_op(r.virtual_s * 1e3))),
        ("cpu_ms_per_op", "ms", Some(r.cpu_ms_per_op())),
        (
            "fail_ratio",
            "ratio",
            Some(r.failed as f64 / r.attempted.max(1) as f64),
        ),
        (
            "peak_rss_mib",
            "MiB",
            Some(r.usage.max_rss_kib as f64 / 1024.0),
        ),
        (
            "stored_bytes_per_user_byte",
            "ratio",
            Some(r.stored_per_user_byte()),
        ),
    ]
}

/// The per-layer metrics of a traced pass, tagged by module. `untraced` is
/// the same workload measured without tracing, for the overhead figures.
pub fn layer_metrics(r: &Measured, t: &Tracer, untraced: &Measured) -> Vec<Metric> {
    let s = &r.store;
    let ops = r.ops().max(1) as f64;
    let commits = s.vm_commits.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let dht = t.total("dht", "exchange");
    let prov = t.total("provider", "exchange");
    let control = t.total("control", "exchange");
    let all_wall = dht.wall_s() + prov.wall_s() + control.wall_s();
    let pw = &s.provider_bytes_written;
    let imbalance = if pw.iter().sum::<u64>() == 0 {
        0.0
    } else {
        *pw.iter().max().unwrap_or(&0) as f64 / (pw.iter().sum::<u64>() as f64 / pw.len() as f64)
    };
    let fs = |op| t.total("mr.fs", op).wall_s();
    let bsfs = |op| t.total("bsfs", op);
    let pct = |traced: f64, plain: f64| 100.0 * (traced - plain) / plain.max(1e-12);
    vec![
        m(
            "vm.cond_waits_per_commit",
            "count",
            s.vm_cond_waits as f64 / commits,
        ),
        m(
            "vm.lock_acquisitions_per_commit",
            "count",
            s.vm_lock_acquisitions as f64 / commits,
        ),
        m(
            "vm.contended_ratio",
            "ratio",
            ratio(s.vm_contended, s.vm_lock_acquisitions),
        ),
        m(
            "vm.notifies_per_commit",
            "count",
            s.vm_notifies as f64 / commits,
        ),
        m(
            "vm.aborts",
            "count",
            s.vm_reservations.saturating_sub(s.vm_commits) as f64,
        ),
        m(
            "meta.nodes_written_per_commit",
            "count",
            s.meta_nodes_written as f64 / commits,
        ),
        m("meta.batch_flushes", "count", s.meta_batch_flushes as f64),
        m(
            "meta.nodes_read_per_op",
            "count",
            s.meta_nodes_read as f64 / ops,
        ),
        m(
            "meta.batch_lookups_per_op",
            "count",
            s.meta_batch_lookups as f64 / ops,
        ),
        m(
            "meta.cache.hit_ratio",
            "ratio",
            ratio(s.meta_cache_hits, s.meta_cache_hits + s.meta_cache_misses),
        ),
        m(
            "meta.cache.misses_per_op",
            "count",
            s.meta_cache_misses as f64 / ops,
        ),
        m(
            "dht.read_rts_per_op",
            "count",
            s.dht_read_messages as f64 / ops,
        ),
        m(
            "dht.write_rts_per_commit",
            "count",
            s.dht_write_messages as f64 / commits,
        ),
        m("dht.retries", "count", s.dht_retries as f64),
        m("dht.bytes_on_wire", "B", s.dht_bytes_on_wire as f64),
        m("dht.virtual_busy_s", "s", dht.virtual_s()),
        m("dht.stored_bytes", "B", r.footprint.dht_stored as f64),
        m(
            "provider.messages_per_op",
            "count",
            s.provider_messages as f64 / ops,
        ),
        m(
            "provider.bytes_on_wire_per_user_byte",
            "ratio",
            ratio(s.provider_bytes_on_wire, r.user_bytes),
        ),
        m("provider.virtual_busy_s", "s", prov.virtual_s()),
        m(
            "provider.stored_bytes",
            "B",
            r.footprint.provider_stored as f64,
        ),
        m("provider.load_imbalance", "ratio", imbalance),
        m("bsfs.read_at.calls", "count", bsfs("read_at").count as f64),
        m("bsfs.read_at.busy_s", "s", bsfs("read_at").wall_s()),
        m(
            "bsfs.cache.hit_ratio",
            "ratio",
            ratio(r.bsfs_cache_hits, r.bsfs_cache_hits + r.bsfs_cache_misses),
        ),
        m(
            "bsfs.read_amplification",
            "ratio",
            ratio(r.bsfs_bytes_loaded, r.user_bytes),
        ),
        m("bsfs.write.busy_s", "s", bsfs("write").wall_s()),
        m("bsfs.close.busy_s", "s", bsfs("close").wall_s()),
        m(
            "bsfs.namespace.calls",
            "count",
            bsfs("namespace").count as f64,
        ),
        m("bsfs.namespace.busy_s", "s", bsfs("namespace").wall_s()),
        m("mr.queue_wait_p50_s", "s", r.mr.queue_waits.p50()),
        m("mr.map_tasks", "count", r.mr.map_tasks as f64),
        m("mr.reduce_tasks", "count", r.mr.reduce_tasks as f64),
        m("mr.task_retries", "count", r.mr.task_retries as f64),
        m(
            "mr.data_local_ratio",
            "ratio",
            ratio(r.mr.data_local, r.mr.located_tasks),
        ),
        m("mr.map_fn.busy_s", "s", t.map_fn_s()),
        m("mr.reduce_fn.busy_s", "s", t.reduce_fn_s()),
        m("mr.fs.input.busy_s", "s", fs("input")),
        m("mr.fs.spill.busy_s", "s", fs("spill")),
        m("mr.fs.fetch.busy_s", "s", fs("fetch")),
        m("mr.fs.output.busy_s", "s", fs("output")),
        m("shuffle.spill_bytes", "B", r.mr.spill_bytes as f64),
        m(
            "shuffle.segments_fetched",
            "count",
            r.mr.segments_fetched as f64,
        ),
        m("shuffle.read_rts", "count", r.mr.shuffle_read_rts as f64),
        m("shuffle.merge_runs", "count", r.mr.merge_runs as f64),
        m(
            "wire.exchanges",
            "count",
            (dht.count + prov.count + control.count) as f64,
        ),
        m(
            "wire.bytes_on_wire",
            "B",
            (dht.bytes + prov.bytes + control.bytes) as f64,
        ),
        m(
            "wire.control.messages",
            "count",
            r.mr.control_messages as f64,
        ),
        m("wire.charge.busy_s", "s", all_wall),
        m("miniexec.census_peak", "count", r.census_peak as f64),
        m("miniexec.spawned", "count", r.census_spawned as f64),
        m("proc.cpu_user_s", "s", r.usage.user_s),
        m("proc.cpu_sys_s", "s", r.usage.sys_s),
        m(
            "proc.voluntary_ctx_switches_per_op",
            "count",
            r.usage.voluntary_ctx as f64 / ops,
        ),
        m(
            "proc.involuntary_ctx_switches_per_op",
            "count",
            r.usage.involuntary_ctx as f64 / ops,
        ),
        m(
            "trace.overhead.op_p50_pct",
            "%",
            pct(r.primary.p50(), untraced.primary.p50()),
        ),
        m(
            "trace.overhead.cpu_per_op_pct",
            "%",
            pct(r.cpu_ms_per_op(), untraced.cpu_ms_per_op()),
        ),
    ]
}

/// Run one pass of `workload`; with a tracer, the measured phase records
/// spans. An output-check failure is an `Err`.
pub fn run(
    workload: Workload,
    p: &Params,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Measured, String> {
    let mut r = match workload {
        Workload::AppendShared => append::run(p, tracer),
        Workload::ReadCold => read::run(p, tracer),
        Workload::MrMix => mrmix::run(p, tracer),
    }?;
    r.census_peak = miniexec::census::peak() as u64;
    Ok(r)
}
