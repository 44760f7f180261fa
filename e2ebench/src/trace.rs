//! The traced run's recorder. Spans are taken in the benchmark's own code,
//! around the calls it makes into each layer: its `append`, `read_at` and
//! `submit`/`wait` calls, a recording [`Transport`] around the shared
//! SimNet, and [`DistFs`]/[`Mapper`]/[`Reducer`] wrappers handed to the
//! MapReduce engine. Spans stay in memory and are written out at the end.
//!
//! A transport exchange is parented to the operation in flight on its
//! source node: every load thread owns one client node, so the node names
//! the operation that caused the exchange.

use bytes::Bytes;
use mapreduce::{BlockHint, DistFs, FileReader, FileWriter, Mapper, MrResult, Reducer};
use simcluster::{NodeId, SimDuration};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use wire::{Direction, Transport};

/// Spans kept in memory at most; later spans still count in the totals.
const MAX_SPANS: usize = 1 << 18;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Span id (1-based; 0 means "no parent").
    id: u64,
    /// The span that caused this one, or 0.
    parent: u64,
    /// The layer the call went into.
    layer: &'static str,
    /// The operation within the layer.
    op: &'static str,
    /// The cluster node the call was made from.
    node: u32,
    /// Wall-clock start, nanoseconds since the recorder was created.
    start_ns: u64,
    /// Wall-clock end, nanoseconds since the recorder was created.
    end_ns: u64,
    /// Virtual (SimNet) duration charged, for transport exchanges.
    virtual_ns: u64,
    /// Bytes moved, where the layer reports them.
    bytes: u64,
}

/// Sums over every span of one `(layer, op)` pair.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Total {
    /// Spans recorded.
    pub(crate) count: u64,
    /// Wall time inside the spans, nanoseconds.
    pub(crate) wall_ns: u64,
    /// Virtual time charged inside the spans, nanoseconds.
    pub(crate) virtual_ns: u64,
    /// Bytes moved.
    pub(crate) bytes: u64,
}

impl Total {
    /// Wall time in seconds.
    pub(crate) fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Virtual time in seconds.
    pub(crate) fn virtual_s(&self) -> f64 {
        self.virtual_ns as f64 / 1e9
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    totals: BTreeMap<(&'static str, &'static str), Total>,
}

/// The in-memory span recorder of one traced pass.
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// The operation span in flight on each cluster node (0 = none).
    inflight: Vec<AtomicU64>,
    /// Wall time inside user map and reduce functions, nanoseconds. Kept
    /// as counters: a span per record would cost more than the function.
    map_fn_ns: AtomicU64,
    reduce_fn_ns: AtomicU64,
    state: Mutex<State>,
}

/// An operation span in flight; recorded when finished or dropped.
pub struct OpSpan<'a> {
    tracer: &'a Tracer,
    id: u64,
    node: u32,
    layer: &'static str,
    op: &'static str,
    start: Instant,
}

impl Drop for OpSpan<'_> {
    fn drop(&mut self) {
        self.tracer.inflight[self.node as usize].store(0, Ordering::Relaxed);
        self.tracer
            .push(self.id, 0, self.layer, self.op, self.node, self.start, 0, 0);
    }
}

impl Tracer {
    /// A recorder for a cluster of `nodes` nodes; recording starts disabled.
    pub fn new(nodes: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            inflight: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            map_fn_ns: AtomicU64::new(0),
            reduce_fn_ns: AtomicU64::new(0),
            state: Mutex::new(State::default()),
        })
    }

    /// Record only while enabled: set-up and output checks stay out.
    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a thread panicked while recording spans")
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Open an operation span on `node`; transport exchanges from that node
    /// are parented to it until it ends.
    pub(crate) fn op(&self, node: NodeId, layer: &'static str, op: &'static str) -> OpSpan<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.inflight[node.0 as usize].store(id, Ordering::Relaxed);
        OpSpan {
            tracer: self,
            id,
            node: node.0,
            layer,
            op,
            start: Instant::now(),
        }
    }

    /// Time `f` as a span of `layer`/`op`, when recording is on.
    fn time<T>(
        &self,
        node: NodeId,
        layer: &'static str,
        op: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, 0, layer, op, node.0, start, 0, 0);
        out
    }

    /// Record a span of `layer`/`op` from `start` to now, for intervals that
    /// do not nest on one node (concurrent jobs).
    pub(crate) fn span_since(
        &self,
        node: NodeId,
        layer: &'static str,
        op: &'static str,
        start: Instant,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, 0, layer, op, node.0, start, 0, 0);
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        id: u64,
        parent: u64,
        layer: &'static str,
        op: &'static str,
        node: u32,
        start: Instant,
        virtual_ns: u64,
        bytes: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            layer,
            op,
            node,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            virtual_ns,
            bytes,
        };
        let mut s = self.state();
        let t = s.totals.entry((layer, op)).or_default();
        t.count += 1;
        t.wall_ns += span.end_ns - span.start_ns;
        t.virtual_ns += virtual_ns;
        t.bytes += bytes;
        if s.spans.len() < MAX_SPANS {
            s.spans.push(span);
        }
    }

    /// Add wall time to a `(layer, op)` total without keeping a span.
    fn add(&self, layer: &'static str, op: &'static str, start: Instant) {
        if !self.enabled() {
            return;
        }
        let ns = start.elapsed().as_nanos() as u64;
        let mut s = self.state();
        let t = s.totals.entry((layer, op)).or_default();
        t.count += 1;
        t.wall_ns += ns;
    }

    /// The sums of one `(layer, op)` pair.
    pub(crate) fn total(&self, layer: &'static str, op: &'static str) -> Total {
        self.state()
            .totals
            .get(&(layer, op))
            .copied()
            .unwrap_or_default()
    }

    /// Wall seconds inside user map functions.
    pub(crate) fn map_fn_s(&self) -> f64 {
        self.map_fn_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Wall seconds inside user reduce functions.
    pub(crate) fn reduce_fn_s(&self) -> f64 {
        self.reduce_fn_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Write every kept span as tab-separated lines, with self time (the
    /// span's duration minus the part its recorded children cover).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let s = self.state();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &s.spans {
            if span.parent != 0 {
                *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tlayer\top\tnode\tstart_ns\tend_ns\tself_ns\tvirtual_ns\tbytes"
        )?;
        for span in &s.spans {
            let dur = span.end_ns - span.start_ns;
            let self_ns = dur.saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                span.id,
                span.parent,
                span.layer,
                span.op,
                span.node,
                span.start_ns,
                span.end_ns,
                self_ns,
                span.virtual_ns,
                span.bytes
            )?;
        }
        out.flush()
    }
}

/// A [`Transport`] that forwards to the shared SimNet and records each
/// exchange under its own tag (`dht`, `provider`, `control`).
pub struct RecordingTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
    tag: &'static str,
}

impl RecordingTransport {
    /// Wrap `inner`, recording its exchanges as layer `tag`.
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>, tag: &'static str) -> Self {
        RecordingTransport { inner, tracer, tag }
    }
}

impl Transport for RecordingTransport {
    fn exchange(
        &self,
        src: NodeId,
        dst: NodeId,
        dir: Direction,
        bytes_out: u64,
        bytes_in: u64,
    ) -> SimDuration {
        let start = Instant::now();
        let cost = self.inner.exchange(src, dst, dir, bytes_out, bytes_in);
        let t = &self.tracer;
        if t.enabled() {
            let parent = t.inflight[src.0 as usize].load(Ordering::Relaxed);
            let id = t.next_id.fetch_add(1, Ordering::Relaxed);
            t.push(
                id,
                parent,
                self.tag,
                "exchange",
                src.0,
                start,
                cost.as_micros() * 1000,
                bytes_out + bytes_in,
            );
        }
        cost
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Which part of a MapReduce job a storage call serves, from its path: the
/// engine keeps spills under `<out>/_shuffle-*` and task attempts under
/// `<out>/_temporary-*`.
fn is_shuffle(path: &str) -> bool {
    path.contains("/_shuffle")
}

/// A [`DistFs`] wrapper that times every call the engine makes, as layer
/// `bsfs` (`read_at`, `write`, `close`, `namespace`) and, for data calls,
/// as `mr.fs` (`input`, `spill`, `fetch`, `output`) by path.
pub struct TracingFs {
    inner: Arc<dyn DistFs>,
    tracer: Arc<Tracer>,
    node: NodeId,
}

impl TracingFs {
    /// Wrap `inner`, attributing calls to `node`.
    pub fn new(inner: Arc<dyn DistFs>, tracer: Arc<Tracer>, node: NodeId) -> Self {
        TracingFs {
            inner,
            tracer,
            node,
        }
    }

    fn namespace<T>(&self, f: impl FnOnce() -> T) -> T {
        self.tracer.time(self.node, "bsfs", "namespace", f)
    }
}

struct TracingReader {
    inner: Box<dyn FileReader>,
    tracer: Arc<Tracer>,
    node: NodeId,
    class: &'static str,
}

impl FileReader for TracingReader {
    fn read_at(&mut self, offset: u64, len: u64) -> MrResult<Bytes> {
        let start = Instant::now();
        let out = self.tracer.time(self.node, "bsfs", "read_at", || {
            self.inner.read_at(offset, len)
        });
        self.tracer.add("mr.fs", self.class, start);
        out
    }

    fn len(&mut self) -> MrResult<u64> {
        self.inner.len()
    }
}

struct TracingWriter {
    inner: Box<dyn FileWriter>,
    tracer: Arc<Tracer>,
    node: NodeId,
    class: &'static str,
}

impl FileWriter for TracingWriter {
    fn write(&mut self, data: &[u8]) -> MrResult<()> {
        let start = Instant::now();
        let out = self
            .tracer
            .time(self.node, "bsfs", "write", || self.inner.write(data));
        self.tracer.add("mr.fs", self.class, start);
        out
    }

    fn close(&mut self) -> MrResult<()> {
        let start = Instant::now();
        let out = self
            .tracer
            .time(self.node, "bsfs", "close", || self.inner.close());
        self.tracer.add("mr.fs", self.class, start);
        out
    }
}

impl DistFs for TracingFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn create(&self, path: &str) -> MrResult<Box<dyn FileWriter>> {
        let inner = self.namespace(|| self.inner.create(path))?;
        Ok(Box::new(TracingWriter {
            inner,
            tracer: Arc::clone(&self.tracer),
            node: self.node,
            class: if is_shuffle(path) { "spill" } else { "output" },
        }))
    }

    fn open(&self, path: &str) -> MrResult<Box<dyn FileReader>> {
        let inner = self.namespace(|| self.inner.open(path))?;
        Ok(Box::new(TracingReader {
            inner,
            tracer: Arc::clone(&self.tracer),
            node: self.node,
            class: if is_shuffle(path) { "fetch" } else { "input" },
        }))
    }

    fn len(&self, path: &str) -> MrResult<u64> {
        self.namespace(|| self.inner.len(path))
    }

    fn exists(&self, path: &str) -> bool {
        self.namespace(|| self.inner.exists(path))
    }

    fn list(&self, path: &str) -> MrResult<Vec<String>> {
        self.namespace(|| self.inner.list(path))
    }

    fn mkdirs(&self, path: &str) -> MrResult<()> {
        self.namespace(|| self.inner.mkdirs(path))
    }

    fn delete(&self, path: &str, recursive: bool) -> MrResult<()> {
        self.namespace(|| self.inner.delete(path, recursive))
    }

    fn rename(&self, from: &str, to: &str) -> MrResult<()> {
        self.namespace(|| self.inner.rename(from, to))
    }

    fn locate(&self, path: &str, offset: u64, len: u64) -> MrResult<Vec<BlockHint>> {
        self.namespace(|| self.inner.locate(path, offset, len))
    }

    fn on_node(&self, node: NodeId) -> Box<dyn DistFs> {
        Box::new(TracingFs {
            inner: Arc::from(self.inner.on_node(node)),
            tracer: Arc::clone(&self.tracer),
            node,
        })
    }
}

/// A [`Mapper`] wrapper summing the wall time of the user map function.
pub struct TracingMapper {
    /// The wrapped map function.
    pub inner: Arc<dyn Mapper>,
    /// Where the time is summed.
    pub tracer: Arc<Tracer>,
}

impl Mapper for TracingMapper {
    fn map(&self, offset: u64, line: &str, emit: &mut dyn FnMut(String, String)) -> MrResult<()> {
        self.map_with_source("", offset, line, emit)
    }

    fn map_with_source(
        &self,
        path: &str,
        offset: u64,
        line: &str,
        emit: &mut dyn FnMut(String, String),
    ) -> MrResult<()> {
        let start = Instant::now();
        let out = self.inner.map_with_source(path, offset, line, emit);
        if self.tracer.enabled() {
            self.tracer
                .map_fn_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        out
    }
}

/// A [`Reducer`] wrapper summing the wall time of the user reduce function.
pub struct TracingReducer {
    /// The wrapped reduce function.
    pub inner: Arc<dyn Reducer>,
    /// Where the time is summed.
    pub tracer: Arc<Tracer>,
}

impl Reducer for TracingReducer {
    fn reduce(
        &self,
        key: &str,
        values: &[String],
        emit: &mut dyn FnMut(String, String),
    ) -> MrResult<()> {
        let start = Instant::now();
        let out = self.inner.reduce(key, values, emit);
        if self.tracer.enabled() {
            self.tracer
                .reduce_fn_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        out
    }
}
