//! `read-cold`: two reader threads, each with its own `BsfsReader` on its
//! own node, read one shared BSFS file in a closed loop: every fourth op is
//! an aligned 1 MiB scan, the rest 4 KiB point reads, all at seeded random
//! offsets.
//!
//! With 4 KiB pages a 256 MiB file's latest segment tree holds 131 071
//! nodes, twice the default metadata cache (65 536 nodes), so the working
//! set never fits the program's own cache. The load ends by dropping the
//! cached nodes, so reads start cold. Cache settings stay at their defaults.

use crate::deploy::{self, Footprint, StoreCounters};
use crate::gen::{self, Rng};
use crate::measure::{Latencies, Usage};
use crate::trace::Tracer;
use crate::{Corruption, Measured, Params, Scale, Window};
use blobseer::{BlobId, BlobSeer, BlobSeerConfig};
use bsfs::{Bsfs, BsfsConfig, BsfsReader};
use simcluster::NodeId;
use std::sync::Arc;
use std::time::Instant;
use wire::SimNet;

const PAGE: u64 = 4 * 1024;
const BLOCK: u64 = 64 * 1024;
const SCAN: u64 = 1024 * 1024;
const POINT: u64 = 4 * 1024;
const THREADS: usize = 2;
/// The measured phase is cut into this many equal windows.
const WINDOWS: usize = 5;
const PATH: &str = "/data/cold.bin";
/// Bytes handed to the writer per call while loading.
const LOAD_CHUNK: usize = 1024 * 1024;

struct Sizes {
    file_bytes: u64,
    setups: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            file_bytes: 256 * 1024 * 1024,
            setups: 3,
        },
        Scale::Tiny => Sizes {
            file_bytes: 4 * 1024 * 1024,
            setups: 2,
        },
    }
}

struct Loaded {
    net: Arc<SimNet>,
    sys: Arc<BlobSeer>,
    fs: Bsfs,
    blob: BlobId,
}

/// Deploy, write the file through BSFS from a loader node, drop the cached
/// metadata.
fn load(p: &Params, size: u64, tracer: Option<&Arc<Tracer>>) -> Result<Loaded, String> {
    let topo = deploy::topology();
    let net = deploy::simnet(&topo);
    let config = BlobSeerConfig::default()
        .with_page_size(PAGE)
        .with_page_replication(1);
    let sys = deploy::blobseer(config, &topo, &net, tracer);
    let fs = Bsfs::new(
        Arc::clone(&sys),
        BsfsConfig::default()
            .with_block_size(BLOCK)
            .with_page_size(PAGE),
    );
    let loader = fs.on_node(deploy::client_node(&topo, THREADS));
    let mut w = loader.create(PATH).map_err(|e| e.to_string())?;
    let mut buf = vec![0u8; LOAD_CHUNK];
    let mut off = 0;
    while off < size {
        let n = (size - off).min(LOAD_CHUNK as u64) as usize;
        gen::fill(p.seed, off, &mut buf[..n]);
        w.write(&buf[..n]).map_err(|e| e.to_string())?;
        off += n as u64;
    }
    w.close().map_err(|e| e.to_string())?;
    let blob = w.blob();
    sys.metadata().drop_cached_nodes();
    Ok(Loaded { net, sys, fs, blob })
}

#[derive(Default)]
struct ThreadOut {
    attempted: u64,
    failed: u64,
    bytes: u64,
    points: Latencies,
    scans: Latencies,
    mismatch: Option<String>,
}

pub fn run(p: &Params, tracer: Option<&Arc<Tracer>>) -> Result<Measured, String> {
    let sz = sizes(p.scale);
    let size = sz.file_bytes;
    let mut r = Measured {
        params: vec![
            ("threads", THREADS.to_string()),
            ("file_bytes", size.to_string()),
            ("page_bytes", PAGE.to_string()),
            ("block_bytes", BLOCK.to_string()),
            ("scan_bytes", SCAN.to_string()),
            ("point_bytes", POINT.to_string()),
            ("scan_share", "1/4".into()),
            ("setups", sz.setups.to_string()),
            ("windows", WINDOWS.to_string()),
        ],
        ..Measured::default()
    };
    let mut loaded = None;
    for _ in 0..sz.setups {
        // Release the previous deployment before loading the next, so only
        // one file is ever resident.
        drop(loaded.take());
        deploy::wait_for_teardown()?;
        let t0 = Instant::now();
        loaded = Some(load(p, size, tracer)?);
        r.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Loaded { net, sys, fs, blob } = loaded.expect("at least one set-up");
    if p.corrupt == Corruption::Read {
        // Overwrite the middle half of the file behind BSFS's back.
        let (from, len) = (size / 4, size / 2);
        let garbage = vec![0xA5u8; len as usize];
        sys.client()
            .write(blob, from, &garbage)
            .map_err(|e| e.to_string())?;
        sys.metadata().drop_cached_nodes();
    }

    let topo = deploy::topology();
    let mut readers = (0..THREADS)
        .map(|t| {
            let node = deploy::client_node(&topo, t);
            let file = fs
                .on_node(node)
                .open(PATH)
                .map_err(|e| format!("read-cold: open failed: {e}"))?;
            Ok(Reader {
                node,
                file,
                rng: Rng::new(gen::derive(p.seed, t as u64 + 1)),
                ops: 0,
                scratch: Vec::new(),
                out: ThreadOut::default(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    net.reset();
    let store0 = StoreCounters::take(&sys);
    let spawned0 = miniexec::census::spawned();
    for _ in 0..WINDOWS {
        let usage0 = Usage::now();
        let (bytes0, ops0) = totals(&readers);
        if let Some(t) = tracer {
            t.set_enabled(true);
        }
        let start = Instant::now();
        let deadline = start + p.measure / WINDOWS as u32;
        std::thread::scope(|s| {
            for rd in readers.iter_mut() {
                s.spawn(move || rd.run(size, p.seed, deadline, tracer));
            }
        });
        let took = start.elapsed().as_secs_f64();
        if let Some(t) = tracer {
            t.set_enabled(false);
        }
        let usage = Usage::now().since(&usage0);
        r.usage.add(&usage);
        r.measured_s += took;
        let (bytes, ops) = totals(&readers);
        r.windows.push(Window {
            secs: took,
            bytes: bytes - bytes0,
            ops: ops - ops0,
            cpu_s: usage.user_s + usage.sys_s,
        });
        if let Some(err) = readers.iter_mut().find_map(|rd| rd.out.mismatch.take()) {
            return Err(err);
        }
    }
    r.census_spawned = (miniexec::census::spawned() - spawned0) as u64;
    r.virtual_s = net.makespan().as_secs_f64();
    r.store = StoreCounters::take(&sys).since(&store0);
    r.footprint = Footprint::take(&sys);
    for rd in readers {
        let (out, c) = (rd.out, rd.file.cache_stats());
        r.attempted += out.attempted;
        r.failed += out.failed;
        r.user_bytes += out.bytes;
        r.primary.extend(out.points);
        r.secondary.extend(out.scans);
        r.bsfs_cache_hits += c.hits;
        r.bsfs_cache_misses += c.misses;
        r.bsfs_bytes_loaded += c.bytes_loaded;
    }
    Ok(r)
}

/// Bytes read and operations completed so far by all readers.
fn totals(readers: &[Reader]) -> (u64, u64) {
    readers.iter().fold((0, 0), |(b, o), rd| {
        (b + rd.out.bytes, o + rd.out.attempted - rd.out.failed)
    })
}

/// One load thread's reader and loop state, kept across windows.
struct Reader {
    node: NodeId,
    file: BsfsReader,
    rng: Rng,
    ops: u64,
    scratch: Vec<u8>,
    out: ThreadOut,
}

impl Reader {
    /// The closed loop until `deadline`; every byte read is checked against
    /// the generator of `content`.
    fn run(&mut self, size: u64, content: u64, deadline: Instant, tracer: Option<&Arc<Tracer>>) {
        while Instant::now() < deadline {
            let scan = self.ops.is_multiple_of(4);
            self.ops += 1;
            let (offset, len) = if scan {
                (self.rng.below(size / SCAN) * SCAN, SCAN)
            } else {
                (self.rng.below(size - POINT + 1), POINT)
            };
            self.out.attempted += 1;
            let span = tracer.map(|t| t.op(self.node, "bsfs", "read_at"));
            let op = Instant::now();
            let got = self.file.read_at(offset, len);
            let took = op.elapsed();
            drop(span);
            let Ok(data) = got else {
                self.out.failed += 1;
                continue;
            };
            if !gen::matches(content, offset, &data, &mut self.scratch) {
                self.out.mismatch = Some(format!(
                    "read-cold: {len} bytes at offset {offset} differ from what was written"
                ));
                return;
            }
            self.out.bytes += len;
            if scan {
                self.out.scans.push(took);
            } else {
                self.out.points.push(took);
            }
        }
    }
}
