//! `append-shared`: two client threads, each on its own node, append fixed
//! 64 KiB records to one shared blob in a closed loop (the paper's F1). The
//! version manager's predecessor ordering, the segment-tree build and
//! publish, and the replica page pushes do the work; nothing reads.
//!
//! The shared blob is capped at `epoch_records` records: the deployment is
//! then checked, dropped and rebuilt, so memory stays bounded however fast
//! the program appends. Each rebuild is one set-up sample.

use crate::deploy::{self, Footprint, StoreCounters};
use crate::gen::{self, Rng};
use crate::measure::{Latencies, Usage};
use crate::trace::Tracer;
use crate::{Measured, Params, Scale, Window};
use blobseer::{BlobId, BlobSeerClient, BlobSeerConfig, Version};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const RECORD: usize = 64 * 1024;
const PAGE: u64 = 16 * 1024;
const REPLICATION: usize = 2;
const THREADS: usize = 2;
/// Versions read back per epoch, besides the full final content.
const SAMPLED_VERSIONS: usize = 8;

struct Sizes {
    epoch_records: u64,
    warmup_records: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            epoch_records: 512,
            warmup_records: 32,
        },
        Scale::Tiny => Sizes {
            epoch_records: 24,
            warmup_records: 4,
        },
    }
}

/// One successful append: the version it produced and the key of its record.
#[derive(Clone, Copy)]
struct Entry {
    version: Version,
    key: u64,
}

#[derive(Default)]
struct ThreadOut {
    attempted: u64,
    failed: u64,
    latencies: Latencies,
    log: Vec<Entry>,
}

pub fn run(p: &Params, tracer: Option<&Arc<Tracer>>) -> Result<Measured, String> {
    let sz = sizes(p.scale);
    let topo = deploy::topology();
    let nodes: Vec<_> = (0..THREADS)
        .map(|i| deploy::client_node(&topo, i))
        .collect();
    let mut r = Measured {
        params: vec![
            ("threads", THREADS.to_string()),
            ("record_bytes", RECORD.to_string()),
            ("page_bytes", PAGE.to_string()),
            ("page_replication", REPLICATION.to_string()),
            ("epoch_records", sz.epoch_records.to_string()),
            ("warmup_records", sz.warmup_records.to_string()),
        ],
        ..Measured::default()
    };
    let mut epoch = 0u64;
    while r.measured_s < p.measure.as_secs_f64() {
        // Set-up: a fresh deployment and shared blob, warmed by a few
        // appends from both clients.
        deploy::wait_for_teardown()?;
        let t0 = Instant::now();
        let net = deploy::simnet(&topo);
        let config = BlobSeerConfig::default()
            .with_page_size(PAGE)
            .with_page_replication(REPLICATION);
        let sys = deploy::blobseer(config, &topo, &net, tracer);
        let clients: Vec<BlobSeerClient> = nodes.iter().map(|n| sys.client_on(*n)).collect();
        let blob = clients[0].create(None).map_err(|e| e.to_string())?;
        let epoch_key = gen::derive(p.seed, epoch);
        let mut log = Vec::new();
        let mut buf = vec![0u8; RECORD];
        for i in 0..sz.warmup_records {
            let key = gen::derive(epoch_key, i);
            gen::fill(key, 0, &mut buf);
            let version = clients[i as usize % THREADS]
                .append(blob, &buf)
                .map_err(|e| format!("warm-up append: {e}"))?;
            log.push(Entry { version, key });
        }
        r.setup_s.push(t0.elapsed().as_secs_f64());

        // Measured phase: both threads append until the epoch's quota of
        // records is used up.
        net.reset();
        let store0 = StoreCounters::take(&sys);
        let usage0 = Usage::now();
        let spawned0 = miniexec::census::spawned();
        let remaining = AtomicU64::new(sz.epoch_records);
        let next_seq = AtomicU64::new(sz.warmup_records);
        let barrier = Barrier::new(THREADS);
        if let Some(t) = tracer {
            t.set_enabled(true);
        }
        let start = Instant::now();
        let outs: Vec<ThreadOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let client = &clients[t];
                    let (remaining, next_seq, barrier) = (&remaining, &next_seq, &barrier);
                    s.spawn(move || {
                        let mut out = ThreadOut::default();
                        let mut buf = vec![0u8; RECORD];
                        barrier.wait();
                        while remaining
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                            .is_ok()
                        {
                            let key =
                                gen::derive(epoch_key, next_seq.fetch_add(1, Ordering::SeqCst));
                            gen::fill(key, 0, &mut buf);
                            out.attempted += 1;
                            let _span = tracer.map(|t| t.op(client.node(), "client", "append"));
                            let op = Instant::now();
                            match client.append(blob, &buf) {
                                Ok(version) => {
                                    out.latencies.push(op.elapsed());
                                    out.log.push(Entry { version, key });
                                }
                                Err(_) => out.failed += 1,
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("append thread panicked"))
                .collect()
        });
        let took = start.elapsed().as_secs_f64();
        if let Some(t) = tracer {
            t.set_enabled(false);
        }
        let usage = Usage::now().since(&usage0);
        r.usage.add(&usage);
        r.measured_s += took;
        let appended: u64 = outs.iter().map(|o| o.log.len() as u64).sum();
        r.windows.push(Window {
            secs: took,
            bytes: appended * RECORD as u64,
            ops: appended,
            cpu_s: usage.user_s + usage.sys_s,
        });
        r.census_spawned += (miniexec::census::spawned() - spawned0) as u64;
        r.virtual_s += net.makespan().as_secs_f64();
        r.store.add(&StoreCounters::take(&sys).since(&store0));
        for out in outs {
            r.attempted += out.attempted;
            r.failed += out.failed;
            r.user_bytes += out.log.len() as u64 * RECORD as u64;
            r.primary.extend(out.latencies);
            log.extend(out.log);
        }
        verify(&clients[0], blob, &log, gen::derive(epoch_key, u64::MAX))?;
        r.footprint.add(&Footprint::take(&sys));
        epoch += 1;
    }
    r.params.push(("epochs", epoch.to_string()));
    Ok(r)
}

/// Check an epoch's blob: its size is the sum of the appends, every record
/// sits where its version says, and a sample of versions reads back
/// correctly.
fn verify(client: &BlobSeerClient, blob: BlobId, log: &[Entry], seed: u64) -> Result<(), String> {
    let rec = RECORD as u64;
    let size = client.size(blob).map_err(|e| e.to_string())?;
    if size != log.len() as u64 * rec {
        return Err(format!(
            "append-shared: blob holds {size} bytes, the {} appends wrote {}",
            log.len(),
            log.len() as u64 * rec
        ));
    }
    // The record of version v ends at v's size.
    let mut at: Vec<Option<u64>> = vec![None; log.len()];
    let mut offset_of = Vec::with_capacity(log.len());
    for e in log {
        let info = client
            .version_info(blob, e.version)
            .map_err(|err| err.to_string())?;
        let slot = (info.size / rec)
            .checked_sub(1)
            .filter(|s| info.size % rec == 0 && (*s as usize) < at.len())
            .ok_or_else(|| {
                format!(
                    "append-shared: version {} has size {}",
                    e.version, info.size
                )
            })?;
        if at[slot as usize].replace(e.key).is_some() {
            return Err(format!(
                "append-shared: two appends claim record slot {slot}"
            ));
        }
        offset_of.push(slot * rec);
    }
    let mut scratch = Vec::new();
    let data = client
        .read_latest(blob, 0, size)
        .map_err(|e| e.to_string())?;
    for (slot, key) in at.iter().enumerate() {
        let key = key.expect("every slot is claimed: counts match and slots are distinct");
        let range = slot * RECORD..(slot + 1) * RECORD;
        if !gen::matches(key, 0, &data[range], &mut scratch) {
            return Err(format!(
                "append-shared: record {slot} of the final version is wrong"
            ));
        }
    }
    let mut rng = Rng::new(seed);
    for _ in 0..SAMPLED_VERSIONS.min(log.len()) {
        let i = rng.below(log.len() as u64) as usize;
        let e = log[i];
        let got = client
            .read(blob, e.version, offset_of[i], rec)
            .map_err(|err| err.to_string())?;
        if !gen::matches(e.key, 0, &got, &mut scratch) {
            return Err(format!(
                "append-shared: version {} reads back wrong",
                e.version
            ));
        }
    }
    Ok(())
}
