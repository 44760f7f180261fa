//! The cluster every workload runs on, and the counters read from it.

use crate::trace::{RecordingTransport, Tracer};
use blobseer::{BlobSeer, BlobSeerConfig};
use simcluster::{ClusterTopology, NetworkModel, NodeId, WallClock};
use std::sync::Arc;
use wire::{SimNet, Transport};

/// Data providers (and, for `mr-mix`, tasktrackers): nodes 0..8, the first
/// two racks.
pub(crate) const PROVIDERS: usize = 8;

/// One site of three racks of four nodes: providers fill racks 0 and 1, the
/// benchmark's clients sit in rack 2, so every client exchange crosses the
/// rack uplinks.
pub fn topology() -> ClusterTopology {
    ClusterTopology::builder()
        .sites(1)
        .racks_per_site(3)
        .nodes_per_rack(4)
        .build()
}

/// The nodes hosting providers.
pub(crate) fn provider_nodes(topo: &ClusterTopology) -> Vec<NodeId> {
    topo.all_nodes().take(PROVIDERS).collect()
}

/// The node of load thread `i` (rack 2).
pub(crate) fn client_node(topo: &ClusterTopology, i: usize) -> NodeId {
    topo.node((PROVIDERS + i) as u32)
}

/// A fresh simulated network over `topo`.
pub(crate) fn simnet(topo: &ClusterTopology) -> Arc<SimNet> {
    Arc::new(SimNet::new(topo.clone(), NetworkModel::grid5000_like()))
}

/// `net` as a transport; in a traced pass, wrapped to record under `tag`.
pub(crate) fn transport(
    net: &Arc<SimNet>,
    tracer: Option<&Arc<Tracer>>,
    tag: &'static str,
) -> Arc<dyn Transport> {
    let inner = Arc::clone(net) as Arc<dyn Transport>;
    match tracer {
        Some(t) => Arc::new(RecordingTransport::new(inner, Arc::clone(t), tag)),
        None => inner,
    }
}

/// A BlobSeer deployment on the provider nodes, charging `net`. In a traced
/// pass the metadata DHT is re-attached to a second recorder with the same
/// placement and home that `with_transport` gives it, so DHT and provider
/// exchanges carry separate tags.
pub(crate) fn blobseer(
    config: BlobSeerConfig,
    topo: &ClusterTopology,
    net: &Arc<SimNet>,
    tracer: Option<&Arc<Tracer>>,
) -> Arc<BlobSeer> {
    let nodes = provider_nodes(topo);
    let sys = BlobSeer::with_transport(
        config.with_providers(PROVIDERS),
        topo,
        &nodes,
        Arc::new(WallClock::new()),
        transport(net, tracer, "provider"),
    );
    if tracer.is_some() {
        sys.metadata()
            .dht()
            .attach_wire(transport(net, tracer, "dht"), nodes.clone(), nodes[0]);
    }
    sys
}

/// Monotonic counters of one deployment's storage layers.
#[derive(Debug, Clone, Default)]
pub struct StoreCounters {
    pub vm_lock_acquisitions: u64,
    pub vm_contended: u64,
    pub vm_cond_waits: u64,
    pub vm_notifies: u64,
    pub vm_reservations: u64,
    pub vm_commits: u64,
    pub meta_nodes_written: u64,
    pub meta_batch_flushes: u64,
    pub meta_nodes_read: u64,
    pub meta_batch_lookups: u64,
    pub meta_cache_hits: u64,
    pub meta_cache_misses: u64,
    pub dht_read_messages: u64,
    pub dht_write_messages: u64,
    pub dht_retries: u64,
    pub dht_bytes_on_wire: u64,
    pub provider_messages: u64,
    pub provider_bytes_on_wire: u64,
    /// `bytes_written` of each provider, by provider index.
    pub provider_bytes_written: Vec<u64>,
}

impl StoreCounters {
    /// Read every counter of `sys` now.
    pub(crate) fn take(sys: &BlobSeer) -> StoreCounters {
        let vm = sys.version_manager();
        let contention = vm.contention_stats();
        let meta = sys.metadata().stats();
        let dht = sys.metadata().dht();
        let dht_wire = dht.wire_counters().snapshot();
        let prov_wire = sys.provider_wire().snapshot();
        StoreCounters {
            vm_lock_acquisitions: contention.lock_acquisitions,
            vm_contended: contention.contended_acquisitions,
            vm_cond_waits: contention.cond_waits,
            vm_notifies: contention.notifies,
            vm_reservations: vm.reservation_count(),
            vm_commits: vm.commit_count(),
            meta_nodes_written: meta.nodes_written,
            meta_batch_flushes: meta.batch_flushes,
            meta_nodes_read: meta.nodes_read,
            meta_batch_lookups: meta.batch_lookups,
            meta_cache_hits: meta.cache_hits,
            meta_cache_misses: meta.cache_misses,
            dht_read_messages: dht_wire.read_messages,
            dht_write_messages: dht_wire.write_messages,
            dht_retries: dht.retries(),
            dht_bytes_on_wire: dht_wire.bytes_on_wire,
            provider_messages: prov_wire.messages,
            provider_bytes_on_wire: prov_wire.bytes_on_wire,
            provider_bytes_written: sys
                .provider_manager()
                .providers()
                .iter()
                .map(|p| p.stats().bytes_written)
                .collect(),
        }
    }

    /// The counts accrued since `earlier`.
    pub(crate) fn since(&self, earlier: &StoreCounters) -> StoreCounters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        StoreCounters {
            vm_lock_acquisitions: d(self.vm_lock_acquisitions, earlier.vm_lock_acquisitions),
            vm_contended: d(self.vm_contended, earlier.vm_contended),
            vm_cond_waits: d(self.vm_cond_waits, earlier.vm_cond_waits),
            vm_notifies: d(self.vm_notifies, earlier.vm_notifies),
            vm_reservations: d(self.vm_reservations, earlier.vm_reservations),
            vm_commits: d(self.vm_commits, earlier.vm_commits),
            meta_nodes_written: d(self.meta_nodes_written, earlier.meta_nodes_written),
            meta_batch_flushes: d(self.meta_batch_flushes, earlier.meta_batch_flushes),
            meta_nodes_read: d(self.meta_nodes_read, earlier.meta_nodes_read),
            meta_batch_lookups: d(self.meta_batch_lookups, earlier.meta_batch_lookups),
            meta_cache_hits: d(self.meta_cache_hits, earlier.meta_cache_hits),
            meta_cache_misses: d(self.meta_cache_misses, earlier.meta_cache_misses),
            dht_read_messages: d(self.dht_read_messages, earlier.dht_read_messages),
            dht_write_messages: d(self.dht_write_messages, earlier.dht_write_messages),
            dht_retries: d(self.dht_retries, earlier.dht_retries),
            dht_bytes_on_wire: d(self.dht_bytes_on_wire, earlier.dht_bytes_on_wire),
            provider_messages: d(self.provider_messages, earlier.provider_messages),
            provider_bytes_on_wire: d(self.provider_bytes_on_wire, earlier.provider_bytes_on_wire),
            provider_bytes_written: self
                .provider_bytes_written
                .iter()
                .zip(
                    earlier
                        .provider_bytes_written
                        .iter()
                        .chain(std::iter::repeat(&0)),
                )
                .map(|(a, b)| d(*a, *b))
                .collect(),
        }
    }

    /// Add the counts of another measured piece.
    pub fn add(&mut self, o: &StoreCounters) {
        self.vm_lock_acquisitions += o.vm_lock_acquisitions;
        self.vm_contended += o.vm_contended;
        self.vm_cond_waits += o.vm_cond_waits;
        self.vm_notifies += o.vm_notifies;
        self.vm_reservations += o.vm_reservations;
        self.vm_commits += o.vm_commits;
        self.meta_nodes_written += o.meta_nodes_written;
        self.meta_batch_flushes += o.meta_batch_flushes;
        self.meta_nodes_read += o.meta_nodes_read;
        self.meta_batch_lookups += o.meta_batch_lookups;
        self.meta_cache_hits += o.meta_cache_hits;
        self.meta_cache_misses += o.meta_cache_misses;
        self.dht_read_messages += o.dht_read_messages;
        self.dht_write_messages += o.dht_write_messages;
        self.dht_retries += o.dht_retries;
        self.dht_bytes_on_wire += o.dht_bytes_on_wire;
        self.provider_messages += o.provider_messages;
        self.provider_bytes_on_wire += o.provider_bytes_on_wire;
        if self.provider_bytes_written.len() < o.provider_bytes_written.len() {
            self.provider_bytes_written
                .resize(o.provider_bytes_written.len(), 0);
        }
        for (a, b) in self
            .provider_bytes_written
            .iter_mut()
            .zip(&o.provider_bytes_written)
        {
            *a += b;
        }
    }
}

/// What a deployment holds and what its clients wrote into it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Footprint {
    /// Σ `ProviderStats::stored_bytes`.
    pub provider_stored: u64,
    /// `DhtStats::total_bytes` (metadata, all replicas).
    pub dht_stored: u64,
    /// Bytes clients wrote (`BlobSeerStats::bytes_written`, before
    /// replication).
    pub user_written: u64,
}

impl Footprint {
    /// Read the footprint of `sys` now.
    pub(crate) fn take(sys: &BlobSeer) -> Footprint {
        Footprint {
            provider_stored: sys
                .provider_manager()
                .providers()
                .iter()
                .map(|p| p.stats().stored_bytes)
                .sum(),
            dht_stored: sys.metadata().dht().stats().total_bytes,
            user_written: sys.stats().bytes_written,
        }
    }

    /// Add another deployment's footprint.
    pub fn add(&mut self, o: &Footprint) {
        self.provider_stored += o.provider_stored;
        self.dht_stored += o.dht_stored;
        self.user_written += o.user_written;
    }
}

/// Wait until every system thread but the executor pool has exited: the
/// actors of a dropped deployment free its memory on their own threads, so
/// the next set-up must not start before they are gone, or its peak memory
/// would depend on how the two overlapped.
pub(crate) fn wait_for_teardown() -> Result<(), String> {
    miniexec::block_on(|| ());
    let floor = miniexec::worker_count();
    let start = std::time::Instant::now();
    loop {
        let live = miniexec::census::live();
        if live <= floor {
            return Ok(());
        }
        if start.elapsed() > std::time::Duration::from_secs(20) {
            return Err(format!(
                "{} system threads still live after teardown",
                live - floor
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
