//! Read-path correctness: the frontier-batched BFS `lookup_range` must be
//! byte-identical to the retained node-at-a-time reference walk on arbitrary
//! trees, the immutable-node metadata cache must never change what a reader
//! sees (only how fast it sees it), per-page replica failover must survive
//! the parallel page fetch pool, and the BSFS block cache must fetch each run
//! of missing blocks with one BlobSeer read.

use blobseer::metadata::segment_tree::{build_version, lookup_range, lookup_range_walk, PrevTree};
use blobseer::metadata::store::MetadataStore;
use blobseer::types::next_power_of_two;
use blobseer::{BlobId, BlobSeer, BlobSeerConfig, BlobSeerError, ProviderId, Version};
use bsfs::{Bsfs, BsfsConfig};
use proptest::prelude::*;
use simcluster::{ClusterTopology, NetworkModel, WallClock};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;
use wire::SimNet;

/// Build the tree version sequence described by `writes` (one inner vec of
/// `(page, provider)` pairs per version) and return each version's root and
/// span. Page indices are taken modulo a growing span so trees both overwrite
/// and grow; duplicate pages within one write collapse (last provider wins).
fn build_tree_sequence(
    store: &MetadataStore,
    blob: BlobId,
    writes: &[Vec<(u64, u32)>],
) -> Vec<(blobseer::metadata::NodeKey, u64)> {
    let mut prev = PrevTree::empty();
    let mut roots = Vec::new();
    for (v, write) in writes.iter().enumerate() {
        let version = Version(v as u64 + 1);
        // Grow the span with the version index so early versions are small
        // trees and later ones force wrapper extension of the previous root.
        let span = next_power_of_two(prev.span.max(v as u64 + 1));
        let mut pages: BTreeMap<u64, Vec<ProviderId>> = BTreeMap::new();
        for &(page, provider) in write {
            pages.insert(page % span, vec![ProviderId(provider)]);
        }
        if pages.is_empty() {
            pages.insert(0, vec![ProviderId(0)]);
        }
        let root = build_version(store, blob, version, prev, span, &pages).unwrap();
        roots.push((root, span));
        prev = PrevTree {
            root: Some(root),
            span,
        };
    }
    roots
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched BFS descent and the node-at-a-time walk return identical
    /// `PageMeta` vectors for every version of a random tree and every query
    /// range, holes and beyond-span pages included — with and without the
    /// client-side cache in front of the DHT.
    #[test]
    fn batched_lookup_is_byte_identical_to_the_reference_walk(
        writes in prop::collection::vec(
            prop::collection::vec((0u64..16, 0u32..8), 1..6),
            1..8,
        ),
        queries in prop::collection::vec((0u64..20, 0u64..20), 1..8),
    ) {
        let cached = MetadataStore::new(3, 2).with_node_cache(256);
        let plain = MetadataStore::new(3, 2);
        let roots_cached = build_tree_sequence(&cached, BlobId(1), &writes);
        let roots_plain = build_tree_sequence(&plain, BlobId(1), &writes);

        for ((root_c, span_c), (root_p, span_p)) in roots_cached.iter().zip(&roots_plain) {
            prop_assert_eq!(span_c, span_p);
            for &(a, b) in &queries {
                let (first, last) = (a.min(b), a.max(b));
                let walk = lookup_range_walk(&plain, Some(*root_p), *span_p, first, last).unwrap();
                let bfs_plain = lookup_range(&plain, Some(*root_p), *span_p, first, last).unwrap();
                let bfs_cached = lookup_range(&cached, Some(*root_c), *span_c, first, last).unwrap();
                prop_assert_eq!(&walk, &bfs_plain);
                prop_assert_eq!(&walk, &bfs_cached);
                prop_assert_eq!(walk.len() as u64, last - first + 1);
            }
        }
        // Repeating the cached lookups hits the cache, never the DHT again,
        // and still agrees with the walk.
        let dht_reads_before = cached.stats().dht_read_round_trips;
        for ((root_c, span_c), (root_p, span_p)) in roots_cached.iter().zip(&roots_plain) {
            for &(a, b) in &queries {
                let (first, last) = (a.min(b), a.max(b));
                let walk = lookup_range_walk(&plain, Some(*root_p), *span_p, first, last).unwrap();
                let again = lookup_range(&cached, Some(*root_c), *span_c, first, last).unwrap();
                prop_assert_eq!(walk, again);
            }
        }
        prop_assert_eq!(cached.stats().dht_read_round_trips, dht_reads_before);
    }
}

/// Reading an old version after many later overwrites returns the old bytes
/// (immutable snapshots) and is served from the metadata cache.
#[test]
fn old_versions_read_identically_through_the_cache() {
    let sys = BlobSeer::new(
        BlobSeerConfig::for_tests()
            .with_providers(6)
            .with_page_size(32),
    );
    let client = sys.client();
    let blob = client.create(Some(32)).unwrap();
    let original: Vec<u8> = (0..32 * 8).map(|i| (i % 247) as u8).collect();
    let v1 = client.write(blob, 0, &original).unwrap();

    // Ten generations of partial overwrites on top.
    for g in 0..10u64 {
        let patch = vec![0xF0 | g as u8; 64];
        client.write(blob, (g % 4) * 64, &patch).unwrap();
    }

    let before = sys.metadata().stats();
    let got = client.read(blob, v1, 0, original.len() as u64).unwrap();
    assert_eq!(got, original, "v1 must read exactly as written");
    let after = sys.metadata().stats();
    assert!(
        after.cache_hits > before.cache_hits,
        "the v1 tree descent should be answered from the cache"
    );
    assert_eq!(
        after.dht_read_round_trips, before.dht_read_round_trips,
        "a fully cached descent performs no DHT reads"
    );

    // The same read with a cache-disabled deployment (the ablation config)
    // agrees byte for byte, so the cache changes cost, not content.
    let sys2 = BlobSeer::new(
        BlobSeerConfig::for_tests()
            .with_providers(6)
            .with_page_size(32)
            .with_metadata_cache(false),
    );
    let client2 = sys2.client();
    let blob2 = client2.create(Some(32)).unwrap();
    let v1b = client2.write(blob2, 0, &original).unwrap();
    for g in 0..10u64 {
        let patch = vec![0xF0 | g as u8; 64];
        client2.write(blob2, (g % 4) * 64, &patch).unwrap();
    }
    assert_eq!(
        client2.read(blob2, v1b, 0, original.len() as u64).unwrap(),
        got
    );
    assert_eq!(sys2.metadata().stats().cache_hits, 0);
}

/// Killing the primary replica of every page must not break a multi-page
/// read fanned out over the parallel fetch pool: failover happens per page,
/// inside each worker.
#[test]
fn parallel_page_fetch_fails_over_dead_replicas() {
    let sys = BlobSeer::new(
        BlobSeerConfig::for_tests()
            .with_providers(8)
            .with_page_replication(2)
            .with_io_parallelism(6)
            .with_page_size(64),
    );
    let client = sys.client();
    let blob = client.create(Some(64)).unwrap();
    let data: Vec<u8> = (0..64 * 16).map(|i| (i * 13 % 251) as u8).collect();
    let v = client.write(blob, 0, &data).unwrap();

    // Kill the preferred replica of every page.
    for loc in client.locate(blob, v, 0, data.len() as u64).unwrap() {
        sys.provider_manager().kill(loc.providers[0]);
    }
    assert_eq!(
        client.read(blob, v, 0, data.len() as u64).unwrap(),
        data,
        "parallel fetch must fail over to surviving replicas"
    );

    // Kill everything: the pooled read surfaces a clean per-page error.
    for p in sys.provider_manager().providers() {
        p.kill();
    }
    assert!(matches!(
        client.read(blob, v, 0, data.len() as u64),
        Err(BlobSeerError::PageUnavailable { .. })
    ));
}

/// An LRU model of the BSFS block cache: counts the maximal runs of blocks
/// of `[first, last]` it does not hold, then touches those blocks in order.
struct LruModel {
    capacity: usize,
    blocks: VecDeque<u64>,
}

impl LruModel {
    fn read(&mut self, first: u64, last: u64) -> u64 {
        let missing: Vec<bool> = (first..=last).map(|b| !self.blocks.contains(&b)).collect();
        let runs = (0..missing.len())
            .filter(|&i| missing[i] && (i == 0 || !missing[i - 1]))
            .count() as u64;
        for b in first..=last {
            self.blocks.retain(|&x| x != b);
            if self.blocks.len() == self.capacity {
                self.blocks.pop_front();
            }
            self.blocks.push_back(b);
        }
        runs
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random positioned reads of a ten-block file with a partial tail,
    /// through caches of one, two and four blocks, return the written bytes
    /// and cost exactly one BlobSeer read per maximal run of missing blocks.
    #[test]
    fn block_cache_loads_each_missing_run_with_one_blobseer_read(
        reads in prop::collection::vec((0u64..2381, 1u64..1200), 1..16),
    ) {
        const BLOCK: u64 = 256;
        const SIZE: u64 = 9 * BLOCK + 77;
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(64));
        let data: Vec<u8> = (0..SIZE).map(|i| (i * 31 % 251) as u8).collect();
        for capacity in [1usize, 2, 4] {
            let mut config = BsfsConfig::for_tests()
                .with_block_size(BLOCK)
                .with_page_size(64);
            config.read_cache_blocks = capacity;
            let fs = Bsfs::new(Arc::clone(&storage), config);
            let path = format!("/cap-{capacity}");
            fs.write_file(&path, &data).unwrap();
            let mut reader = fs.open(&path).unwrap();
            let mut model = LruModel { capacity, blocks: VecDeque::new() };
            for &(offset, len) in &reads {
                let len = len.min(SIZE - offset);
                let before = storage.stats().read_ops;
                let got = reader.read_at(offset, len).unwrap();
                prop_assert_eq!(&got[..], &data[offset as usize..(offset + len) as usize]);
                let runs = model.read(offset / BLOCK, (offset + len - 1) / BLOCK);
                prop_assert_eq!(storage.stats().read_ops - before, runs);
            }
        }
    }
}

/// A cold BSFS read of sixteen blocks over a SimNet deployment with eight
/// providers is one BlobSeer read: one metadata descent (one batch per tree
/// level) and at most one provider exchange per provider holding its pages.
#[test]
fn cold_multi_block_read_is_one_descent_and_one_exchange_per_provider() {
    const PAGE: u64 = 128;
    const BLOCK: u64 = 1024;
    const BLOCKS: u64 = 16;
    let topo = ClusterTopology::builder()
        .sites(1)
        .racks_per_site(3)
        .nodes_per_rack(4)
        .build();
    let providers: Vec<_> = topo.all_nodes().take(8).collect();
    let net = Arc::new(SimNet::new(topo.clone(), NetworkModel::grid5000_like()));
    let sys = BlobSeer::with_transport(
        BlobSeerConfig::for_tests()
            .with_page_size(PAGE)
            .with_providers(8),
        &topo,
        &providers,
        Arc::new(WallClock::new()),
        net,
    );
    let fs = Bsfs::new(
        Arc::clone(&sys),
        BsfsConfig::for_tests()
            .with_block_size(BLOCK)
            .with_page_size(PAGE),
    )
    .on_node(topo.node(8));
    let len = BLOCKS * BLOCK;
    let data: Vec<u8> = (0..len).map(|i| (i * 7 % 253) as u8).collect();
    fs.write_file("/scan", &data).unwrap();
    let holders: HashSet<_> = fs
        .locate("/scan", 0, len)
        .unwrap()
        .iter()
        .map(|l| l.nodes[0])
        .collect();
    sys.metadata().drop_cached_nodes();

    let mut reader = fs.open("/scan").unwrap();
    let wire_before = sys.provider_wire().snapshot();
    let meta_before = sys.metadata().stats();
    assert_eq!(reader.read_at(0, len).unwrap().to_vec(), data);
    let exchanges = sys
        .provider_wire()
        .snapshot()
        .since(&wire_before)
        .read_messages;
    let lookups = sys.metadata().stats().batch_lookups - meta_before.batch_lookups;

    let depth = (len / PAGE).trailing_zeros() as u64;
    assert!(
        exchanges <= holders.len() as u64,
        "{exchanges} provider exchanges for pages on {} providers",
        holders.len()
    );
    assert!(
        lookups <= depth + 1,
        "{lookups} metadata batches for a tree of depth {depth}"
    );
}
