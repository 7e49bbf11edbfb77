//! End-to-end guarantees of the batched I/O pipeline: the windowed
//! scheduler must be a pure *timing* optimization — responses, storage
//! access patterns, and the once-per-period invariant are all
//! byte-identical to the sequential per-block path, at any shard count,
//! with or without the block cache, on either position map.

use horam::analysis::leakage::once_per_period;
use horam::core::engine::OramEngine;
use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::storage_layer::LoadPlan;
use horam::core::StorageLayer;
use horam::crypto::keys::KeyHierarchy;
use horam::prelude::*;
use horam::storage::cache::CacheConfig;
use horam::storage::calibration::{device_ids, MachineConfig};
use horam::storage::clock::SimClock;
use horam_server::{FairSharePolicy, OramService, ServiceConfig};

use horam::core::{Permission, UserId};
use horam::crypto::rng::DeterministicRng;
use rand::Rng;

/// One engine shape the windowed-vs-per-block comparison sweeps.
#[derive(Clone, Copy, Debug)]
struct Shape {
    shards: u64,
    cached: bool,
    recursive: bool,
}

const PLAIN: Shape = Shape {
    shards: 1,
    cached: false,
    recursive: false,
};

fn config(shape: Shape, io_batch: u64) -> HOramConfig {
    let mut config = HOramConfig::new(512, 8, 128)
        .with_seed(23)
        .with_io_batch(io_batch);
    if shape.cached {
        config = config.with_cache(CacheConfig::lru(32));
    }
    if shape.recursive {
        config = config.with_recursive_posmap(None, 4);
    }
    config
}

fn build(io_batch: u64) -> HOram {
    HOram::new(
        config(PLAIN, io_batch),
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([5u8; 32]),
    )
    .expect("construction succeeds")
}

fn build_sharded(shape: Shape, io_batch: u64) -> ShardedOram {
    ShardedOram::new(
        ShardedConfig::new(config(shape, io_batch), shape.shards),
        MasterKey::from_bytes([5u8; 32]),
        |_| MemoryHierarchy::dac2019(),
    )
    .expect("sharded construction succeeds")
}

/// What one run of a shape exposes: responses, the storage-address
/// sequence of every shard, and the aggregate statistics.
fn run_shape(
    shape: Shape,
    io_batch: u64,
    requests: &[Request],
) -> (Vec<Vec<u8>>, Vec<Vec<u64>>, HOramStats) {
    if shape.shards == 1 {
        let mut oram = HOram::new(
            config(shape, io_batch),
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([5u8; 32]),
        )
        .expect("construction succeeds");
        let responses = oram.run_batch(requests).expect("run");
        let addrs = vec![oram.trace().address_sequence(device_ids::STORAGE)];
        (responses, addrs, oram.stats())
    } else {
        let mut oram = build_sharded(shape, io_batch);
        let responses = oram.run_batch(requests).expect("run");
        let addrs = oram
            .shards()
            .iter()
            .map(|shard| shard.trace().address_sequence(device_ids::STORAGE))
            .collect();
        (responses, addrs, oram.stats())
    }
}

fn mixed_workload(len: usize) -> Vec<Request> {
    let mut rng = DeterministicRng::from_u64_seed(77);
    (0..len)
        .map(|_| {
            let id = rng.gen_range(0..512u64);
            if rng.gen_bool(0.25) {
                Request::write(id, vec![rng.gen::<u8>(); 8])
            } else {
                Request::read(id)
            }
        })
        .collect()
}

/// Batched windows and the per-block path are observably identical: same
/// responses, same storage-device access sequence on every shard, same
/// load counts — only simulated I/O time differs. Swept over 1 and 4
/// shards × cache off/on × flat/recursive position map.
#[test]
fn batched_pipeline_is_observably_identical_to_per_block() {
    let requests = mixed_workload(400);
    for shards in [1, 4] {
        for cached in [false, true] {
            for recursive in [false, true] {
                let shape = Shape {
                    shards,
                    cached,
                    recursive,
                };
                let (seq_responses, seq_addrs, seq) = run_shape(shape, 1, &requests);
                let (bat_responses, bat_addrs, bat) = run_shape(shape, 32, &requests);
                assert_eq!(
                    seq_responses, bat_responses,
                    "{shape:?}: responses diverged"
                );
                assert_eq!(
                    seq_addrs, bat_addrs,
                    "{shape:?}: storage access patterns diverged"
                );
                assert!(seq.shuffles >= 1, "{shape:?}: must cross a shuffle period");
                assert_eq!(seq.total_io_loads(), bat.total_io_loads(), "{shape:?}");
                assert_eq!(seq.real_io_loads, bat.real_io_loads, "{shape:?}");
                assert_eq!(seq.shuffles, bat.shuffles, "{shape:?}");
                assert!(
                    bat.io_time < seq.io_time,
                    "{shape:?}: batching must win simulated I/O time"
                );
            }
        }
    }
}

/// Pumping the engine through explicit `OramEngine::run_cycle_burst`
/// windows, as a serving layer does, reaches the same final state as
/// `run_batch`: identical responses, statistics, storage trace, and
/// simulated clock, at 1 and 4 shards.
#[test]
fn burst_pumping_matches_batch_draining() {
    let requests = mixed_workload(160);

    let mut reference = build(8);
    let reference_responses = reference.run_batch(&requests).expect("batch runs");
    let mut pumped = build(8);
    let tickets: Vec<u64> = requests
        .iter()
        .map(|request| pumped.enqueue(request.clone()).expect("enqueues"))
        .collect();
    while OramEngine::pending_requests(&pumped) > 0 {
        OramEngine::run_cycle_burst(&mut pumped, 8, 4).expect("burst runs");
    }
    let responses: Vec<Vec<u8>> = tickets
        .iter()
        .map(|ticket| pumped.take_response(*ticket).expect("response ready"))
        .collect();
    assert_eq!(responses, reference_responses, "pumped responses diverged");
    assert_eq!(pumped.stats(), reference.stats());
    assert_eq!(pumped.trace().snapshot(), reference.trace().snapshot());
    assert_eq!(pumped.clock().now(), reference.clock().now());

    let shape = Shape { shards: 4, ..PLAIN };
    let mut reference = build_sharded(shape, 8);
    let reference_responses = reference.run_batch(&requests).expect("batch runs");
    let mut sharded = build_sharded(shape, 8);
    let tickets: Vec<u64> = requests
        .iter()
        .map(|request| sharded.enqueue(request.clone()).expect("enqueues"))
        .collect();
    while OramEngine::pending_requests(&sharded) > 0 {
        OramEngine::run_cycle_burst(&mut sharded, 8, 4).expect("burst runs");
    }
    let responses: Vec<Vec<u8>> = tickets
        .iter()
        .map(|ticket| sharded.take_response(*ticket).expect("response ready"))
        .collect();
    assert_eq!(responses, reference_responses);
    assert_eq!(sharded.stats(), reference.stats());
    assert_eq!(sharded.clock().now(), reference.clock().now());
}

/// §4.4.1 under batching: within one access period no storage slot is
/// read twice, even when whole windows of loads are committed at once.
#[test]
fn batched_loads_keep_the_once_per_period_invariant() {
    let mut oram = build(32);
    // Hot-set hammering maximizes dummy loads — the risky case.
    let requests: Vec<Request> = (0..180u64).map(|i| Request::read(i % 12)).collect();
    oram.run_batch(&requests).expect("batch");
    assert_eq!(
        oram.stats().shuffles,
        0,
        "setup: stay within one period (budget 64)"
    );
    let events = oram.trace().snapshot();
    assert_eq!(
        once_per_period(&events, device_ids::STORAGE, &[]),
        None,
        "a storage slot was read twice within a period under batching"
    );
}

/// The storage layer's `load_batch` drives the same machinery as
/// `fetch`/`dummy_load` — spot-check at this level too, over a fresh
/// layer with misses and dummies interleaved (the crate-level property
/// test covers arbitrary interleavings).
#[test]
fn storage_layer_load_batch_equals_sequential_calls() {
    let build_layer = || {
        let config = HOramConfig::new(128, 8, 64).with_seed(3);
        let device = MachineConfig::dac2019().build_storage(SimClock::new(), None);
        let master = MasterKey::from_bytes([2u8; 32]);
        let keys = KeyHierarchy::new(master.clone(), "io-pipeline-test");
        let posmap = horam::core::build_posmap(&config, &master, false).expect("posmap builds");
        StorageLayer::new(&config, device, keys, posmap).expect("layer builds")
    };
    let plan = [
        LoadPlan::Dummy,
        LoadPlan::Miss(BlockId(100)),
        LoadPlan::Dummy,
        LoadPlan::Dummy,
        LoadPlan::Miss(BlockId(7)),
        LoadPlan::Dummy,
    ];
    let mut sequential = build_layer();
    let mut seq_blocks = Vec::new();
    for &step in &plan {
        let load = match step {
            LoadPlan::Miss(id) => sequential.fetch(id).expect("fetch"),
            LoadPlan::Dummy => sequential.dummy_load().expect("dummy"),
        };
        seq_blocks.push(load.block);
    }
    let mut batched = build_layer();
    let batch = batched.load_batch(&plan).expect("batch");
    let bat_blocks: Vec<_> = batch.loads.iter().map(|l| l.block.clone()).collect();
    assert_eq!(seq_blocks, bat_blocks);
    assert_eq!(
        sequential.device().stats().reads,
        batched.device().stats().reads
    );
    assert!(batched.device().stats().busy < sequential.device().stats().busy);
}

/// The multi-tenant server rides the same pipeline: a windowed service
/// produces byte-identical responses to a per-cycle service.
#[test]
fn windowed_service_matches_per_cycle_service() {
    let serve = |io_batch: u64| {
        let oram = build(1);
        let mut service = OramService::new(
            oram,
            Box::new(FairSharePolicy::default()),
            ServiceConfig {
                io_batch,
                ..ServiceConfig::default()
            },
        );
        for tenant in 0..4u32 {
            service.register_tenant(UserId(tenant), 0..512, Permission::ReadWrite);
        }
        let arrivals: Vec<(UserId, Request)> = mixed_workload(160)
            .into_iter()
            .enumerate()
            .map(|(i, request)| (UserId(i as u32 % 4), request))
            .collect();
        let (tickets, _report) = service.serve_all(arrivals).expect("serves");
        tickets
            .into_iter()
            .map(|t| service.take_response(t).expect("completed"))
            .collect::<Vec<_>>()
    };
    assert_eq!(serve(1), serve(16));
}

mod properties {
    use super::*;
    use horam::storage::device::AccessKind;
    use horam::storage::trace::TraceEvent;
    use proptest::prelude::*;

    fn arbitrary_ops(max: usize) -> impl Strategy<Value = Vec<(u64, Option<u8>)>> {
        proptest::collection::vec((0u64..64, proptest::option::of(any::<u8>())), 1..max)
    }

    fn requests_from(ops: &[(u64, Option<u8>)]) -> Vec<Request> {
        ops.iter()
            .map(|(id, write)| match write {
                Some(byte) => Request::write(*id, vec![*byte; 8]),
                None => Request::read(*id),
            })
            .collect()
    }

    /// Each device's events in order, without timestamps: a window
    /// reorders storage reads against memory accesses, never the
    /// accesses of one device.
    fn per_device(events: &[TraceEvent]) -> Vec<Vec<(bool, u64, u64)>> {
        [device_ids::MEMORY, device_ids::STORAGE]
            .iter()
            .map(|&device| {
                events
                    .iter()
                    .filter(|e| e.device == device)
                    .map(|e| (e.kind == AccessKind::Read, e.addr, e.bytes))
                    .collect()
            })
            .collect()
    }

    /// Every protocol counter; the time fields are what windowing changes.
    fn counters(stats: &HOramStats) -> [u64; 10] {
        [
            stats.requests,
            stats.writes,
            stats.cycles,
            stats.memory_hits,
            stats.dummy_memory_accesses,
            stats.real_io_loads,
            stats.dummy_io_loads,
            stats.prefetched_blocks,
            stats.shuffles,
            stats.spilled_blocks,
        ]
    }

    /// A tiny geometry (16 memory slots) so arbitrary sequences cross
    /// shuffle periods, where windows are clamped to the period budget.
    fn small(io_batch: u64, recursive: bool) -> HOramConfig {
        let mut config = HOramConfig::new(64, 8, 16)
            .with_seed(0x97)
            .with_io_batch(io_batch);
        if recursive {
            config = config.with_recursive_posmap(None, 4);
        }
        config
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// For arbitrary read/write interleavings, windows of 4 cycles
        /// match the per-cycle engine on responses, counters and each
        /// device's access sequence, for both position maps.
        #[test]
        fn windowed_identical_for_arbitrary_sequences(ops in arbitrary_ops(70)) {
            let requests = requests_from(&ops);
            for recursive in [false, true] {
                let run = |io_batch: u64| {
                    let mut oram = HOram::new(
                        small(io_batch, recursive),
                        MemoryHierarchy::dac2019(),
                        MasterKey::from_bytes([0x5D; 32]),
                    )
                    .expect("construction succeeds");
                    let responses = oram.run_batch(&requests).expect("runs");
                    (responses, counters(&oram.stats()), per_device(&oram.trace().snapshot()))
                };
                let (per_cycle, windowed) = (run(1), run(4));
                prop_assert_eq!(&windowed.0, &per_cycle.0, "recursive {}: responses", recursive);
                prop_assert_eq!(windowed.1, per_cycle.1, "recursive {}: counters", recursive);
                prop_assert_eq!(&windowed.2, &per_cycle.2, "recursive {}: trace", recursive);
            }
        }

        /// The same equivalence at 4 shards, shard by shard.
        #[test]
        fn sharded_windowed_identical_for_arbitrary_sequences(ops in arbitrary_ops(60)) {
            let requests = requests_from(&ops);
            let run = |io_batch: u64| {
                let mut oram = ShardedOram::new(
                    ShardedConfig::new(small(io_batch, false), 4),
                    MasterKey::from_bytes([0x5D; 32]),
                    |_| MemoryHierarchy::dac2019(),
                )
                .expect("sharded instance builds");
                let responses = oram.run_batch(&requests).expect("runs");
                let traces: Vec<_> = oram
                    .shards()
                    .iter()
                    .map(|shard| per_device(&shard.trace().snapshot()))
                    .collect();
                (responses, counters(&oram.stats()), traces)
            };
            let (per_cycle, windowed) = (run(1), run(4));
            prop_assert_eq!(windowed.0, per_cycle.0);
            prop_assert_eq!(windowed.1, per_cycle.1);
            prop_assert_eq!(windowed.2, per_cycle.2);
        }
    }
}
