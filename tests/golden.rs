//! Golden observables: a fixed mixed workload, run through every
//! engine shape the cycle driver serves, must reproduce recorded digests
//! of its responses, its bus-trace shape, its [`HOramStats`] and its
//! position map's counters and level traces, and the recorded final
//! simulated time, exactly.
//!
//! The constants below were recorded from the windowed cycle driver and
//! pin its behaviour: any refactor of the driver, the storage commit or
//! the crypto path must leave every one of them unchanged. A change that
//! moves a constant changes what the adversary sees, what the caller
//! gets back, or what the paper's cost model charges.
//!
//! Grid: `HOram` and a 4-shard `ShardedOram` × `io_batch` 1 and 16 ×
//! block cache off and on × flat and recursive position map.

use horam::core::posmap::PositionMap;
use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::crypto::rng::DeterministicRng;
use horam::prelude::*;
use horam::storage::cache::CacheConfig;
use horam::storage::device::AccessKind;
use horam::storage::trace::TraceEvent;
use rand::Rng;

const CAPACITY: u64 = 256;
const PAYLOAD: usize = 8;
const MEMORY_SLOTS: u64 = 64;
const REQUESTS: usize = 240;

/// One configuration of the grid.
#[derive(Clone, Copy, Debug)]
struct Case {
    shards: u64,
    io_batch: u64,
    cached: bool,
    recursive: bool,
}

/// `(shards, io_batch, cached, recursive, digest, final simulated ns)`.
const GOLDEN: [(u64, u64, bool, bool, u64, u64); 16] = [
    (1, 1, false, false, 0x504d45cbb31e0795, 37642639),
    (1, 1, false, true, 0x979ee0bc0a94829a, 37642639),
    (1, 1, true, false, 0x45c209ddeda7abf4, 37521043),
    (1, 1, true, true, 0x1533f11ab3e51977, 37521043),
    (1, 16, false, false, 0xf9ff314f5f379961, 30555097),
    (1, 16, false, true, 0x25bbfe5cc2748c9e, 30555097),
    (1, 16, true, false, 0x4a5fb7dc6066b371, 30337059),
    (1, 16, true, true, 0xe0f7888865e6e84e, 30337059),
    (4, 1, false, false, 0xfc45c14cfb0191ab, 12867883),
    (4, 1, false, true, 0x400cf4c8a02264c4, 12867883),
    (4, 1, true, false, 0x41c5c3bd53bf23c7, 12290764),
    (4, 1, true, true, 0xe69989d5ec76059c, 12290764),
    (4, 16, false, false, 0xd48acbae5a3cc4eb, 10959772),
    (4, 16, false, true, 0xf931e8d3f2963eac, 10959772),
    (4, 16, true, false, 0x0fda4eea69e8dff7, 10631035),
    (4, 16, true, true, 0x884add6122b534e0, 10631035),
];

fn config(case: Case) -> HOramConfig {
    let mut config = HOramConfig::new(CAPACITY, PAYLOAD, MEMORY_SLOTS)
        .with_seed(0x601d)
        .with_io_batch(case.io_batch);
    if case.cached {
        config = config.with_cache(CacheConfig::lru(16));
    }
    if case.recursive {
        config = config.with_recursive_posmap(None, 4);
    }
    config
}

/// A deterministic mixed read/write workload over the whole address
/// space: enough misses to cross several shuffle periods on every shape.
fn workload() -> Vec<Request> {
    let mut rng = DeterministicRng::from_u64_seed(0x601d);
    (0..REQUESTS)
        .map(|_| {
            let id = rng.gen_range(0..CAPACITY);
            if rng.gen_bool(0.3) {
                Request::write(id, vec![rng.gen::<u8>(); PAYLOAD])
            } else {
                Request::read(id)
            }
        })
        .collect()
}

/// FNV-1a over a canonical little-endian encoding of the observables.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn responses(&mut self, responses: &[Vec<u8>]) {
        self.u64(responses.len() as u64);
        for response in responses {
            self.u64(response.len() as u64);
            self.bytes(response);
        }
    }

    /// The adversary-visible shape of a trace: device, direction, slot
    /// and size of every event, in order (timestamps ride the clock).
    fn trace(&mut self, events: &[TraceEvent]) {
        self.u64(events.len() as u64);
        for event in events {
            self.u64(u64::from(event.device.0));
            self.u64(u64::from(event.kind == AccessKind::Read));
            self.u64(event.addr);
            self.u64(event.bytes);
        }
    }

    fn stats(&mut self, stats: &HOramStats) {
        for value in [
            stats.requests,
            stats.writes,
            stats.cycles,
            stats.memory_hits,
            stats.dummy_memory_accesses,
            stats.real_io_loads,
            stats.dummy_io_loads,
            stats.prefetched_blocks,
            stats.io_time.as_nanos(),
            stats.memory_time.as_nanos(),
            stats.access_wall_time.as_nanos(),
            stats.shuffle_wall_time.as_nanos(),
            stats.shuffles,
            stats.spilled_blocks,
        ] {
            self.u64(value);
        }
    }

    /// The position map's own observables: its counters, its simulated
    /// time and, on the recursive map, every level's bus-trace shape.
    fn posmap(&mut self, posmap: &dyn PositionMap) {
        let stats = posmap.stats();
        for value in [
            stats.queries,
            stats.checkouts,
            stats.cache_hits,
            stats.bulk_rebuilds,
            posmap.sim_time().as_nanos(),
        ] {
            self.u64(value);
        }
        for level in posmap.level_views() {
            self.trace(&level.trace.snapshot());
        }
    }
}

/// Runs the workload on one case; returns `(digest, final simulated ns,
/// shuffles)`.
fn observe(case: Case, requests: &[Request]) -> (u64, u64, u64) {
    let master = MasterKey::from_bytes([0x60; 32]);
    let mut digest = Digest::new();
    if case.shards == 1 {
        let mut oram =
            HOram::new(config(case), MemoryHierarchy::dac2019(), master).expect("engine builds");
        let responses = oram.run_batch(requests).expect("batch runs");
        digest.responses(&responses);
        digest.trace(&oram.trace().snapshot());
        digest.stats(&oram.stats());
        digest.posmap(oram.posmap());
        let stats = oram.stats();
        (digest.0, oram.clock().now().as_nanos(), stats.shuffles)
    } else {
        let mut oram = ShardedOram::new(
            ShardedConfig::new(config(case), case.shards),
            master,
            |_| MemoryHierarchy::dac2019(),
        )
        .expect("sharded engine builds");
        let responses = oram.run_batch(requests).expect("batch runs");
        digest.responses(&responses);
        for shard in oram.shards() {
            digest.trace(&shard.trace().snapshot());
            digest.stats(&shard.stats());
            digest.posmap(shard.posmap());
        }
        let stats = oram.stats();
        digest.stats(&stats);
        (digest.0, oram.clock().now().as_nanos(), stats.shuffles)
    }
}

#[test]
fn every_engine_shape_reproduces_its_golden_observables() {
    let requests = workload();
    let mut mismatches = Vec::new();
    for (shards, io_batch, cached, recursive, digest, clock) in GOLDEN {
        let case = Case {
            shards,
            io_batch,
            cached,
            recursive,
        };
        let (got_digest, got_clock, shuffles) = observe(case, &requests);
        assert!(shuffles >= 2, "{case:?}: workload must cross periods");
        if (got_digest, got_clock) != (digest, clock) {
            mismatches.push(format!(
                "({shards}, {io_batch}, {cached}, {recursive}, {got_digest:#018x}, {got_clock}),"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "observables diverged from the golden record; measured rows:\n{}",
        mismatches.join("\n")
    );
}
