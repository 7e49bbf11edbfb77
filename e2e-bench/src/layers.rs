//! Turning one run into metrics: the end-to-end set every untraced run
//! prints, and the per-layer set of the traced run, which is published
//! only when the counter invariants hold.

use crate::probe::{EngineProbe, StoreProbe, TimedEngine, TimedStore};
use crate::report::{interquartile_mean, mean, metric, quantile, Metric};
use horam::core::{HOram, HOramStats, ShardedOram};
use horam::storage::cache::CacheStats;
use horam::storage::stats::DeviceStats;
use horam::storage::MemoryHierarchy;
use horam_server::ServiceStats;
use std::sync::Arc;

/// What one closed loop observed, from the client's side.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub completed: u64,
    /// Typed errors, sheds and refusals, plus mismatches.
    pub failed: u64,
    pub mismatches: u64,
    /// Host ms from submit to response, per completed request.
    pub host_latency_ms: Vec<f64>,
    /// Simulated µs from submit to response, per request completed
    /// inside the simulated window.
    pub sim_latency_us: Vec<f64>,
    /// Host seconds the loop ran.
    pub host_s: f64,
    /// The fixed amount of work the simulated metrics and the memory
    /// peak cover, once it is complete.
    pub sim_window: Option<SimWindow>,
    /// In-process only: simulated µs from the fresh engine to the end of
    /// the loop.
    pub sim_clock_us: f64,
    /// In-process only: host seconds inside `OramService::pump`.
    pub pump_s: f64,
    /// In-process only: pumps (one per batch).
    pub batches: u64,
}

/// What a run had done when its simulated window closed.
#[derive(Debug, Clone, Copy)]
pub struct SimWindow {
    pub requests: u64,
    /// Amortised simulated µs of the window (see [`amortized_sim_us`]).
    pub sim_us: f64,
    /// Process peak RSS (`VmHWM`) so far, in MiB.
    pub peak_rss_mb: f64,
}

/// Simulated µs of the busiest shard, with each shard's shuffle cost
/// spread over the loads of its period: access time plus
/// `loads / period_io_limit` shuffles at that shard's mean shuffle cost.
/// The shards run concurrently, so the busiest one sets the engine's
/// clock. Over whole periods this is the simulated clock itself; over a
/// window that ends mid-period it does not jump by a whole shuffle.
pub fn amortized_sim_us(shards: &[HOramStats], period_io_limit: u64) -> Result<f64, String> {
    shards
        .iter()
        .map(|stats| {
            if stats.shuffles == 0 {
                return Err("a shard finished no shuffle period".to_string());
            }
            let shuffle_ns = stats.shuffle_wall_time.as_nanos() as f64 / stats.shuffles as f64;
            let periods = stats.total_io_loads() as f64 / period_io_limit as f64;
            Ok((stats.access_wall_time.as_nanos() as f64 + periods * shuffle_ns) / 1e3)
        })
        .try_fold(0.0f64, |busiest, shard| Ok(busiest.max(shard?)))
}

/// The engines a run can drive, seen as their `HOram` instances.
pub trait Backend {
    fn instances(&self) -> Vec<&HOram>;
}

impl Backend for HOram {
    fn instances(&self) -> Vec<&HOram> {
        vec![self]
    }
}

impl Backend for ShardedOram {
    fn instances(&self) -> Vec<&HOram> {
        self.shards().iter().collect()
    }
}

impl<E: Backend> Backend for TimedEngine<E> {
    fn instances(&self) -> Vec<&HOram> {
        self.inner.instances()
    }
}

/// `storage_bytes()` over all instances ÷ (N × payload).
pub fn storage_amplification(instances: &[&HOram], capacity: u64) -> f64 {
    let bytes: u64 = instances.iter().map(|oram| oram.storage_bytes()).sum();
    bytes as f64 / (capacity * crate::check::PAYLOAD as u64) as f64
}

/// Timed-store probes for the memory and the storage devices.
#[derive(Debug, Default)]
pub struct Probes {
    pub memory: Arc<StoreProbe>,
    pub storage: Arc<StoreProbe>,
}

impl Probes {
    /// Installs the probes on a hierarchy before an engine is built on it.
    pub fn install(&self, hierarchy: &mut MemoryHierarchy) {
        hierarchy
            .memory
            .wrap_store(TimedStore::wrapper(&self.memory));
        hierarchy
            .storage
            .wrap_store(TimedStore::wrapper(&self.storage));
    }
}

/// The end-to-end metrics of one untraced run.
pub fn end_to_end(
    run: &mut Run,
    setup_s: f64,
    storage_amplification: f64,
) -> Result<Vec<Metric>, String> {
    let window = run
        .sim_window
        .filter(|w| w.requests > 0)
        .ok_or("the simulated window never closed")?;
    Ok(vec![
        metric("throughput_rps", run.completed as f64 / run.host_s, "req/s"),
        metric("latency_mean_ms", mean(&run.host_latency_ms), "ms"),
        metric(
            "sim_us_per_req",
            window.sim_us / window.requests as f64,
            "us",
        ),
        metric(
            "sim_latency_iqm_us",
            interquartile_mean(&mut run.sim_latency_us),
            "us",
        ),
        metric(
            "sim_latency_p999_us",
            quantile(&mut run.sim_latency_us, 0.999),
            "us",
        ),
        metric("setup_s", setup_s, "s"),
        metric(
            "ok_frac",
            (run.attempted - run.failed) as f64 / run.attempted as f64,
            "ratio",
        ),
        metric("peak_rss_mb", window.peak_rss_mb, "MiB"),
        metric("storage_amplification", storage_amplification, "ratio"),
    ])
}

/// What the RPC layer reported, for `rpc-zipf`; zeros elsewhere.
#[derive(Debug, Default, Clone, Copy)]
pub struct RpcLayer {
    pub call_ms_p50: f64,
    pub dials: u64,
    pub resends: u64,
    pub backoffs: u64,
    pub busy_rejects: u64,
    pub queue_full_rejects: u64,
    pub shed_deadline: u64,
    pub dedup_hits: u64,
    /// Server-thread wall time minus engine time.
    pub self_s: f64,
}

/// Everything the traced run read from outside the program.
pub struct Observed<'a> {
    pub run: &'a Run,
    pub instances: Vec<&'a HOram>,
    pub engine: EngineProbe,
    /// Store probe readings `(seconds, ops)` over the loop: memory,
    /// storage.
    pub memory_store: (f64, u64),
    pub storage_store: (f64, u64),
    pub service: ServiceStats,
    pub queue_peak: usize,
    pub cache: Option<CacheStats>,
    /// Whether the service's pump time is visible (in-process loops).
    pub pump_visible: bool,
    pub rpc: RpcLayer,
    /// `(seal, open)` host µs per KiB.
    pub crypto_us_per_kib: (f64, f64),
    pub overhead: f64,
}

/// Checks the counter invariants the published layer numbers rest on.
pub fn check_invariants(observed: &Observed<'_>) -> Result<(), String> {
    let run = observed.run;
    if run.completed + run.failed != run.attempted {
        return Err(format!(
            "completed {} + failed {} != attempted {}",
            run.completed, run.failed, run.attempted
        ));
    }
    for (shard, oram) in observed.instances.iter().enumerate() {
        let stats = oram.stats();
        if stats.real_io_loads + stats.dummy_io_loads != stats.cycles {
            return Err(format!(
                "shard {shard}: real {} + dummy {} loads != {} cycles",
                stats.real_io_loads, stats.dummy_io_loads, stats.cycles
            ));
        }
        let limit = oram.config().period_io_limit();
        if stats.shuffles != stats.total_io_loads() / limit {
            return Err(format!(
                "shard {shard}: {} shuffles != floor({} loads / {limit})",
                stats.shuffles,
                stats.total_io_loads()
            ));
        }
        let clock = oram.clock().now().as_nanos();
        if stats.total_wall_time().as_nanos() != clock {
            return Err(format!(
                "shard {shard}: access {} ns + shuffle {} ns != simulated clock {clock} ns",
                stats.access_wall_time.as_nanos(),
                stats.shuffle_wall_time.as_nanos()
            ));
        }
    }
    Ok(())
}

/// The per-layer metrics of one traced run (invariants already checked).
pub fn per_layer(observed: &Observed<'_>) -> Vec<Metric> {
    let instances = &observed.instances;
    let stats = instances
        .iter()
        .map(|oram| oram.stats())
        .fold(horam::core::HOramStats::default(), |acc, s| acc + s);
    let device = |pick: fn(&HOram) -> DeviceStats| {
        instances
            .iter()
            .fold(DeviceStats::default(), |acc, oram| acc.merged(&pick(oram)))
    };
    let memory = device(HOram::memory_device_stats);
    let storage = device(HOram::storage_device_stats);
    let stash_peak = instances
        .iter()
        .map(|oram| oram.memory_stash_peak())
        .max()
        .unwrap_or(0);
    let retries: u64 = instances
        .iter()
        .map(|oram| oram.storage_retry_stats().retries)
        .sum();
    let cache = observed.cache.unwrap_or_default();
    let engine = observed.engine;
    let (pump_s, server_self_s) = if observed.pump_visible {
        (observed.run.pump_s, observed.run.pump_s - engine.engine_s())
    } else {
        (0.0, 0.0)
    };
    let (seal_us, open_us) = observed.crypto_us_per_kib;
    let read_kib = (memory.bytes_read + storage.bytes_read) as f64 / 1024.0;
    let written_kib = (memory.bytes_written + storage.bytes_written) as f64 / 1024.0;
    let rpc = observed.rpc;
    let service = observed.service;
    let count = |n: u64| n as f64;
    vec![
        metric("horam-core.window_s", engine.window_ns as f64 / 1e9, "s"),
        metric("horam-core.windows", count(engine.windows), "count"),
        metric(
            "horam-core.shuffle_window_s",
            engine.shuffle_window_ns as f64 / 1e9,
            "s",
        ),
        metric(
            "horam-core.shuffle_windows",
            count(engine.shuffle_windows),
            "count",
        ),
        metric("horam-core.cycles", count(stats.cycles), "count"),
        metric(
            "horam-core.real_io_loads",
            count(stats.real_io_loads),
            "count",
        ),
        metric(
            "horam-core.dummy_io_loads",
            count(stats.dummy_io_loads),
            "count",
        ),
        metric(
            "horam-core.dummy_memory_accesses",
            count(stats.dummy_memory_accesses),
            "count",
        ),
        metric(
            "horam-core.prefetched_blocks",
            count(stats.prefetched_blocks),
            "count",
        ),
        metric(
            "horam-core.requests_per_io",
            stats.requests_per_io(),
            "ratio",
        ),
        metric("horam-core.shuffles", count(stats.shuffles), "count"),
        metric(
            "horam-core.spilled_blocks",
            count(stats.spilled_blocks),
            "count",
        ),
        metric("horam-core.stash_peak", stash_peak as f64, "blocks"),
        metric(
            "horam-core.sim_access_s",
            stats.access_wall_time.as_secs_f64(),
            "s",
        ),
        metric(
            "horam-core.sim_shuffle_s",
            stats.shuffle_wall_time.as_secs_f64(),
            "s",
        ),
        metric("horam-core.sim_io_s", stats.io_time.as_secs_f64(), "s"),
        metric(
            "horam-core.sim_memory_s",
            stats.memory_time.as_secs_f64(),
            "s",
        ),
        metric("horam-server.pump_s", pump_s, "s"),
        metric("horam-server.self_s", server_self_s, "s"),
        metric("horam-server.batches", count(service.batches), "count"),
        metric("horam-server.admitted", count(service.admitted), "count"),
        metric("horam-server.deduped", count(service.deduped), "count"),
        metric(
            "horam-server.amplification",
            service.amplification(),
            "ratio",
        ),
        metric(
            "horam-server.queue_peak",
            observed.queue_peak as f64,
            "requests",
        ),
        metric("horam-rpc.call_ms_p50", rpc.call_ms_p50, "ms"),
        metric("horam-rpc.dials", count(rpc.dials), "count"),
        metric("horam-rpc.resends", count(rpc.resends), "count"),
        metric("horam-rpc.backoffs", count(rpc.backoffs), "count"),
        metric("horam-rpc.busy_rejects", count(rpc.busy_rejects), "count"),
        metric(
            "horam-rpc.queue_full_rejects",
            count(rpc.queue_full_rejects),
            "count",
        ),
        metric("horam-rpc.shed_deadline", count(rpc.shed_deadline), "count"),
        metric("horam-rpc.dedup_hits", count(rpc.dedup_hits), "count"),
        metric("horam-rpc.self_s", rpc.self_s, "s"),
        metric("oram-storage.memory_store_s", observed.memory_store.0, "s"),
        metric(
            "oram-storage.memory_store_ops",
            count(observed.memory_store.1),
            "count",
        ),
        metric(
            "oram-storage.storage_store_s",
            observed.storage_store.0,
            "s",
        ),
        metric(
            "oram-storage.storage_store_ops",
            count(observed.storage_store.1),
            "count",
        ),
        metric("oram-storage.memory_bytes", count(memory.bytes()), "bytes"),
        metric(
            "oram-storage.storage_bytes",
            count(storage.bytes()),
            "bytes",
        ),
        metric("oram-storage.storage_ops", count(storage.ops()), "count"),
        metric(
            "oram-storage.storage_sim_busy_s",
            storage.busy.as_secs_f64(),
            "s",
        ),
        metric("oram-storage.retries", count(retries), "count"),
        metric("oram-storage.cache_hit_rate", cache.hit_rate(), "ratio"),
        metric(
            "oram-storage.cache_evictions",
            count(cache.evictions),
            "count",
        ),
        metric("oram-crypto.kib", read_kib + written_kib, "KiB"),
        metric("oram-crypto.seal_us_per_kib", seal_us, "us/KiB"),
        metric("oram-crypto.open_us_per_kib", open_us, "us/KiB"),
        metric(
            "oram-crypto.est_s",
            (read_kib * open_us + written_kib * seal_us) / 1e6,
            "s",
        ),
        metric("trace.overhead", observed.overhead, "ratio"),
    ]
}
