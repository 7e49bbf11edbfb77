//! `rpc-zipf`: two client connections drive a `horam-rpc` server over
//! loopback TCP. The server runs in this process on its own thread, over
//! a 2-shard `ShardedOram` with the storage block cache on; each client
//! is its own tenant on a disjoint half of the blocks and keeps one
//! `call_many` batch in flight.

use crate::check::{self, Model, Op, PAYLOAD};
use crate::layers::{self, Probes, Run, SimWindow};
use crate::probe::peak_rss_mb;
use crate::{CAPACITY, MEMORY_SLOTS};
use horam::core::{HOramConfig, OramEngine, Permission, ShardedConfig, ShardedOram, UserId};
use horam::crypto::keys::MasterKey;
use horam::storage::cache::CacheConfig;
use horam::storage::{MemoryHierarchy, SimClock};
use horam_rpc::{run_server, ClientConfig, ClientStats, Endpoint, Listener, RpcClient};
use horam_rpc::{ServerConfig, ServerCounters};
use horam_server::{FairSharePolicy, OramService, ServiceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

pub const SHARDS: u64 = 2;
/// Client connections, one tenant each.
pub const CLIENTS: u64 = 2;
/// Requests per `call_many` batch; one batch in flight per connection.
pub const CALL_BATCH: usize = 32;
/// Zipf exponent and write share of every client's stream.
const ZIPF: f64 = 0.99;
const WRITE_RATIO: f64 = 0.05;
/// Blocks each tenant owns.
const SPAN: u64 = CAPACITY / CLIENTS;
/// Completed requests after which the process peak RSS is read. The
/// engines' bus traces grow with every access, so memory is compared at
/// a fixed amount of work, not at the end of a timed window.
const RSS_AT_REQUESTS: u64 = 20_000;

/// Per-client seeded streams over the client's own half.
pub fn streams(seed: u64) -> Vec<Vec<Op>> {
    const LEN: usize = 300_000;
    (0..CLIENTS)
        .map(|c| check::zipf(SPAN, c * SPAN, ZIPF, WRITE_RATIO, client_seed(seed, c), LEN))
        .collect()
}

fn client_seed(seed: u64, client: u64) -> u64 {
    seed ^ (client + 1).wrapping_mul(0xA076_1D64_78BD_642F)
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        // LRU over 1/16 of each shard's blocks: below the working set.
        cache: Some(CacheConfig::lru(CAPACITY / SHARDS / 16)),
        ..ServiceConfig::default()
    }
}

/// Builds the sharded engine, with the storage probes installed on every
/// shard's devices when given.
pub fn engine(probes: Option<&Probes>) -> Result<ShardedOram, String> {
    let config = service_config();
    let base = config.engine_config(HOramConfig::new(CAPACITY, PAYLOAD, MEMORY_SLOTS));
    ShardedOram::new(
        ShardedConfig::new(base, SHARDS),
        MasterKey::from_bytes([0xB8; 32]),
        |_| {
            let mut hierarchy = MemoryHierarchy::dac2019();
            if let Some(probes) = probes {
                probes.install(&mut hierarchy);
            }
            hierarchy
        },
    )
    .map_err(|e| format!("engine set-up failed: {e}"))
}

/// Wraps an engine in a service with the two tenants registered.
pub fn serve<E: OramEngine>(engine: E) -> OramService<E> {
    let mut service = OramService::new(
        engine,
        Box::new(FairSharePolicy::default()),
        service_config(),
    );
    for client in 0..CLIENTS {
        let start = client * SPAN;
        service.register_tenant(
            UserId(client as u32),
            start..start + SPAN,
            Permission::ReadWrite,
        );
    }
    service
}

/// What the clients and the server reported.
#[derive(Debug, Default)]
pub struct RpcRun {
    pub run: Run,
    /// Host ms per `call_many`.
    pub call_ms: Vec<f64>,
    pub clients: ClientStats,
    pub counters: ServerCounters,
    /// Host seconds from server start until the clients finished.
    pub server_wall_s: f64,
}

/// Serves `service` over loopback TCP to the clients for `seconds`,
/// then drains the server and hands the service back.
pub fn drive<E>(
    service: OramService<E>,
    clock: SimClock,
    streams: &[Vec<Op>],
    seed: u64,
    seconds: f64,
) -> Result<(OramService<E>, RpcRun), String>
where
    E: OramEngine + Send + 'static,
{
    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into()))
        .map_err(|e| format!("bind failed: {e}"))?;
    let endpoint = listener
        .local_endpoint()
        .map_err(|e| format!("local endpoint: {e}"))?;
    let config = ServerConfig::default();
    let drain = Arc::clone(&config.drain);
    let start = Instant::now();
    let server = std::thread::spawn(move || {
        let mut service = service;
        let outcome = run_server(&mut service, &listener, &config);
        (service, outcome)
    });

    let shared = Shared {
        clock,
        start,
        seconds,
        completed: AtomicU64::new(0),
        rss_at_requests: OnceLock::new(),
    };
    let clients: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(client, ops)| {
                let endpoint = endpoint.clone();
                let shared = &shared;
                scope.spawn(move || client_loop(client as u64, ops, seed, endpoint, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let server_wall_s = start.elapsed().as_secs_f64();
    let rss = shared
        .rss_at_requests
        .get()
        .copied()
        .unwrap_or_else(peak_rss_mb);
    drain.store(true, Ordering::Release);
    let (service, outcome) = server.join().map_err(|_| "server thread panicked")?;
    let outcome = outcome.map_err(|e| format!("server failed: {e}"))?;

    let mut out = RpcRun {
        counters: outcome.counters,
        server_wall_s,
        ..RpcRun::default()
    };
    for client in clients {
        let client = client?;
        let run = &mut out.run;
        run.attempted += client.run.attempted;
        run.completed += client.run.completed;
        run.failed += client.run.failed;
        run.mismatches += client.run.mismatches;
        run.host_latency_ms.extend(client.run.host_latency_ms);
        run.sim_latency_us.extend(client.run.sim_latency_us);
        out.call_ms.extend(client.call_ms);
        out.clients.dials += client.stats.dials;
        out.clients.resends += client.stats.resends;
        out.clients.backoffs += client.stats.backoffs;
    }
    out.run.host_s = server_wall_s;
    out.run.sim_window = Some(SimWindow {
        requests: out.run.completed,
        sim_us: layers::amortized_sim_us(
            &service.oram().per_shard_stats(),
            MEMORY_SLOTS / SHARDS / 2,
        )?,
        peak_rss_mb: rss,
    });
    Ok((service, out))
}

/// What the client threads share.
struct Shared {
    clock: SimClock,
    start: Instant,
    seconds: f64,
    completed: AtomicU64,
    rss_at_requests: OnceLock<f64>,
}

struct ClientRun {
    run: Run,
    call_ms: Vec<f64>,
    stats: ClientStats,
}

fn client_loop(
    client: u64,
    ops: &[Op],
    seed: u64,
    endpoint: Endpoint,
    shared: &Shared,
) -> Result<ClientRun, String> {
    let clock = &shared.clock;
    let seed = client_seed(seed, client);
    let mut rpc = RpcClient::new(ClientConfig::new(endpoint, client + 1, client as u32));
    let mut model = Model::default();
    let mut out = ClientRun {
        run: Run::default(),
        call_ms: Vec::new(),
        stats: ClientStats::default(),
    };
    let mut next = 0usize;
    while shared.start.elapsed().as_secs_f64() < shared.seconds {
        let batch = ops
            .get(next..next + CALL_BATCH)
            .ok_or("request stream exhausted before the run ended")?;
        let mut calls = Vec::with_capacity(CALL_BATCH);
        let mut versions = Vec::with_capacity(CALL_BATCH);
        for (offset, op) in batch.iter().enumerate() {
            let index = (next + offset) as u64;
            calls.push((op.block, op.write.then(|| check::payload(seed, index))));
            versions.push(model.apply(index, *op));
        }
        next += CALL_BATCH;

        let sim_start = clock.now();
        let host_start = Instant::now();
        let result = rpc.call_many(calls);
        let ms = host_start.elapsed().as_secs_f64() * 1e3;
        let sim_us = clock.now().duration_since(sim_start).as_micros_f64();
        out.call_ms.push(ms);
        let run = &mut out.run;
        run.attempted += CALL_BATCH as u64;
        let outcomes = match result {
            Ok(outcomes) => outcomes,
            Err(error) => {
                eprintln!("client {client}: batch failed: {error}");
                run.failed += CALL_BATCH as u64;
                continue;
            }
        };
        let completed_before = run.completed;
        for (outcome, version) in outcomes.into_iter().zip(versions) {
            match outcome {
                Ok(bytes) if check::matches(seed, version, &bytes) => {
                    run.completed += 1;
                    run.host_latency_ms.push(ms);
                    run.sim_latency_us.push(sim_us);
                }
                Ok(_) => {
                    eprintln!("MISMATCH: client {client} got bytes other than version {version}");
                    run.mismatches += 1;
                    run.failed += 1;
                }
                Err(error) => {
                    eprintln!("client {client}: request failed: {error}");
                    run.failed += 1;
                }
            }
        }
        let done = run.completed - completed_before;
        let total = shared.completed.fetch_add(done, Ordering::Relaxed) + done;
        if total >= RSS_AT_REQUESTS {
            shared.rss_at_requests.get_or_init(peak_rss_mb);
        }
    }
    out.stats = rpc.client_stats();
    Ok(out)
}
