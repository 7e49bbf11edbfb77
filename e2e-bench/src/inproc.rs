//! `hotspot-read` and `uniform-rw`: one client thread drives an
//! in-process `OramService` over one `HOram` in a closed loop with
//! [`OUTSTANDING`] requests outstanding.
//!
//! The loop is single-threaded and the engine is deterministic at any
//! worker count, so at a fixed seed every run executes the same batches
//! and the simulated metrics repeat exactly. Host time is measured for
//! at least the requested seconds and then to the end of the shuffle
//! period in progress, so every run covers whole periods and the share
//! of requests that wait out a shuffle does not depend on where the
//! clock happened to stop.

use crate::check::{self, Model, Op, PAYLOAD};
use crate::layers::{self, Probes, Run, SimWindow};
use crate::{CAPACITY, MEMORY_SLOTS};
use horam::core::{HOram, HOramConfig, OramEngine, Permission, UserId};
use horam::crypto::keys::MasterKey;
use horam::protocols::Request;
use horam::storage::MemoryHierarchy;
use horam_server::{FairSharePolicy, OramService, ServiceConfig, ServiceTicket};
use std::time::Instant;

/// Requests kept outstanding: the service's default batch size.
pub const OUTSTANDING: usize = 64;
/// Shuffle periods the simulated metrics cover: a fixed amount of work,
/// independent of host speed, with at least ten requests beyond the
/// p99.9 of simulated latency on both workloads.
pub const SIM_PERIODS: u64 = 3;
/// Ceiling on how far past the requested seconds a run that has done its
/// minimum periods waits for the period in progress to end. A period
/// lasts 4–9 s on both workloads on a 2-vCPU machine, so this only bounds
/// run time on a slower one.
const MAX_OVERRUN_S: f64 = 10.0;

const TENANT: UserId = UserId(0);

/// Which in-process workload to generate.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    HotspotRead,
    UniformRw,
}

/// The seeded request stream: long enough for any run this process
/// can finish in its time limit.
pub fn stream(kind: Kind, seed: u64) -> Vec<Op> {
    const LEN: usize = 400_000;
    match kind {
        Kind::HotspotRead => check::hotspot(CAPACITY, MEMORY_SLOTS / 8, seed, LEN),
        Kind::UniformRw => check::uniform(CAPACITY, 0.5, seed, LEN),
    }
}

/// Builds the engine, with the storage probes installed on both devices
/// when given. Together with [`serve`] this is the timed set-up.
pub fn engine(probes: Option<&Probes>) -> Result<HOram, String> {
    let mut hierarchy = MemoryHierarchy::dac2019();
    if let Some(probes) = probes {
        probes.install(&mut hierarchy);
    }
    let base = HOramConfig::new(CAPACITY, PAYLOAD, MEMORY_SLOTS);
    HOram::new(
        ServiceConfig::default().engine_config(base),
        hierarchy,
        MasterKey::from_bytes([0xB7; 32]),
    )
    .map_err(|e| format!("engine set-up failed: {e}"))
}

/// Wraps an engine in a service with default settings and one tenant
/// owning every block.
pub fn serve<E: OramEngine>(engine: E) -> OramService<E> {
    let mut service = OramService::new(
        engine,
        Box::new(FairSharePolicy::default()),
        ServiceConfig::default(),
    );
    service.register_tenant(TENANT, 0..CAPACITY, Permission::ReadWrite);
    service
}

/// When the closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After `seconds` of host time and at least `min_periods` shuffles,
    /// at the end of the first batch that ran a shuffle (or once the wait
    /// for it passes [`MAX_OVERRUN_S`]).
    Periods { seconds: f64, min_periods: u64 },
    /// After exactly this many batches (repeats another run's work).
    Batches(u64),
}

/// Drives the closed loop; see the module docs.
pub fn closed_loop<E: OramEngine>(
    service: &mut OramService<E>,
    ops: &[Op],
    seed: u64,
    stop: Stop,
) -> Result<Run, String> {
    struct Flight {
        ticket: ServiceTicket,
        version: u64,
        host: Instant,
        sim: u64,
    }
    let mut run = Run::default();
    let mut model = Model::default();
    let mut inflight: Vec<Flight> = Vec::with_capacity(OUTSTANDING);
    let mut next = 0usize;
    let start = Instant::now();
    let mut shuffles = 0u64;
    let mut draining = false;
    loop {
        while !draining && inflight.len() < OUTSTANDING {
            let op = *ops
                .get(next)
                .ok_or("request stream exhausted before the run ended")?;
            let request = if op.write {
                Request::write(op.block, check::payload(seed, next as u64))
            } else {
                Request::read(op.block)
            };
            let sim = service.oram().now().as_nanos();
            let host = Instant::now();
            run.attempted += 1;
            match service.submit(TENANT, request) {
                Ok(ticket) => inflight.push(Flight {
                    ticket,
                    version: model.apply(next as u64, op),
                    host,
                    sim,
                }),
                Err(error) => {
                    eprintln!("request {next} refused: {error}");
                    run.failed += 1;
                }
            }
            next += 1;
        }

        let pump_start = Instant::now();
        service.pump().map_err(|e| format!("pump failed: {e}"))?;
        let now = Instant::now();
        run.pump_s += (now - pump_start).as_secs_f64();
        run.batches += 1;
        let sim_now = service.oram().now().as_nanos();
        let in_sim_window = run.sim_window.is_none();

        let mut index = 0;
        while index < inflight.len() {
            let Some(result) = service.take_result(inflight[index].ticket) else {
                index += 1;
                continue;
            };
            let flight = inflight.swap_remove(index);
            match result {
                Ok(bytes) if check::matches(seed, flight.version, &bytes) => {
                    run.completed += 1;
                    run.host_latency_ms
                        .push((now - flight.host).as_secs_f64() * 1e3);
                    if in_sim_window {
                        run.sim_latency_us.push((sim_now - flight.sim) as f64 / 1e3);
                    }
                }
                Ok(_) => {
                    eprintln!(
                        "MISMATCH: ticket {} returned bytes other than version {}",
                        flight.ticket.0, flight.version
                    );
                    run.mismatches += 1;
                    run.failed += 1;
                }
                Err(error) => {
                    eprintln!("ticket {} failed: {error}", flight.ticket.0);
                    run.failed += 1;
                }
            }
        }

        let before = shuffles;
        shuffles = service.oram().aggregate_stats().shuffles;
        if in_sim_window && shuffles >= SIM_PERIODS {
            run.sim_window = Some(SimWindow {
                requests: run.completed,
                sim_us: layers::amortized_sim_us(
                    &service.oram().per_shard_stats(),
                    MEMORY_SLOTS / 2,
                )?,
                peak_rss_mb: crate::probe::peak_rss_mb(),
            });
        }
        let elapsed = start.elapsed().as_secs_f64();
        draining |= match stop {
            Stop::Periods {
                seconds,
                min_periods,
            } => {
                elapsed >= seconds
                    && shuffles >= min_periods
                    && (shuffles > before || elapsed >= seconds + MAX_OVERRUN_S)
            }
            Stop::Batches(batches) => run.batches >= batches,
        };
        if draining && inflight.is_empty() {
            break;
        }
    }
    run.host_s = start.elapsed().as_secs_f64();
    run.sim_clock_us = service.oram().now().as_nanos() as f64 / 1e3;
    Ok(run)
}
