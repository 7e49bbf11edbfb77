//! End-to-end benchmark of the H-ORAM stack.
//!
//! ```text
//! horam-e2e-bench --workload <hotspot-read|uniform-rw|rpc-zipf>
//!                 [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Every run checks each response against a reference model and prints,
//! as its last line, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. Untraced runs (`--trace 0`) report the end-to-end
//! metrics; traced runs (`--trace 1`) report the per-layer metrics of
//! `LAYERS.md`, measured from outside the program, and refuse to publish
//! them if a counter invariant breaks. See `README.md`.

mod check;
mod inproc;
mod layers;
mod probe;
mod report;
mod rpc;

use horam::core::{OramEngine, UserId};
use horam_server::OramService;
use inproc::{Kind, Stop};
use layers::{Backend, Observed, Probes, RpcLayer, Run};
use probe::TimedEngine;
use report::{median, Metric};
use std::process::ExitCode;
use std::time::Instant;

/// Dataset size `N` in blocks (the paper's Table 5-3 geometry).
pub const CAPACITY: u64 = 65_536;
/// Memory-tree budget `n` in block slots.
pub const MEMORY_SLOTS: u64 = 8_192;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const WORKLOADS: [(&str, u64); 3] = [("hotspot-read", 1), ("uniform-rw", 2), ("rpc-zipf", 3)];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(name, _)| *name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
                    .ok_or(format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let &(workload, default_seed) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(default_seed),
        seconds,
        trace,
    })
}

/// One run's verdict and metrics.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn of(runs: &[&Run], metrics: Vec<Metric>) -> Self {
        Self {
            correct: runs.iter().all(|run| run.mismatches == 0),
            attempted: runs.iter().map(|run| run.attempted).sum(),
            failed: runs.iter().map(|run| run.failed).sum(),
            metrics,
        }
    }
}

/// Runs `build` [`SETUP_REPS`] times, dropping each result before the
/// next build; returns the last one and the median build time.
fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        built = Some(build()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((built.expect("at least one set-up"), median(&mut times)))
}

fn throughput(run: &Run) -> f64 {
    run.completed as f64 / run.host_s
}

fn queue_peak<E: OramEngine>(service: &OramService<E>, tenants: u64) -> usize {
    (0..tenants)
        .filter_map(|t| service.tenant_stats(UserId(t as u32)))
        .map(|stats| stats.queue_peak)
        .max()
        .unwrap_or(0)
}

fn publish(observed: &Observed<'_>) -> Result<Vec<Metric>, String> {
    layers::check_invariants(observed)
        .map_err(|e| format!("counter invariant broken, layer numbers withheld: {e}"))?;
    Ok(layers::per_layer(observed))
}

fn inproc_untraced(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let ops = inproc::stream(kind, seed);
    let (mut service, setup_s) = timed_setup(|| inproc::engine(None).map(inproc::serve))?;
    let stop = Stop::Periods {
        seconds,
        min_periods: inproc::SIM_PERIODS,
    };
    let mut run = inproc::closed_loop(&mut service, &ops, seed, stop)?;
    let amplification = layers::storage_amplification(&service.oram().instances(), CAPACITY);
    let metrics = layers::end_to_end(&mut run, setup_s, amplification)?;
    Ok(Outcome::of(&[&run], metrics))
}

fn inproc_traced(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let crypto = probe::crypto_us_per_kib();
    let ops = inproc::stream(kind, seed);
    let mut service = inproc::serve(inproc::engine(None)?);
    let untraced = inproc::closed_loop(
        &mut service,
        &ops,
        seed,
        Stop::Periods {
            seconds: seconds / 2.0,
            min_periods: 1,
        },
    )?;
    drop(service);

    let probes = Probes::default();
    let mut service = inproc::serve(TimedEngine::new(inproc::engine(Some(&probes))?));
    let (memory0, storage0) = (probes.memory.read(), probes.storage.read());
    let run = inproc::closed_loop(&mut service, &ops, seed, Stop::Batches(untraced.batches))?;
    let (memory1, storage1) = (probes.memory.read(), probes.storage.read());
    if run.sim_clock_us != untraced.sim_clock_us || run.completed != untraced.completed {
        return Err("the traced run did not repeat the untraced run's work".into());
    }
    let observed = Observed {
        run: &run,
        instances: service.oram().instances(),
        engine: service.oram().probe,
        memory_store: (memory1.0 - memory0.0, memory1.1 - memory0.1),
        storage_store: (storage1.0 - storage0.0, storage1.1 - storage0.1),
        service: *service.stats(),
        queue_peak: queue_peak(&service, 1),
        cache: service.oram().inner.cache_stats(),
        pump_visible: true,
        rpc: RpcLayer::default(),
        crypto_us_per_kib: crypto,
        overhead: 1.0 - throughput(&run) / throughput(&untraced),
    };
    let metrics = publish(&observed)?;
    Ok(Outcome::of(&[&untraced, &run], metrics))
}

fn rpc_untraced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let streams = rpc::streams(seed);
    let (service, setup_s) = timed_setup(|| rpc::engine(None).map(rpc::serve))?;
    let amplification = layers::storage_amplification(&service.oram().instances(), CAPACITY);
    let clock = service.oram().clock().clone();
    let (_, mut out) = rpc::drive(service, clock, &streams, seed, seconds)?;
    let metrics = layers::end_to_end(&mut out.run, setup_s, amplification)?;
    Ok(Outcome::of(&[&out.run], metrics))
}

fn rpc_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let crypto = probe::crypto_us_per_kib();
    let streams = rpc::streams(seed);
    let service = rpc::serve(rpc::engine(None)?);
    let clock = service.oram().clock().clone();
    let (service, untraced) = rpc::drive(service, clock, &streams, seed, seconds / 2.0)?;
    drop(service);

    let probes = Probes::default();
    let service = rpc::serve(TimedEngine::new(rpc::engine(Some(&probes))?));
    let clock = service.oram().inner.clock().clone();
    let (memory0, storage0) = (probes.memory.read(), probes.storage.read());
    let (service, mut out) = rpc::drive(service, clock, &streams, seed, seconds / 2.0)?;
    let (memory1, storage1) = (probes.memory.read(), probes.storage.read());
    let engine = service.oram().probe;
    let counters = out.counters;
    let rpc = RpcLayer {
        call_ms_p50: median(&mut out.call_ms),
        dials: out.clients.dials,
        resends: out.clients.resends,
        backoffs: out.clients.backoffs,
        busy_rejects: counters.busy_rejects,
        queue_full_rejects: counters.queue_full_rejects,
        shed_deadline: counters.shed_deadline,
        dedup_hits: counters.dedup_hits,
        self_s: out.server_wall_s - engine.engine_s(),
    };
    let observed = Observed {
        run: &out.run,
        instances: service.oram().instances(),
        engine,
        memory_store: (memory1.0 - memory0.0, memory1.1 - memory0.1),
        storage_store: (storage1.0 - storage0.0, storage1.1 - storage0.1),
        service: *service.stats(),
        queue_peak: queue_peak(&service, rpc::CLIENTS),
        cache: service.oram().inner.cache_stats(),
        pump_visible: false,
        rpc,
        crypto_us_per_kib: crypto,
        overhead: 1.0 - throughput(&out.run) / throughput(&untraced.run),
    };
    let metrics = publish(&observed)?;
    Ok(Outcome::of(&[&untraced.run, &out.run], metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!(
                "usage: horam-e2e-bench --workload <hotspot-read|uniform-rw|rpc-zipf> \
                 [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome = match (args.workload, args.trace) {
        ("hotspot-read", false) => inproc_untraced(Kind::HotspotRead, seed, seconds),
        ("hotspot-read", true) => inproc_traced(Kind::HotspotRead, seed, seconds),
        ("uniform-rw", false) => inproc_untraced(Kind::UniformRw, seed, seconds),
        ("uniform-rw", true) => inproc_traced(Kind::UniformRw, seed, seconds),
        (_, false) => rpc_untraced(seed, seconds),
        (_, true) => rpc_traced(seed, seconds),
    };
    match outcome {
        Ok(outcome) => {
            println!(
                "{}",
                report::result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: responses disagreed with the reference model");
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horam::core::{HOram, HOramConfig};
    use horam::crypto::keys::MasterKey;
    use horam::storage::MemoryHierarchy;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn listed(names: impl IntoIterator<Item = &'static str>) -> usize {
        names
            .into_iter()
            .inspect(|name| {
                assert!(
                    MANIFEST.contains(&format!("\"name\": \"{name}\"")),
                    "{name} is not listed in BENCHMARK.json"
                );
            })
            .count()
    }

    #[test]
    fn printed_metrics_match_the_manifest() {
        let mut run = Run {
            attempted: 1,
            completed: 1,
            sim_window: Some(layers::SimWindow {
                requests: 1,
                sim_us: 1.0,
                peak_rss_mb: 1.0,
            }),
            ..Run::default()
        };
        let end_to_end = layers::end_to_end(&mut run, 1.0, 1.0).expect("window closed");
        assert_eq!(listed(end_to_end.iter().map(|m| m.name)), 9);

        let oram = HOram::new(
            HOramConfig::new(256, 8, 64),
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([1; 32]),
        )
        .expect("small engine builds");
        let observed = Observed {
            run: &run,
            instances: vec![&oram],
            engine: probe::EngineProbe::default(),
            memory_store: (0.0, 0),
            storage_store: (0.0, 0),
            service: Default::default(),
            queue_peak: 0,
            cache: None,
            pump_visible: true,
            rpc: RpcLayer::default(),
            crypto_us_per_kib: (1.0, 1.0),
            overhead: 0.0,
        };
        layers::check_invariants(&observed).expect("a fresh engine is consistent");
        let per_layer = layers::per_layer(&observed);
        assert_eq!(
            listed(per_layer.iter().map(|m| m.name)),
            MANIFEST.matches("\"better\"").count() - end_to_end.len()
        );
    }

    #[test]
    fn default_seeds_are_the_documented_ones() {
        let readme = include_str!("../README.md");
        for (name, seed) in WORKLOADS {
            assert!(readme.contains(&format!("| `{name}` | {seed} |")));
            assert!(MANIFEST.contains(&format!("seed {seed}\"")));
        }
    }
}
