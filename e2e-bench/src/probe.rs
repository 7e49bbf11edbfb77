//! Instruments placed from outside the program, on public seams only.
//!
//! * [`TimedEngine`] wraps any [`OramEngine`] and times each
//!   `run_cycle_window`/`run_cycle_burst` call, sorting it by whether
//!   `stats().shuffles` advanced during the call.
//! * [`TimedStore`] is a [`DataStore`] adapter installed with
//!   `Device::wrap_store` before the engine is built; it times every
//!   `get`/`put`/`remove` on the device's backing store.
//! * [`crypto_us_per_kib`] times public `BlockSealer` calls on 1 KiB
//!   blocks.

use horam::core::{HOramError, HOramStats, OramEngine};
use horam::crypto::keys::MasterKey;
use horam::crypto::seal::{BlockSealer, SealedBlock};
use horam::protocols::{OramError, Request};
use horam::storage::clock::SimTime;
use horam::storage::store::DataStore;
use horam::storage::StorageError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Host time spent in engine calls, split by whether a shuffle ran.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineProbe {
    pub window_ns: u64,
    pub windows: u64,
    pub shuffle_window_ns: u64,
    pub shuffle_windows: u64,
}

impl EngineProbe {
    /// All host time spent inside the engine.
    pub fn engine_s(&self) -> f64 {
        (self.window_ns + self.shuffle_window_ns) as f64 / 1e9
    }
}

/// An [`OramEngine`] that forwards every call and times the windows.
#[derive(Debug)]
pub struct TimedEngine<E> {
    pub inner: E,
    pub probe: EngineProbe,
}

impl<E: OramEngine> TimedEngine<E> {
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            probe: EngineProbe::default(),
        }
    }

    fn timed(
        &mut self,
        call: impl FnOnce(&mut E) -> Result<u64, HOramError>,
    ) -> Result<u64, HOramError> {
        let shuffles = self.inner.aggregate_stats().shuffles;
        let start = Instant::now();
        let result = call(&mut self.inner);
        let nanos = start.elapsed().as_nanos() as u64;
        if self.inner.aggregate_stats().shuffles > shuffles {
            self.probe.shuffle_window_ns += nanos;
            self.probe.shuffle_windows += 1;
        } else {
            self.probe.window_ns += nanos;
            self.probe.windows += 1;
        }
        result
    }
}

impl<E: OramEngine> OramEngine for TimedEngine<E> {
    fn validate(&self, request: &Request) -> Result<(), OramError> {
        self.inner.validate(request)
    }

    fn enqueue(&mut self, request: Request) -> Result<u64, HOramError> {
        self.inner.enqueue(request)
    }

    fn take_response(&mut self, ticket: u64) -> Option<Vec<u8>> {
        self.inner.take_response(ticket)
    }

    fn take_failure(&mut self, ticket: u64) -> Option<HOramError> {
        self.inner.take_failure(ticket)
    }

    fn degraded_shards(&self) -> Vec<usize> {
        self.inner.degraded_shards()
    }

    fn run_cycle_window(&mut self, max_cycles: u64) -> Result<u64, HOramError> {
        self.timed(|engine| engine.run_cycle_window(max_cycles))
    }

    fn run_cycle_burst(&mut self, max_cycles: u64, max_windows: u64) -> Result<u64, HOramError> {
        self.timed(|engine| engine.run_cycle_burst(max_cycles, max_windows))
    }

    fn pending_requests(&self) -> usize {
        self.inner.pending_requests()
    }

    fn aggregate_stats(&self) -> HOramStats {
        self.inner.aggregate_stats()
    }

    fn per_shard_stats(&self) -> Vec<HOramStats> {
        self.inner.per_shard_stats()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, OramError> {
        self.inner.snapshot()
    }
}

/// Host time and operation count of one device class's backing stores.
#[derive(Debug, Default)]
pub struct StoreProbe {
    nanos: AtomicU64,
    ops: AtomicU64,
}

impl StoreProbe {
    /// `(seconds, operations)` so far.
    pub fn read(&self) -> (f64, u64) {
        (
            self.nanos.load(Ordering::Relaxed) as f64 / 1e9,
            self.ops.load(Ordering::Relaxed),
        )
    }

    fn record<T>(&self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// A [`DataStore`] that times every block access of the store it wraps.
#[derive(Debug)]
pub struct TimedStore {
    inner: Box<dyn DataStore>,
    probe: Arc<StoreProbe>,
}

impl TimedStore {
    /// The `Device::wrap_store` adapter feeding `probe`.
    pub fn wrapper(
        probe: &Arc<StoreProbe>,
    ) -> impl FnOnce(Box<dyn DataStore>) -> Box<dyn DataStore> {
        let probe = Arc::clone(probe);
        move |inner| Box::new(TimedStore { inner, probe })
    }
}

impl DataStore for TimedStore {
    fn get(&mut self, addr: u64) -> Result<Option<SealedBlock>, StorageError> {
        let inner = &mut self.inner;
        self.probe.record(|| inner.get(addr))
    }

    fn put(&mut self, addr: u64, block: SealedBlock) -> Result<(), StorageError> {
        let inner = &mut self.inner;
        self.probe.record(|| inner.put(addr, block))
    }

    fn remove(&mut self, addr: u64) -> Result<Option<SealedBlock>, StorageError> {
        let inner = &mut self.inner;
        self.probe.record(|| inner.remove(addr))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn clear(&mut self) -> Result<(), StorageError> {
        self.inner.clear()
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }

    fn durable(&self) -> bool {
        self.inner.durable()
    }

    fn snapshot_blocks(&mut self) -> Result<Vec<(u64, SealedBlock)>, StorageError> {
        self.inner.snapshot_blocks()
    }

    fn install_blocks(&mut self, blocks: Vec<(u64, SealedBlock)>) -> Result<(), StorageError> {
        self.inner.install_blocks(blocks)
    }

    fn take_injected_latency_nanos(&mut self) -> u64 {
        self.inner.take_injected_latency_nanos()
    }

    fn can_fault(&self) -> bool {
        self.inner.can_fault()
    }

    fn fault_stats(&self) -> Option<horam::storage::fault::FaultStats> {
        self.inner.fault_stats()
    }
}

/// Median host µs per KiB of `BlockSealer::seal` and `BlockSealer::open`
/// on 1 KiB blocks, as `(seal, open)`.
pub fn crypto_us_per_kib() -> (f64, f64) {
    const ROUNDS: usize = 9;
    const BLOCKS: u64 = 256;
    let sealer = BlockSealer::new(&MasterKey::from_bytes([0x5A; 32]).derive("e2e-bench/crypto", 0));
    let plaintext = crate::check::payload(1, 1);
    let mut seal = Vec::with_capacity(ROUNDS);
    let mut open = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS as u64 {
        let start = Instant::now();
        let sealed: Vec<SealedBlock> = (0..BLOCKS)
            .map(|id| sealer.seal(id, round, &plaintext))
            .collect();
        seal.push(start.elapsed().as_secs_f64() * 1e6 / BLOCKS as f64);
        let start = Instant::now();
        for block in &sealed {
            let opened = sealer.open(block).expect("a block sealed here opens");
            assert_eq!(opened.len(), plaintext.len());
        }
        open.push(start.elapsed().as_secs_f64() * 1e6 / BLOCKS as f64);
    }
    (
        crate::report::median(&mut seal),
        crate::report::median(&mut open),
    )
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
