//! Request streams and the reference model every response is checked
//! against.
//!
//! A stream is generated from the workload seed before timing starts and
//! holds only `(block, is_write)` pairs. A write's payload is a pure
//! function of the seed and the request's index in its stream, so the
//! model stores one version number per block instead of a copy of the
//! bytes: version 0 means "never written" (the engine answers zeros),
//! version `v > 0` means "last written by request `v - 1`".

use horam::workload::{HotspotWorkload, UniformWorkload, WorkloadGenerator, ZipfWorkload};
use std::collections::HashMap;

/// Payload bytes per block (the paper's 1 KiB block).
pub const PAYLOAD: usize = 1024;

/// One generated request.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub block: u64,
    pub write: bool,
}

/// The payload request `index` of the stream seeded `seed` writes.
pub fn payload(seed: u64, index: u64) -> Vec<u8> {
    let mut out = vec![0u8; PAYLOAD];
    let mut state = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x005E_ED0F_B10C;
    for chunk in out.chunks_exact_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    out
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn collect(generator: &mut dyn WorkloadGenerator, offset: u64, count: usize) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let request = generator.next_request();
            Op {
                block: offset + request.id.0,
                write: request.op.is_write(),
            }
        })
        .collect()
}

/// The paper's §5.2.1 hotspot trace, read-only: 80 % of requests fall in
/// a hot region of `hot_blocks` blocks, the rest are uniform.
pub fn hotspot(capacity: u64, hot_blocks: u64, seed: u64, count: usize) -> Vec<Op> {
    let hot_fraction = hot_blocks as f64 / capacity as f64;
    let mut generator = HotspotWorkload::new(capacity, 0.8, hot_fraction, 0.0, 0, seed);
    collect(&mut generator, 0, count)
}

/// Uniform addresses over the whole dataset with the given write share.
pub fn uniform(capacity: u64, write_ratio: f64, seed: u64, count: usize) -> Vec<Op> {
    let mut generator = UniformWorkload::new(capacity, write_ratio, seed);
    collect(&mut generator, 0, count)
}

/// Zipf-skewed addresses over `span` blocks starting at `offset`.
pub fn zipf(
    span: u64,
    offset: u64,
    exponent: f64,
    write_ratio: f64,
    seed: u64,
    count: usize,
) -> Vec<Op> {
    let mut generator = ZipfWorkload::new(span, exponent, write_ratio, seed);
    collect(&mut generator, offset, count)
}

/// Last acknowledged write per block, for one client.
#[derive(Debug, Default)]
pub struct Model {
    versions: HashMap<u64, u64>,
}

impl Model {
    /// Applies request `index` in submission order; returns the version
    /// its response must carry (reads: the current value; writes: the
    /// value they replace).
    pub fn apply(&mut self, index: u64, op: Op) -> u64 {
        let current = self.versions.get(&op.block).copied().unwrap_or(0);
        if op.write {
            self.versions.insert(op.block, index + 1);
        }
        current
    }
}

/// Whether `response` is exactly the payload of `version`.
pub fn matches(seed: u64, version: u64, response: &[u8]) -> bool {
    if version == 0 {
        response.len() == PAYLOAD && response.iter().all(|&b| b == 0)
    } else {
        response == payload(seed, version - 1).as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_at_a_seed() {
        let a = uniform(1 << 10, 0.5, 7, 64);
        let b = uniform(1 << 10, 0.5, 7, 64);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.block == y.block && x.write == y.write));
        assert!(a.iter().any(|op| op.write) && a.iter().any(|op| !op.write));
    }

    #[test]
    fn model_tracks_last_write() {
        let mut model = Model::default();
        let op = |write| Op { block: 3, write };
        assert_eq!(model.apply(0, op(false)), 0);
        assert_eq!(model.apply(1, op(true)), 0);
        assert_eq!(model.apply(2, op(false)), 2);
        assert_eq!(model.apply(3, op(true)), 2);
        assert!(matches(9, 4, &payload(9, 3)));
        assert!(!matches(9, 4, &payload(9, 2)));
        assert!(matches(9, 0, &[0u8; PAYLOAD]));
    }
}
