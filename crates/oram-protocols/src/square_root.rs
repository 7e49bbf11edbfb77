//! Square-root ORAM (Goldreich–Ostrovsky construction, paper §2.1.3).
//!
//! The flat-layout ancestor of H-ORAM's storage layer. `N` real blocks plus
//! `√N` dummy blocks are stored at pseudo-randomly permuted positions; a
//! trusted *shelter* (stash) of `√N` slots absorbs one period's accesses:
//!
//! * if the requested block is **not** sheltered, read its permuted slot;
//! * if it **is** sheltered, read the *next unused dummy* slot instead — so
//!   the bus sees one fresh, never-repeated slot per access either way;
//! * after `√N` accesses the shelter is full: write everything back and
//!   reshuffle the whole array under a fresh permutation (a new epoch).
//!
//! The reshuffle here runs as the paper describes for the baseline: a full
//! streaming read + in-enclave permutation + full streaming write, the
//! `O(√N)`-amortized cost that motivates both partition ORAM's and
//! H-ORAM's cheaper shuffles.

use crate::error::OramError;
use crate::oram_trait::Oram;
use crate::types::{BlockContent, BlockId};
use oram_crypto::keys::KeyHierarchy;
use oram_crypto::seal::BlockSealer;
use oram_shuffle::permutation::Permutation;
use oram_storage::clock::SimDuration;
use oram_storage::device::Device;
use std::collections::BTreeMap;

/// Statistics of a square-root ORAM instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquareRootStats {
    /// Logical accesses served.
    pub accesses: u64,
    /// Accesses that read a dummy slot (shelter hits).
    pub dummy_reads: u64,
    /// Full reshuffles performed.
    pub reshuffles: u64,
    /// Simulated time spent reshuffling.
    pub reshuffle_time: SimDuration,
}

/// The square-root ORAM. See the [module docs](self).
#[derive(Debug)]
pub struct SquareRootOram {
    device: Device,
    keys: KeyHierarchy,
    sealer: BlockSealer,
    /// Permutation over all `N + √N` physical slots for the current epoch.
    permutation: Permutation,
    /// Shelter: logical id → payload for blocks touched this period.
    shelter: BTreeMap<BlockId, Vec<u8>>,
    /// Next dummy index (0..√N) to consume for shelter hits.
    next_dummy: u64,
    capacity: u64,
    dummy_count: u64,
    payload_len: usize,
    epoch: u64,
    seal_seq: u64,
    period_seed: u64,
    stats: SquareRootStats,
}

impl SquareRootOram {
    /// Builds a square-root ORAM of `capacity` blocks on `device`, with all
    /// blocks zero-initialized and a fresh permutation installed.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the initial layout write.
    pub fn new(
        capacity: u64,
        payload_len: usize,
        device: Device,
        keys: KeyHierarchy,
        seed: u64,
    ) -> Result<Self, OramError> {
        assert!(capacity > 0, "capacity must be positive");
        let dummy_count = (capacity as f64).sqrt().ceil() as u64;
        let epoch = 0;
        let sealer = BlockSealer::new(&keys.epoch_keys(epoch));
        let mut oram = Self {
            device,
            keys,
            sealer,
            permutation: Permutation::identity((capacity + dummy_count) as usize),
            shelter: BTreeMap::new(),
            next_dummy: 0,
            capacity,
            dummy_count,
            payload_len,
            epoch,
            seal_seq: 0,
            period_seed: seed,
            stats: SquareRootStats::default(),
        };
        oram.install_layout(&BTreeMap::new())?;
        Ok(oram)
    }

    /// Number of dummy blocks (√N).
    pub fn dummy_count(&self) -> u64 {
        self.dummy_count
    }

    /// Accesses remaining before the next forced reshuffle.
    pub fn accesses_until_reshuffle(&self) -> u64 {
        self.dummy_count - self.next_dummy
    }

    /// Statistics of this instance.
    pub fn stats(&self) -> SquareRootStats {
        self.stats
    }

    /// The underlying device (experiment accounting).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Current key epoch (bumps on every reshuffle).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn total_slots(&self) -> u64 {
        self.capacity + self.dummy_count
    }

    /// Logical index space: real blocks are `0..N`, dummies `N..N+√N`.
    fn slot_of_logical(&self, logical: u64) -> u64 {
        self.permutation.apply(logical as usize) as u64
    }

    fn seal_content(
        &mut self,
        slot: u64,
        content: &BlockContent,
    ) -> oram_crypto::seal::SealedBlock {
        let seq = self.seal_seq;
        self.seal_seq += 1;
        self.sealer
            .seal_into(slot, seq, content.encode(self.payload_len))
    }

    /// Writes the full permuted layout, folding in `overrides` (id →
    /// payload) over the blocks currently on the device.
    ///
    /// One streaming pass; also the initial construction path.
    fn install_layout(&mut self, overrides: &BTreeMap<BlockId, Vec<u8>>) -> Result<(), OramError> {
        // Gather current payloads (empty on first install).
        let mut payloads: Vec<Vec<u8>> = vec![vec![0u8; self.payload_len]; self.capacity as usize];
        if self.device.stored_blocks() > 0 {
            let slots = self.device.read_run(0, self.total_slots())?;
            for (slot, sealed) in slots.into_iter().enumerate() {
                let Some(sealed) = sealed else { continue };
                if let BlockContent::Real { id, payload, .. } =
                    BlockContent::decode(&self.sealer.open(&sealed)?, slot as u64)?
                {
                    payloads[id.0 as usize] = payload;
                }
            }
        }
        for (id, payload) in overrides {
            payloads[id.0 as usize] = payload.clone();
        }

        // New epoch: fresh permutation and keys.
        self.epoch += 1;
        self.sealer = BlockSealer::new(&self.keys.epoch_keys(self.epoch));
        self.permutation = Permutation::random(
            self.total_slots() as usize,
            self.period_seed ^ self.epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );

        // Build the permuted image and stream it out.
        let mut image: Vec<Option<oram_crypto::seal::SealedBlock>> =
            (0..self.total_slots()).map(|_| None).collect();
        for logical in 0..self.total_slots() {
            let slot = self.slot_of_logical(logical);
            let content = if logical < self.capacity {
                BlockContent::Real {
                    id: BlockId(logical),
                    leaf: 0,
                    payload: payloads[logical as usize].clone(),
                }
            } else {
                BlockContent::Dummy
            };
            image[slot as usize] = Some(self.seal_content(slot, &content));
        }
        let blocks: Vec<_> = image
            .into_iter()
            .map(|b| b.expect("all slots filled"))
            .collect();
        self.device.write_run(0, blocks)?;
        self.next_dummy = 0;
        Ok(())
    }

    fn check_range(&self, id: BlockId) -> Result<(), OramError> {
        if id.0 >= self.capacity {
            return Err(OramError::BlockOutOfRange {
                id: id.0,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// One oblivious access; `update` optionally replaces the payload.
    fn access_inner(&mut self, id: BlockId, update: Option<&[u8]>) -> Result<Vec<u8>, OramError> {
        self.check_range(id)?;
        if let Some(data) = update {
            if data.len() != self.payload_len {
                return Err(OramError::PayloadSize {
                    expected: self.payload_len,
                    got: data.len(),
                });
            }
        }

        let sheltered = self.shelter.contains_key(&id);
        if sheltered {
            // Shelter hit: burn the next unused dummy slot on the bus.
            let dummy_logical = self.capacity + self.next_dummy;
            let slot = self.slot_of_logical(dummy_logical);
            let _ = self.device.read_block(slot)?;
            self.stats.dummy_reads += 1;
        } else {
            let slot = self.slot_of_logical(id.0);
            let sealed = self.device.read_block(slot)?;
            match BlockContent::decode(&self.sealer.open(&sealed)?, slot)? {
                BlockContent::Real { payload, .. } => {
                    self.shelter.insert(id, payload);
                }
                BlockContent::Dummy => return Err(OramError::MalformedBlock { slot }),
            }
        }
        self.next_dummy += 1;

        let entry = self.shelter.get_mut(&id).expect("sheltered above");
        let previous = entry.clone();
        if let Some(data) = update {
            *entry = data.to_vec();
        }
        self.stats.accesses += 1;

        if self.next_dummy >= self.dummy_count {
            self.reshuffle()?;
        }
        Ok(previous)
    }

    /// Forces the end-of-period reshuffle: write shelter back, re-permute,
    /// re-encrypt, new epoch.
    ///
    /// # Errors
    ///
    /// Storage/crypto errors propagate.
    pub fn reshuffle(&mut self) -> Result<(), OramError> {
        let busy_before = self.device.stats().busy;
        let shelter = std::mem::take(&mut self.shelter);
        self.install_layout(&shelter)?;
        self.stats.reshuffles += 1;
        self.stats.reshuffle_time += self.device.stats().busy - busy_before;
        Ok(())
    }
}

impl Oram for SquareRootOram {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn payload_len(&self) -> usize {
        self.payload_len
    }

    fn read(&mut self, id: BlockId) -> Result<Vec<u8>, OramError> {
        self.access_inner(id, None)
    }

    fn write(&mut self, id: BlockId, data: &[u8]) -> Result<Vec<u8>, OramError> {
        self.access_inner(id, Some(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_crypto::keys::MasterKey;
    use oram_storage::calibration::MachineConfig;
    use oram_storage::clock::SimClock;
    use oram_storage::trace::AccessTrace;
    use std::collections::HashSet;

    fn build(capacity: u64) -> SquareRootOram {
        build_traced(capacity).0
    }

    fn build_traced(capacity: u64) -> (SquareRootOram, AccessTrace) {
        let trace = AccessTrace::new();
        let device = MachineConfig::dac2019().build_storage(SimClock::new(), Some(trace.clone()));
        let keys = KeyHierarchy::new(MasterKey::from_bytes([2; 32]), "sqrt-test");
        (
            SquareRootOram::new(capacity, 4, device, keys, 11).unwrap(),
            trace,
        )
    }

    #[test]
    fn read_your_writes_across_reshuffles() {
        let mut oram = build(25);
        for i in 0..25u64 {
            oram.write(BlockId(i), &[i as u8; 4]).unwrap();
        }
        for i in 0..25u64 {
            assert_eq!(
                oram.read(BlockId(i)).unwrap(),
                vec![i as u8; 4],
                "block {i}"
            );
        }
        assert!(
            oram.stats().reshuffles >= 9,
            "50 accesses / √25 shelter = 10 periods"
        );
    }

    #[test]
    fn period_length_is_sqrt_n() {
        let mut oram = build(100);
        assert_eq!(oram.dummy_count(), 10);
        for i in 0..9u64 {
            oram.read(BlockId(i)).unwrap();
            assert_eq!(oram.stats().reshuffles, 0);
        }
        oram.read(BlockId(9)).unwrap();
        assert_eq!(oram.stats().reshuffles, 1, "10th access closes the period");
    }

    #[test]
    fn each_slot_read_at_most_once_per_period() {
        let (mut oram, trace) = build_traced(64);
        trace.clear();
        // Repeatedly access the same block: shelter absorbs repeats, dummies
        // burn — every bus read address must still be unique.
        for _ in 0..8 {
            oram.read(BlockId(1)).unwrap();
        }
        let reads: Vec<u64> = trace
            .snapshot()
            .iter()
            .filter(|e| e.kind == oram_storage::device::AccessKind::Read && e.bytes == 1024)
            .map(|e| e.addr)
            .collect();
        let unique: HashSet<u64> = reads.iter().copied().collect();
        assert_eq!(
            unique.len(),
            reads.len(),
            "a slot was read twice in one period"
        );
    }

    #[test]
    fn repeated_access_burns_dummies() {
        let mut oram = build(64);
        for _ in 0..5 {
            oram.read(BlockId(7)).unwrap();
        }
        assert_eq!(oram.stats().dummy_reads, 4, "first access real, rest dummy");
    }

    #[test]
    fn epoch_bumps_on_reshuffle() {
        let mut oram = build(16);
        let before = oram.epoch();
        oram.reshuffle().unwrap();
        assert_eq!(oram.epoch(), before + 1);
    }

    #[test]
    fn out_of_range_and_payload_validation() {
        let mut oram = build(9);
        assert!(matches!(
            oram.read(BlockId(9)),
            Err(OramError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            oram.write(BlockId(0), &[1, 2]),
            Err(OramError::PayloadSize {
                expected: 4,
                got: 2
            })
        ));
    }

    #[test]
    fn reshuffle_time_accumulates() {
        let mut oram = build(36);
        for i in 0..6u64 {
            oram.read(BlockId(i)).unwrap();
        }
        assert!(oram.stats().reshuffle_time > SimDuration::ZERO);
    }
}
