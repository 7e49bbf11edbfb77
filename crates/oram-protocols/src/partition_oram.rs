//! Partition ORAM (paper §2.1.4, after Stefanov–Shi–Song).
//!
//! The second flat-layout ancestor of H-ORAM, and the protocol whose
//! security H-ORAM's group-partition shuffle reduces to (§4.3.3). The
//! database is divided into `√N` partitions of ≈`√N` blocks. Every access
//! fetches exactly one block from the partition the position map names,
//! shelters it, and reassigns it to a uniformly random partition; every `v`
//! accesses (`v ≤ √N`, the *shuffle period*), the sheltered blocks are
//! evicted to their assigned partitions and only those partitions are
//! reshuffled — amortizing the reshuffle that square-root ORAM pays in one
//! monolithic pass.
//!
//! Simplifications versus the published system (documented for DESIGN.md):
//! each partition is a flat permuted array rather than a level hierarchy,
//! and evictions re-permute whole partitions. The properties the paper's
//! arguments use — one storage touch per access, per-partition reshuffles,
//! uniform partition choice — are preserved exactly.

use crate::error::OramError;
use crate::oram_trait::Oram;
use crate::types::{BlockContent, BlockId};
use oram_crypto::keys::KeyHierarchy;
use oram_crypto::rng::DeterministicRng;
use oram_crypto::seal::BlockSealer;
use oram_shuffle::permutation::Permutation;
use oram_storage::clock::SimDuration;
use oram_storage::device::Device;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};

/// Statistics of a partition ORAM instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Logical accesses served.
    pub accesses: u64,
    /// Dummy reads issued for sheltered blocks.
    pub dummy_reads: u64,
    /// Eviction rounds performed.
    pub evictions: u64,
    /// Individual partitions reshuffled.
    pub partitions_shuffled: u64,
    /// Simulated time spent in eviction/shuffle rounds.
    pub shuffle_time: SimDuration,
}

/// Where a block currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    /// In partition `p`, at permuted in-partition index `i`.
    Stored { partition: u32, index: u32 },
    /// In the shelter, already reassigned to partition `p`.
    Sheltered { assigned: u32 },
}

/// The partition ORAM. See the [module docs](self).
#[derive(Debug)]
pub struct PartitionOram {
    device: Device,
    sealer: BlockSealer,
    residence: Vec<Residence>,
    /// Per-partition block lists: partition → in-partition index → logical id
    /// (`None` = dummy slot).
    partitions: Vec<Vec<Option<BlockId>>>,
    shelter: BTreeMap<BlockId, Vec<u8>>,
    rng: DeterministicRng,
    capacity: u64,
    partition_count: u32,
    /// Slots per partition (includes dummy headroom).
    partition_slots: u32,
    /// Accesses per eviction round (the paper's `v`).
    evict_period: u32,
    accesses_since_evict: u32,
    payload_len: usize,
    epoch: u64,
    seal_seq: u64,
    stats: PartitionStats,
}

impl PartitionOram {
    /// Builds a partition ORAM of `capacity` blocks on `device`.
    ///
    /// `evict_period` is the paper's `v` (defaults to `√N/2` when `None`):
    /// the number of accesses between eviction rounds.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the initial layout write.
    pub fn new(
        capacity: u64,
        payload_len: usize,
        evict_period: Option<u32>,
        device: Device,
        keys: KeyHierarchy,
        seed: u64,
    ) -> Result<Self, OramError> {
        assert!(capacity > 0, "capacity must be positive");
        let partition_count = (capacity as f64).sqrt().ceil() as u32;
        // Headroom: partitions receive evictions before their next shuffle;
        // 2× the balanced load keeps overflow negligible, and overflows are
        // absorbed by early eviction.
        let balanced = capacity.div_ceil(partition_count as u64) as u32;
        let partition_slots = (2 * balanced).max(4);
        let evict_period = evict_period.unwrap_or((partition_count / 2).max(1));
        assert!(evict_period >= 1, "eviction period must be positive");

        // Partial reshuffles keep one sealing key (see `evict`); epoch 0's
        // bundle serves the instance lifetime, uniqueness coming from the
        // per-seal sequence number.
        let epoch = 0;
        let sealer = BlockSealer::new(&keys.epoch_keys(epoch));
        let mut oram = Self {
            device,
            sealer,
            residence: vec![Residence::Sheltered { assigned: 0 }; capacity as usize],
            partitions: vec![vec![None; partition_slots as usize]; partition_count as usize],
            shelter: BTreeMap::new(),
            rng: DeterministicRng::from_u64_seed(seed),
            capacity,
            partition_count,
            partition_slots,
            evict_period,
            accesses_since_evict: 0,
            payload_len,
            epoch,
            seal_seq: 0,
            stats: PartitionStats::default(),
        };
        oram.initial_layout()?;
        Ok(oram)
    }

    /// Number of partitions (√N).
    pub fn partition_count(&self) -> u32 {
        self.partition_count
    }

    /// The eviction period `v`.
    pub fn evict_period(&self) -> u32 {
        self.evict_period
    }

    /// Statistics of this instance.
    pub fn stats(&self) -> PartitionStats {
        self.stats
    }

    /// The underlying device (experiment accounting).
    pub fn device(&self) -> &Device {
        &self.device
    }

    fn partition_base(&self, partition: u32) -> u64 {
        partition as u64 * self.partition_slots as u64
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

    /// Round-robin initial distribution, then per-partition permutation and
    /// one streaming write of the whole layout.
    fn initial_layout(&mut self) -> Result<(), OramError> {
        let mut payloads: HashMap<BlockId, Vec<u8>> = HashMap::new();
        for id in 0..self.capacity {
            let partition = (id % self.partition_count as u64) as u32;
            payloads.insert(BlockId(id), vec![0u8; self.payload_len]);
            self.place_in_partition(BlockId(id), partition);
        }
        for partition in 0..self.partition_count {
            self.write_partition(partition, &payloads)?;
        }
        Ok(())
    }

    /// Records `id` into the partition table at the first free slot.
    fn place_in_partition(&mut self, id: BlockId, partition: u32) {
        let slots = &mut self.partitions[partition as usize];
        let index = slots
            .iter()
            .position(|s| s.is_none())
            .expect("partition headroom exhausted — eviction policy broken");
        slots[index] = Some(id);
        self.residence[id.0 as usize] = Residence::Stored {
            partition,
            index: index as u32,
        };
    }

    /// Rewrites one partition: fresh in-partition permutation, fresh
    /// sealing, one streaming read+write. `payloads` supplies block
    /// contents for ids not currently on the device.
    fn write_partition(
        &mut self,
        partition: u32,
        payloads: &HashMap<BlockId, Vec<u8>>,
    ) -> Result<(), OramError> {
        let base = self.partition_base(partition);
        let slot_count = self.partition_slots as usize;

        // Current on-device contents (absent during initial construction).
        let mut current: HashMap<BlockId, Vec<u8>> = HashMap::new();
        if self.device.stored_blocks() > 0 {
            let slots = self.device.read_run(base, slot_count as u64)?;
            for (offset, sealed) in slots.into_iter().enumerate() {
                let Some(sealed) = sealed else { continue };
                if let BlockContent::Real { id, payload, .. } =
                    BlockContent::decode(&self.sealer.open(&sealed)?, base + offset as u64)?
                {
                    current.insert(id, payload);
                }
            }
        }

        // Fresh permutation of in-partition positions.
        let members: Vec<BlockId> = self.partitions[partition as usize]
            .iter()
            .flatten()
            .copied()
            .collect();
        let perm = Permutation::random(slot_count, {
            use rand::RngCore;
            self.rng.next_u64()
        });
        let mut layout: Vec<Option<BlockId>> = vec![None; slot_count];
        for (dense, id) in members.iter().enumerate() {
            let index = perm.apply(dense) as u32;
            layout[index as usize] = Some(*id);
            self.residence[id.0 as usize] = Residence::Stored { partition, index };
        }
        self.partitions[partition as usize] = layout.clone();

        let mut image = Vec::with_capacity(slot_count);
        for (offset, slot) in layout.into_iter().enumerate() {
            let addr = base + offset as u64;
            let content = match slot {
                Some(id) => {
                    let payload = payloads
                        .get(&id)
                        .or_else(|| current.get(&id))
                        .cloned()
                        .unwrap_or_else(|| vec![0u8; self.payload_len]);
                    BlockContent::Real {
                        id,
                        leaf: 0,
                        payload,
                    }
                }
                None => BlockContent::Dummy,
            };
            image.push(self.seal_content(addr, &content));
        }
        self.device.write_run(base, image)?;
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

        match self.residence[id.0 as usize] {
            Residence::Stored { partition, index } => {
                let addr = self.partition_base(partition) + index as u64;
                let sealed = self.device.read_block(addr)?;
                let BlockContent::Real { payload, .. } =
                    BlockContent::decode(&self.sealer.open(&sealed)?, addr)?
                else {
                    return Err(OramError::MalformedBlock { slot: addr });
                };
                // Remove from partition table; reassign to a random partition.
                self.partitions[partition as usize][index as usize] = None;
                let assigned = self.rng.gen_range(0..self.partition_count);
                self.residence[id.0 as usize] = Residence::Sheltered { assigned };
                self.shelter.insert(id, payload);
            }
            Residence::Sheltered { .. } => {
                // Shelter hit: issue a dummy read at a random slot of a
                // random partition so the bus still sees one storage touch.
                let partition = self.rng.gen_range(0..self.partition_count);
                let offset = self.rng.gen_range(0..self.partition_slots as u64);
                let _ = self.device.charge(
                    oram_storage::device::AccessKind::Read,
                    self.partition_base(partition) + offset,
                    self.device.charged_block_bytes(),
                );
                self.stats.dummy_reads += 1;
            }
        }

        let entry = self.shelter.get_mut(&id).expect("sheltered above");
        let previous = entry.clone();
        if let Some(data) = update {
            *entry = data.to_vec();
        }
        self.stats.accesses += 1;
        self.accesses_since_evict += 1;

        if self.accesses_since_evict >= self.evict_period {
            self.evict()?;
        }
        Ok(previous)
    }

    /// Eviction round: write every sheltered block to its assigned
    /// partition and reshuffle exactly those partitions.
    ///
    /// # Errors
    ///
    /// Storage/crypto errors propagate.
    pub fn evict(&mut self) -> Result<(), OramError> {
        let busy_before = self.device.stats().busy;
        let shelter = std::mem::take(&mut self.shelter);
        let mut by_partition: HashMap<u32, Vec<(BlockId, Vec<u8>)>> = HashMap::new();
        for (id, payload) in shelter {
            let Residence::Sheltered { assigned } = self.residence[id.0 as usize] else {
                unreachable!("shelter and residence out of sync");
            };
            by_partition
                .entry(assigned)
                .or_default()
                .push((id, payload));
        }

        let mut touched: Vec<u32> = by_partition.keys().copied().collect();
        touched.sort_unstable();
        for partition in touched {
            let mut members = by_partition.remove(&partition).expect("keyed above");
            // Overflow handling (as in the published protocol): a partition
            // that cannot absorb all its assignees keeps the excess
            // sheltered under fresh random assignments until a later round.
            let free = self.partitions[partition as usize]
                .iter()
                .filter(|s| s.is_none())
                .count();
            let overflow = if members.len() > free {
                members.split_off(free)
            } else {
                Vec::new()
            };
            for (id, payload) in overflow {
                let assigned = self.rng.gen_range(0..self.partition_count);
                self.residence[id.0 as usize] = Residence::Sheltered { assigned };
                self.shelter.insert(id, payload);
            }
            let payloads: HashMap<BlockId, Vec<u8>> = members.iter().cloned().collect();
            for (id, _) in &members {
                self.place_in_partition(*id, partition);
            }
            self.write_partition(partition, &payloads)?;
            self.stats.partitions_shuffled += 1;
        }
        self.accesses_since_evict = 0;
        self.stats.evictions += 1;
        // Partial reshuffles cannot rotate the sealing key: untouched
        // partitions keep their existing ciphertexts. Freshness comes from
        // the per-seal sequence number; full key rotation across complete
        // reshuffles is exercised by SquareRootOram and H-ORAM.
        self.epoch += 1;
        self.stats.shuffle_time += self.device.stats().busy - busy_before;
        Ok(())
    }
}

impl Oram for PartitionOram {
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

    fn build(capacity: u64) -> PartitionOram {
        build_traced(capacity).0
    }

    fn build_traced(capacity: u64) -> (PartitionOram, AccessTrace) {
        let trace = AccessTrace::new();
        let device = MachineConfig::dac2019().build_storage(SimClock::new(), Some(trace.clone()));
        let keys = KeyHierarchy::new(MasterKey::from_bytes([4; 32]), "partition-test");
        (
            PartitionOram::new(capacity, 4, None, device, keys, 21).unwrap(),
            trace,
        )
    }

    #[test]
    fn read_your_writes_across_evictions() {
        let mut oram = build(64);
        for i in 0..64u64 {
            oram.write(BlockId(i), &[i as u8; 4]).unwrap();
        }
        for i in (0..64u64).rev() {
            assert_eq!(
                oram.read(BlockId(i)).unwrap(),
                vec![i as u8; 4],
                "block {i}"
            );
        }
        assert!(oram.stats().evictions > 0);
    }

    #[test]
    fn partition_count_is_sqrt_n() {
        let oram = build(100);
        assert_eq!(oram.partition_count(), 10);
    }

    #[test]
    fn one_storage_read_per_access() {
        let (mut oram, trace) = build_traced(64);
        trace.clear();
        let reads_before = oram.device().stats().reads;
        // Access within one eviction period.
        for i in 0..oram.evict_period().min(3) as u64 {
            oram.read(BlockId(i)).unwrap();
        }
        let n = oram.evict_period().min(3) as u64;
        let reads = oram.device().stats().reads - reads_before;
        assert_eq!(
            reads, n,
            "exactly one storage read per access before eviction"
        );
    }

    #[test]
    fn sheltered_blocks_cost_dummy_reads() {
        let mut oram = build(400); // evict period = 10: room for repeats
        oram.read(BlockId(5)).unwrap();
        oram.read(BlockId(5)).unwrap();
        oram.read(BlockId(5)).unwrap();
        assert_eq!(oram.stats().dummy_reads, 2);
    }

    #[test]
    fn eviction_fires_every_v_accesses() {
        let mut oram = build(100);
        let v = oram.evict_period() as u64;
        for i in 0..v {
            oram.read(BlockId(i)).unwrap();
        }
        assert_eq!(oram.stats().evictions, 1);
        assert!(oram.stats().partitions_shuffled >= 1);
        assert!(
            oram.stats().partitions_shuffled <= v,
            "only assigned partitions reshuffle"
        );
    }

    #[test]
    fn eviction_shuffles_only_touched_partitions() {
        let mut oram = build(400);
        let v = oram.evict_period() as u64;
        for i in 0..v {
            oram.read(BlockId(i)).unwrap();
        }
        // v blocks spread over ≤ v partitions out of 20.
        assert!(oram.stats().partitions_shuffled <= v);
        assert!((oram.stats().partitions_shuffled as u32) < oram.partition_count());
    }

    #[test]
    fn validation_errors() {
        let mut oram = build(16);
        assert!(matches!(
            oram.read(BlockId(16)),
            Err(OramError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            oram.write(BlockId(0), &[9]),
            Err(OramError::PayloadSize {
                expected: 4,
                got: 1
            })
        ));
    }

    #[test]
    fn long_mixed_workload_stays_consistent() {
        let mut oram = build(49);
        let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = DeterministicRng::from_u64_seed(31);
        for _ in 0..600 {
            let id = rng.gen_range(0..49u64);
            if rng.gen_bool(0.4) {
                let payload = vec![rng.gen_range(0..=255u8); 4];
                let prev = oram.write(BlockId(id), &payload).unwrap();
                let expected = reference.insert(id, payload).unwrap_or(vec![0u8; 4]);
                assert_eq!(prev, expected);
            } else {
                let got = oram.read(BlockId(id)).unwrap();
                let expected = reference.get(&id).cloned().unwrap_or(vec![0u8; 4]);
                assert_eq!(got, expected, "block {id}");
            }
        }
    }
}
