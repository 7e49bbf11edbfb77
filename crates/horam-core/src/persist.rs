//! Durable snapshots of the trusted client state.
//!
//! H-ORAM's trust boundary puts everything *except* the storage device
//! inside the client: stash, position map, permutation list, key epochs,
//! scheduling counters, clocks, statistics. A **snapshot** serializes all
//! of it into one sealed envelope (`oram-crypto::persist`): ChaCha20
//! encryption plus a SipHash tag under keys derived from the instance's
//! master key, so a snapshot at rest leaks nothing beyond its size (and
//! whether two snapshots captured identical state — see
//! [`envelope_seq`]), and any truncation or tampering is rejected at
//! restore time.
//!
//! Together with a durable storage backend
//! (`oram-storage::file::FileStore`), snapshots give the reproduction its
//! recovery invariant:
//!
//! 1. [`HOram::snapshot`](crate::horam::HOram::snapshot) syncs the device
//!    file (its commit point) and seals the trusted state;
//! 2. the engine may then be killed at **any** later cycle boundary —
//!    including mid-period, with the write-back buffer half flushed;
//! 3. reopening the file rolls its undo journal back to the commit point,
//!    [`HOram::restore`](crate::horam::HOram::restore) rebuilds the
//!    client state, and replaying the post-snapshot requests produces
//!    byte-identical responses, traces, and statistics to a run that was
//!    never interrupted (`tests/persistence.rs` proves it by property).
//!
//! This module holds the shared plumbing: envelope kinds, the SIV-style
//! nonce derivation, and the [`HOramConfig`] codec (a snapshot embeds
//! its configuration so restore can validate geometry).

use crate::config::{HOramConfig, PosmapMode, RecursivePosmapConfig, StagePlan};
use oram_crypto::persist::{PersistError, StateReader, StateWriter};
use oram_shuffle::ShuffleAlgorithm;
use oram_storage::cache::{CacheConfig, CachePolicy, MidTierConfig};

/// Envelope kind of a single-instance snapshot.
pub const KIND_SINGLE: u32 = 1;
/// Envelope kind of a sharded manifest (N embedded shard snapshots).
pub const KIND_SHARDED: u32 = 2;

/// Key-derivation domain for snapshot sealing.
pub const SNAPSHOT_DOMAIN: &str = "horam/snapshot";

/// The envelope sequence for a snapshot body: a keyed SipHash PRF of the
/// serialized plaintext (SIV-style deterministic nonce derivation). A
/// monotone counter would repeat with *different* plaintexts whenever
/// execution forks at a restore point — the original and a restored
/// replica would both seal their next snapshot under the same
/// `(key, nonce)` pair, and XORing those ciphertexts cancels the
/// keystream. Deriving the nonce from the content instead means two
/// snapshots collide only when their entire trusted state is identical,
/// in which case the ciphertexts are identical too: the only thing a
/// snapshot at rest can leak is its size and whether two snapshots
/// captured the same state.
pub fn envelope_seq(keys: &oram_crypto::keys::SubKeys, body: &[u8]) -> u64 {
    let mut mac = oram_crypto::siphash::SipHash24::new(keys.prf());
    mac.write_u64(body.len() as u64);
    mac.write(body);
    mac.finish()
}

fn encode_shuffle(algo: ShuffleAlgorithm) -> u8 {
    match algo {
        ShuffleAlgorithm::FisherYates => 0,
        ShuffleAlgorithm::Cache => 1,
        ShuffleAlgorithm::Melbourne => 2,
        ShuffleAlgorithm::Bitonic => 3,
        // `ShuffleAlgorithm` is non-exhaustive; new variants must add a
        // code here before they can be snapshotted.
        other => unreachable!("unencodable shuffle algorithm {other:?}"),
    }
}

fn decode_shuffle(byte: u8) -> Result<ShuffleAlgorithm, PersistError> {
    Ok(match byte {
        0 => ShuffleAlgorithm::FisherYates,
        1 => ShuffleAlgorithm::Cache,
        2 => ShuffleAlgorithm::Melbourne,
        3 => ShuffleAlgorithm::Bitonic,
        other => {
            return Err(PersistError::Malformed(format!(
                "unknown shuffle algorithm {other}"
            )))
        }
    })
}

/// Serializes a full [`HOramConfig`] (embedded in every snapshot so
/// restore can rebuild derived structures and validate geometry).
pub fn save_config(config: &HOramConfig, w: &mut StateWriter) {
    w.put_u64(config.capacity);
    w.put_usize(config.payload_len);
    w.put_u64(config.memory_slots);
    w.put_u32(config.z);
    w.put_usize(config.stages.len());
    for stage in &config.stages {
        w.put_u32(stage.c);
        w.put_f64(stage.fraction);
    }
    w.put_usize(config.prefetch_distance);
    w.put_u8(encode_shuffle(config.evict_shuffle));
    w.put_u8(encode_shuffle(config.partition_shuffle));
    match config.partial_shuffle_ratio {
        None => w.put_bool(false),
        Some(r) => {
            w.put_bool(true);
            w.put_f64(r);
        }
    }
    w.put_u64(config.io_batch);
    w.put_usize(config.worker_threads);
    w.put_f64(config.partition_headroom);
    save_cache_config(config.cache.as_ref(), w);
    save_posmap_mode(&config.posmap, w);
    w.put_u64(config.seed);
}

fn save_posmap_mode(posmap: &PosmapMode, w: &mut StateWriter) {
    let PosmapMode::Recursive(rcfg) = posmap else {
        w.put_bool(false);
        return;
    };
    w.put_bool(true);
    w.put_opt_u64(rcfg.fanout);
    w.put_opt_u64(rcfg.levels.map(u64::from));
    w.put_u64(rcfg.root_threshold);
    w.put_usize(rcfg.cache_pages);
    match &rcfg.backing_dir {
        None => w.put_bool(false),
        Some(dir) => {
            w.put_bool(true);
            w.put_bytes(dir.as_bytes());
        }
    }
}

fn load_posmap_mode(r: &mut StateReader<'_>) -> Result<PosmapMode, PersistError> {
    if !r.get_bool()? {
        return Ok(PosmapMode::Flat);
    }
    let fanout = r.get_opt_u64()?;
    let levels = match r.get_opt_u64()? {
        None => None,
        Some(levels) => Some(
            u32::try_from(levels)
                .map_err(|_| PersistError::Malformed(format!("posmap levels {levels}")))?,
        ),
    };
    let root_threshold = r.get_u64()?;
    let cache_pages = r.get_usize()?;
    let backing_dir = if r.get_bool()? {
        let dir = String::from_utf8(r.get_bytes()?.to_vec())
            .map_err(|_| PersistError::Malformed("posmap backing dir not UTF-8".into()))?;
        Some(dir)
    } else {
        None
    };
    Ok(PosmapMode::Recursive(RecursivePosmapConfig {
        fanout,
        levels,
        root_threshold,
        cache_pages,
        backing_dir,
    }))
}

fn save_cache_config(cache: Option<&CacheConfig>, w: &mut StateWriter) {
    let Some(cache) = cache else {
        w.put_bool(false);
        return;
    };
    w.put_bool(true);
    w.put_u64(cache.capacity_blocks);
    w.put_u8(match cache.policy {
        CachePolicy::Lru => 0,
        CachePolicy::Clock => 1,
    });
    w.put_u64(cache.hit_nanos);
    w.put_f64(cache.writeback_sync_fraction);
    match &cache.mid {
        None => w.put_bool(false),
        Some(mid) => {
            w.put_bool(true);
            w.put_u64(mid.capacity_blocks);
            match &mid.file {
                None => w.put_bool(false),
                Some(path) => {
                    w.put_bool(true);
                    w.put_bytes(path.as_bytes());
                }
            }
            w.put_usize(mid.file_slot_bytes);
        }
    }
    w.put_bool(cache.leaky_hits);
}

fn load_cache_config(r: &mut StateReader<'_>) -> Result<Option<CacheConfig>, PersistError> {
    if !r.get_bool()? {
        return Ok(None);
    }
    let capacity_blocks = r.get_u64()?;
    let policy = match r.get_u8()? {
        0 => CachePolicy::Lru,
        1 => CachePolicy::Clock,
        other => {
            return Err(PersistError::Malformed(format!("cache policy tag {other}")));
        }
    };
    let hit_nanos = r.get_u64()?;
    let writeback_sync_fraction = r.get_f64()?;
    let mid = if r.get_bool()? {
        let capacity_blocks = r.get_u64()?;
        let file = if r.get_bool()? {
            let path = String::from_utf8(r.get_bytes()?.to_vec())
                .map_err(|_| PersistError::Malformed("mid-tier path not UTF-8".into()))?;
            Some(path)
        } else {
            None
        };
        let file_slot_bytes = r.get_usize()?;
        Some(MidTierConfig {
            capacity_blocks,
            file,
            file_slot_bytes,
        })
    } else {
        None
    };
    let leaky_hits = r.get_bool()?;
    Ok(Some(CacheConfig {
        capacity_blocks,
        policy,
        hit_nanos,
        writeback_sync_fraction,
        mid,
        leaky_hits,
    }))
}

/// Reads a configuration serialized by [`save_config`].
///
/// # Errors
///
/// [`PersistError`] on truncation or malformed fields.
pub fn load_config(r: &mut StateReader<'_>) -> Result<HOramConfig, PersistError> {
    let capacity = r.get_u64()?;
    let payload_len = r.get_usize()?;
    let memory_slots = r.get_u64()?;
    let z = r.get_u32()?;
    let stage_count = r.get_usize()?;
    if stage_count == 0 || stage_count > 64 {
        return Err(PersistError::Malformed(format!(
            "{stage_count} scheduler stages"
        )));
    }
    let mut stages = Vec::with_capacity(stage_count);
    for _ in 0..stage_count {
        stages.push(StagePlan {
            c: r.get_u32()?,
            fraction: r.get_f64()?,
        });
    }
    let prefetch_distance = r.get_usize()?;
    let evict_shuffle = decode_shuffle(r.get_u8()?)?;
    let partition_shuffle = decode_shuffle(r.get_u8()?)?;
    let partial_shuffle_ratio = if r.get_bool()? {
        Some(r.get_f64()?)
    } else {
        None
    };
    let io_batch = r.get_u64()?;
    let worker_threads = r.get_usize()?;
    let partition_headroom = r.get_f64()?;
    let cache = load_cache_config(r)?;
    let posmap = load_posmap_mode(r)?;
    let seed = r.get_u64()?;
    Ok(HOramConfig {
        capacity,
        payload_len,
        memory_slots,
        z,
        stages,
        prefetch_distance,
        evict_shuffle,
        partition_shuffle,
        partial_shuffle_ratio,
        io_batch,
        worker_threads,
        partition_headroom,
        cache,
        posmap,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrips_exactly() {
        let config = HOramConfig::new(4096, 16, 1024)
            .with_seed(99)
            .with_io_batch(8)
            .with_partial_shuffle(0.25)
            .with_worker_threads(3);
        let mut w = StateWriter::new();
        save_config(&config, &mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let back = load_config(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(config, back);
    }

    #[test]
    fn cached_config_roundtrips_exactly() {
        let mut cache = CacheConfig::clock(128).with_mid_tier(512);
        cache.mid.as_mut().unwrap().file = Some("/tmp/mid.dat".into());
        cache.mid.as_mut().unwrap().file_slot_bytes = 96;
        let config = HOramConfig::new(4096, 16, 1024).with_cache(cache);
        let mut w = StateWriter::new();
        save_config(&config, &mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let back = load_config(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(config, back);
    }

    #[test]
    fn recursive_posmap_config_roundtrips_exactly() {
        let config = HOramConfig::new(1 << 14, 32, 512).with_posmap(PosmapMode::Recursive(
            RecursivePosmapConfig {
                fanout: Some(16),
                levels: Some(2),
                root_threshold: 32,
                cache_pages: 4,
                backing_dir: Some("/tmp/posmap".into()),
            },
        ));
        let mut w = StateWriter::new();
        save_config(&config, &mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let back = load_config(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(config, back);
    }

    #[test]
    fn truncated_config_errors() {
        let config = HOramConfig::new(64, 8, 16);
        let mut w = StateWriter::new();
        save_config(&config, &mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = StateReader::new(&bytes[..cut]);
            assert!(
                load_config(&mut r).and_then(|_| r.finish()).is_err(),
                "cut at {cut} accepted"
            );
        }
    }
}
