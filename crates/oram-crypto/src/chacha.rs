//! ChaCha20 stream cipher (RFC 8439).
//!
//! Used throughout the workspace for block encryption ([`crate::seal`]), key
//! derivation ([`crate::keys`]) and deterministic simulation randomness
//! ([`crate::rng`]). The implementation follows the RFC 8439 construction:
//! a 256-bit key, a 96-bit nonce and a 32-bit block counter, 20 rounds.
//!
//! Test vectors were generated with OpenSSL 3.5 (`openssl enc -chacha20`),
//! which agrees byte-for-byte with the RFC 8439 block-function vector.
//!
//! # The batch hot path
//!
//! Every slot that leaves the trusted boundary is sealed and every slot
//! that comes back is opened: one memory-tree access alone re-encrypts 96
//! slots of 1 041 bytes, and the rebuild stream seals every physical slot
//! once per shuffle period. Two things keep that cost down, both
//! bit-identical to the RFC block function:
//!
//! * **cached key schedule** — [`ChaChaKey`] parses the 32 key bytes into
//!   state words once; long-lived callers (`BlockSealer`) construct
//!   streams from it instead of re-parsing the raw key per block;
//! * **one AVX2 kernel** — [`ChaCha20::apply_keystream`] covers every
//!   whole 512-byte run of its input with a kernel that computes eight
//!   keystream blocks per pass, one block per 32-bit lane of sixteen
//!   256-bit registers. The scalar [`ChaCha20::keystream_block`] is the
//!   portable fallback and the test reference, and it covers the tail
//!   after the last whole run (the 17th block of an encoded 1 KiB slot,
//!   the tens-of-bytes storage wire bodies).
//!
//! The kernel is chosen by a run-time CPU check
//! (`is_x86_feature_detected!("avx2")`), not by a build option, so a
//! default release build uses it wherever the CPU has it. On other CPUs
//! and architectures every byte goes through the scalar path. The
//! `chacha20_batch` group of `crates/bench/benches/crypto.rs` measures
//! the kernel against the scalar reference.

/// Key length in bytes (256-bit key).
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (96-bit nonce, RFC 8439 layout).
pub const NONCE_LEN: usize = 12;
/// Keystream block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// Keystream blocks one AVX2 kernel pass produces (one per 32-bit lane).
#[cfg(target_arch = "x86_64")]
const VECTOR_BLOCKS: usize = 8;
/// Bytes one AVX2 kernel pass covers.
#[cfg(target_arch = "x86_64")]
const VECTOR_RUN: usize = BLOCK_LEN * VECTOR_BLOCKS;

/// The four ChaCha constants: ASCII `"expand 32-byte k"` as little-endian words.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A parsed ChaCha20 key schedule: the eight little-endian state words of
/// a 256-bit key.
///
/// Parsing is trivial but shows up when done once per sealed block; a
/// [`ChaChaKey`] is computed once per key lifetime (e.g. per
/// `BlockSealer` epoch) and shared by every stream built from it.
#[derive(Clone, PartialEq, Eq)]
pub struct ChaChaKey {
    words: [u32; 8],
}

impl std::fmt::Debug for ChaChaKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaChaKey")
            .field("words", &"<redacted>")
            .finish()
    }
}

impl ChaChaKey {
    /// Parses a raw 256-bit key into its state words.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut words = [0u32; 8];
        for (i, word) in words.iter_mut().enumerate() {
            *word = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
        }
        Self { words }
    }

    /// The key's eight state words (rows 4..12 of the ChaCha state).
    pub fn words(&self) -> &[u32; 8] {
        &self.words
    }
}

/// A ChaCha20 keystream generator bound to one key and nonce.
///
/// The type is cheap to clone; cloning captures the current stream position.
///
/// # Example
///
/// ```
/// use oram_crypto::chacha::ChaCha20;
///
/// let key = [1u8; 32];
/// let nonce = [2u8; 12];
/// let mut data = *b"attack at dawn";
///
/// ChaCha20::new(&key, &nonce).apply_keystream(&mut data);
/// assert_ne!(&data, b"attack at dawn");
/// ChaCha20::new(&key, &nonce).apply_keystream(&mut data);
/// assert_eq!(&data, b"attack at dawn");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
}

impl ChaCha20 {
    /// Creates a keystream generator starting at block counter 0.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        Self::with_counter(key, nonce, 0)
    }

    /// Creates a keystream generator starting at the given block counter.
    ///
    /// RFC 8439 uses an initial counter of 1 for AEAD payloads; plain stream
    /// encryption conventionally starts at 0.
    pub fn with_counter(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        Self::from_key(&ChaChaKey::new(key), nonce, counter)
    }

    /// Creates a keystream generator from a pre-parsed key schedule —
    /// the batch entry point (no per-call key parsing).
    pub fn from_key(key: &ChaChaKey, nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut nonce_words = [0u32; 3];
        for (i, word) in nonce_words.iter_mut().enumerate() {
            *word = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
        }
        Self {
            key: key.words,
            nonce: nonce_words,
            counter,
        }
    }

    /// Returns the current block counter (the next block to be produced by
    /// [`apply_keystream`](Self::apply_keystream)).
    pub fn counter(&self) -> u32 {
        self.counter
    }

    /// Repositions the stream at the given block counter.
    pub fn seek(&mut self, counter: u32) {
        self.counter = counter;
    }

    /// The initial 16-word state for an explicit counter value.
    #[inline(always)]
    fn state(&self, counter: u32) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);
        state
    }

    /// Produces the 64-byte keystream block for an explicit counter value,
    /// without touching the stream position.
    pub fn keystream_block(&self, counter: u32) -> [u8; BLOCK_LEN] {
        let state = self.state(counter);
        let mut working = state;
        for _ in 0..10 {
            // Column round.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }

        let mut out = [0u8; BLOCK_LEN];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// XORs the keystream into `data`, advancing the stream position.
    ///
    /// Encryption and decryption are the same operation. The stream position
    /// advances by whole blocks, so interleaving calls with non-multiple-of-64
    /// lengths produces a *block-aligned* stream per call; callers that need
    /// byte-granular resume should buffer externally (the ORAM stack always
    /// encrypts whole blocks in one call).
    ///
    /// # Panics
    ///
    /// Panics if the counter would overflow `u32` (more than 256 GiB of
    /// keystream from a single (key, nonce) pair), which indicates key
    /// management misuse.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        let blocks = data.len().div_ceil(BLOCK_LEN) as u64;
        assert!(
            u64::from(self.counter) + blocks <= u64::from(u32::MAX) + 1,
            "chacha20 counter overflow: keystream exhausted for this (key, nonce)"
        );
        let done = self.apply_vector_runs(data);
        for chunk in data[done..].chunks_mut(BLOCK_LEN) {
            let ks = self.keystream_block(self.counter);
            for (byte, k) in chunk.iter_mut().zip(ks.iter()) {
                *byte ^= k;
            }
            self.counter = self.counter.wrapping_add(1);
        }
    }

    /// XORs the keystream into the longest prefix of `data` made of whole
    /// 512-byte runs, using the AVX2 kernel when the CPU reports AVX2, and
    /// returns the length of that prefix: 0 on CPUs without AVX2 or for
    /// inputs shorter than one run. The caller has checked the counter
    /// budget for all of `data`.
    fn apply_vector_runs(&mut self, data: &mut [u8]) -> usize {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            let (runs, _) = data.as_chunks_mut::<VECTOR_RUN>();
            let done = runs.len() * VECTOR_RUN;
            for run in runs {
                // SAFETY: the CPU reports AVX2 (checked just above), the
                // only target feature the kernel enables.
                unsafe { xor_keystream_avx2(&self.key, &self.nonce, self.counter, run) };
                self.counter = self.counter.wrapping_add(VECTOR_BLOCKS as u32);
            }
            return done;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = data;
        0
    }

    /// One-shot convenience: XORs the keystream for `(key, nonce, counter)`
    /// into `data`.
    pub fn apply(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
        Self::with_counter(key, nonce, counter).apply_keystream(data);
    }
}

/// The ChaCha quarter round on state indices `(a, b, c, d)`.
#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// XORs keystream blocks `counter .. counter + 8` into one 512-byte run.
///
/// Lane `l` of state register `i` holds word `i` of block `counter + l`,
/// so every instruction advances all eight blocks. Rotations by 16 and 8
/// are byte shuffles; rotations by 12 and 7 are shift-or pairs. After the
/// rounds, two 8×8 transposes turn the lanes back into block order.
/// Bit-identical to [`ChaCha20::keystream_block`] for each block,
/// including the `u32` wrap of `counter + lane`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn xor_keystream_avx2(key: &[u32; 8], nonce: &[u32; 3], counter: u32, run: &mut [u8; VECTOR_RUN]) {
    use std::arch::x86_64::*;

    // Byte shuffles rotating every 32-bit word left by 16 and by 8 (the
    // pattern repeats per 128-bit half, as `shuffle_epi8` works per half).
    let rot16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
    );
    let rot8 = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
    );

    let mut init = [_mm256_setzero_si256(); 16];
    for (row, &word) in init.iter_mut().zip(CONSTANTS.iter().chain(key)) {
        *row = _mm256_set1_epi32(word as i32);
    }
    init[12] = _mm256_add_epi32(
        _mm256_set1_epi32(counter as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    for (row, &word) in init[13..].iter_mut().zip(nonce) {
        *row = _mm256_set1_epi32(word as i32);
    }

    let mut s = init;
    macro_rules! quarter_round {
        ($a:literal, $b:literal, $c:literal, $d:literal) => {
            s[$a] = _mm256_add_epi32(s[$a], s[$b]);
            s[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(s[$d], s[$a]), rot16);
            s[$c] = _mm256_add_epi32(s[$c], s[$d]);
            let x = _mm256_xor_si256(s[$b], s[$c]);
            s[$b] = _mm256_or_si256(_mm256_slli_epi32::<12>(x), _mm256_srli_epi32::<20>(x));
            s[$a] = _mm256_add_epi32(s[$a], s[$b]);
            s[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(s[$d], s[$a]), rot8);
            s[$c] = _mm256_add_epi32(s[$c], s[$d]);
            let x = _mm256_xor_si256(s[$b], s[$c]);
            s[$b] = _mm256_or_si256(_mm256_slli_epi32::<7>(x), _mm256_srli_epi32::<25>(x));
        };
    }
    for _ in 0..10 {
        // Column round.
        quarter_round!(0, 4, 8, 12);
        quarter_round!(1, 5, 9, 13);
        quarter_round!(2, 6, 10, 14);
        quarter_round!(3, 7, 11, 15);
        // Diagonal round.
        quarter_round!(0, 5, 10, 15);
        quarter_round!(1, 6, 11, 12);
        quarter_round!(2, 7, 8, 13);
        quarter_round!(3, 4, 9, 14);
    }
    for (row, start) in s.iter_mut().zip(init) {
        *row = _mm256_add_epi32(*row, start);
    }

    // `low[l]` is words 0..8 of block `l`, `high[l]` words 8..16: the
    // first and second 32 bytes of its keystream.
    let low = transpose_8x8([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]);
    let high = transpose_8x8([s[8], s[9], s[10], s[11], s[12], s[13], s[14], s[15]]);
    let (halves, _) = run.as_chunks_mut::<32>();
    for (block, (low, high)) in halves.chunks_exact_mut(2).zip(low.into_iter().zip(high)) {
        for (half, ks) in block.iter_mut().zip([low, high]) {
            let ptr = half.as_mut_ptr().cast::<__m256i>();
            // SAFETY: `half` is 32 bytes of writable memory, exactly one
            // unaligned 256-bit load and store; the enclosing function is
            // only entered after the AVX2 check in `apply_vector_runs`.
            unsafe { _mm256_storeu_si256(ptr, _mm256_xor_si256(_mm256_loadu_si256(ptr), ks)) };
        }
    }
}

/// Transposes an 8×8 matrix of 32-bit words held as eight rows: lane `l`
/// of output `j` is lane `j` of input `l`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn transpose_8x8(r: [std::arch::x86_64::__m256i; 8]) -> [std::arch::x86_64::__m256i; 8] {
    use std::arch::x86_64::*;

    // Interleave row pairs, then row quads, per 128-bit half ...
    let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
    let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
    let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
    let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
    let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
    let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
    let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
    let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
    // `u0` holds rows 0..4 of lane 0 (low half) and lane 4 (high half),
    // `u1` lanes 1 and 5, and so on; `u4..u8` the same for rows 4..8.
    let u0 = _mm256_unpacklo_epi64(t0, t2);
    let u1 = _mm256_unpackhi_epi64(t0, t2);
    let u2 = _mm256_unpacklo_epi64(t1, t3);
    let u3 = _mm256_unpackhi_epi64(t1, t3);
    let u4 = _mm256_unpacklo_epi64(t4, t6);
    let u5 = _mm256_unpackhi_epi64(t4, t6);
    let u6 = _mm256_unpacklo_epi64(t5, t7);
    let u7 = _mm256_unpackhi_epi64(t5, t7);
    // ... then join the matching 128-bit halves.
    [
        _mm256_permute2x128_si256::<0x20>(u0, u4),
        _mm256_permute2x128_si256::<0x20>(u1, u5),
        _mm256_permute2x128_si256::<0x20>(u2, u6),
        _mm256_permute2x128_si256::<0x20>(u3, u7),
        _mm256_permute2x128_si256::<0x31>(u0, u4),
        _mm256_permute2x128_si256::<0x31>(u1, u5),
        _mm256_permute2x128_si256::<0x31>(u2, u6),
        _mm256_permute2x128_si256::<0x31>(u3, u7),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn rfc_key() -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        key
    }

    fn rfc_nonce() -> [u8; NONCE_LEN] {
        [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0]
    }

    /// RFC 8439 §2.3.2 block-function vector, regenerated with OpenSSL 3.5:
    /// key 00..1f, nonce 000000090000004a00000000, counter 1.
    #[test]
    fn rfc8439_block_counter_1() {
        let cipher = ChaCha20::new(&rfc_key(), &rfc_nonce());
        let block = cipher.keystream_block(1);
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    /// Second block of the same stream (counter 2), from OpenSSL 3.5.
    #[test]
    fn rfc8439_block_counter_2() {
        let cipher = ChaCha20::new(&rfc_key(), &rfc_nonce());
        let block = cipher.keystream_block(2);
        assert_eq!(
            hex(&block),
            "0a88837739d7bf4ef8ccacb0ea2bb9d69d56c394aa351dfda5bf459f0a2e9fe8\
             e721f89255f9c486bf21679c683d4f9c5cf2fa27865526005b06ca374c86af3b"
        );
    }

    /// The well-known all-zero key/nonce first keystream block.
    #[test]
    fn zero_key_zero_nonce_block_0() {
        let cipher = ChaCha20::new(&[0u8; KEY_LEN], &[0u8; NONCE_LEN]);
        let block = cipher.keystream_block(0);
        assert_eq!(
            hex(&block),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
             da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
        );
    }

    #[test]
    fn streaming_matches_per_block_generation() {
        let mut stream = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), 1);
        let mut data = [0u8; 128];
        stream.apply_keystream(&mut data);
        let reference = ChaCha20::new(&rfc_key(), &rfc_nonce());
        assert_eq!(data[..64], reference.keystream_block(1));
        assert_eq!(data[64..], reference.keystream_block(2));
        assert_eq!(stream.counter(), 3);
    }

    #[test]
    fn cached_key_schedule_matches_raw_key() {
        let schedule = ChaChaKey::new(&rfc_key());
        let from_schedule = ChaCha20::from_key(&schedule, &rfc_nonce(), 1);
        let from_raw = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), 1);
        assert_eq!(from_schedule, from_raw);
        assert_eq!(
            from_schedule.keystream_block(1),
            from_raw.keystream_block(1)
        );
    }

    /// XORs the keystream into `data` one scalar block at a time — the
    /// reference every other path must match byte for byte.
    fn scalar_reference(stream: &ChaCha20, data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(BLOCK_LEN).enumerate() {
            let block = stream.keystream_block(stream.counter().wrapping_add(i as u32));
            for (byte, k) in chunk.iter_mut().zip(block.iter()) {
                *byte ^= k;
            }
        }
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// Applies the dispatched path from `counter` and checks it against the
    /// scalar reference, including the counter it leaves behind.
    fn assert_matches_reference(counter: u32, len: usize) {
        let start = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), counter);
        let mut expected = pattern(len);
        scalar_reference(&start, &mut expected);
        let mut stream = start.clone();
        let mut data = pattern(len);
        stream.apply_keystream(&mut data);
        assert!(data == expected, "counter {counter}, len {len}");
        assert_eq!(
            stream.counter(),
            counter.wrapping_add(len.div_ceil(BLOCK_LEN) as u32),
            "counter {counter}, len {len}"
        );
    }

    #[test]
    fn dispatched_path_matches_scalar_reference_for_every_length() {
        for counter in [0u32, 7] {
            for len in 0..=2100 {
                assert_matches_reference(counter, len);
            }
        }
    }

    #[test]
    fn dispatched_path_matches_scalar_reference_up_to_the_counter_wrap() {
        // The budget fits exactly: the last block uses counter 2^32 - 1 and
        // the stream position wraps to 0, lane by lane as in the scalar path.
        for len in [512usize, 1024, 1041, 2100, 4096] {
            let blocks = len.div_ceil(BLOCK_LEN) as u64;
            let counter = u32::try_from((1u64 << 32) - blocks).expect("fits u32");
            assert_matches_reference(counter, len);
        }
    }

    /// Keystream for key 00..1f, nonce 000000090000004a00000000, counter 1
    /// (the RFC 8439 §2.3.2 stream), 1 041 bytes: one encoded 1 KiB slot.
    /// Generated with OpenSSL 3.5 by encrypting zeros:
    /// `openssl enc -chacha20 -K 0001..1f -iv 01000000000000090000004a00000000`.
    const OPENSSL_RFC_COUNTER1_1041: &[u8] =
        include_bytes!("../testdata/chacha20_rfc_counter1_1041.bin");

    /// Keystream for key 80..9f, nonce 000102030405060708090a0b, counter 0,
    /// 4 096 bytes (eight whole vector runs). Generated with OpenSSL 3.5:
    /// `openssl enc -chacha20 -K 8081..9f -iv 00000000000102030405060708090a0b`.
    const OPENSSL_KEY80_COUNTER0_4096: &[u8] =
        include_bytes!("../testdata/chacha20_key80_counter0_4096.bin");

    #[test]
    fn openssl_vector_1041_bytes() {
        let mut data = vec![0u8; 1041];
        ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), 1).apply_keystream(&mut data);
        assert!(data == OPENSSL_RFC_COUNTER1_1041);
    }

    #[test]
    fn openssl_vector_4096_bytes() {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        let nonce: [u8; NONCE_LEN] = std::array::from_fn(|i| i as u8);
        let mut data = vec![0u8; 4096];
        ChaCha20::new(&key, &nonce).apply_keystream(&mut data);
        assert!(data == OPENSSL_KEY80_COUNTER0_4096);
    }

    #[test]
    fn avx2_cpus_take_the_vector_kernel() {
        // A CPU that reports AVX2 must cover every whole 512-byte run with
        // the kernel; only the 17-byte tail of a 1 041-byte slot is left
        // to the scalar path. Elsewhere nothing is covered.
        #[cfg(target_arch = "x86_64")]
        let expected = if is_x86_feature_detected!("avx2") {
            1024
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let expected = 0;

        let start = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), 1);
        let mut stream = start.clone();
        let mut data = vec![0u8; 1041];
        assert_eq!(stream.apply_vector_runs(&mut data), expected);
        assert_eq!(stream.counter(), 1 + (expected / BLOCK_LEN) as u32);
        assert!(data[..expected] == OPENSSL_RFC_COUNTER1_1041[..expected]);
        assert!(data[expected..].iter().all(|&b| b == 0), "tail left alone");
    }

    #[test]
    fn roundtrip_restores_plaintext() {
        let key = [0xAB; KEY_LEN];
        let nonce = [0xCD; NONCE_LEN];
        let original: Vec<u8> = (0..300).map(|i| (i * 7 % 256) as u8).collect();
        let mut data = original.clone();
        ChaCha20::apply(&key, &nonce, 5, &mut data);
        assert_ne!(data, original);
        ChaCha20::apply(&key, &nonce, 5, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_nonces_produce_unrelated_streams() {
        let key = [3u8; KEY_LEN];
        let a = ChaCha20::new(&key, &[0u8; NONCE_LEN]).keystream_block(0);
        let b = ChaCha20::new(&key, &[1u8; NONCE_LEN]).keystream_block(0);
        assert_ne!(a, b);
        // Keystream blocks should differ in roughly half their bits.
        let differing: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!(differing > 150, "only {differing} differing bits");
    }

    #[test]
    fn seek_repositions_stream() {
        let key = rfc_key();
        let nonce = rfc_nonce();
        let mut stream = ChaCha20::new(&key, &nonce);
        let mut first = [0u8; 64];
        stream.apply_keystream(&mut first);
        stream.seek(0);
        let mut again = [0u8; 64];
        stream.apply_keystream(&mut again);
        assert_eq!(first, again);
    }

    #[test]
    fn partial_block_lengths_are_prefixes() {
        let key = rfc_key();
        let nonce = rfc_nonce();
        let mut long = [0u8; 64];
        ChaCha20::new(&key, &nonce).apply_keystream(&mut long);
        for len in [1usize, 13, 31, 63] {
            let mut short = vec![0u8; len];
            ChaCha20::new(&key, &nonce).apply_keystream(&mut short);
            assert_eq!(short[..], long[..len], "length {len} not a prefix");
        }
    }

    #[test]
    fn debug_redacts_key_schedule() {
        let debug = format!("{:?}", ChaChaKey::new(&rfc_key()));
        assert!(debug.contains("redacted"));
        assert!(!debug.contains("0x"));
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn counter_overflow_panics() {
        let mut stream = ChaCha20::with_counter(&[0u8; KEY_LEN], &[0u8; NONCE_LEN], u32::MAX);
        let mut data = [0u8; 128]; // needs 2 blocks, only 1 remains
        stream.apply_keystream(&mut data);
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn vector_path_respects_counter_budget() {
        let mut stream = ChaCha20::with_counter(&[0u8; KEY_LEN], &[0u8; NONCE_LEN], u32::MAX - 6);
        let mut data = [0u8; 512]; // needs 8 blocks, only 7 remain
        stream.apply_keystream(&mut data);
    }
}
