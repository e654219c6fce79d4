//! ChaCha20 stream cipher and deterministic CSPRNG (RFC 8439).
//!
//! PAPAYA's asynchronous secure aggregation expands a small per-client random
//! seed into an additive one-time pad "as large as the model" (Section 5,
//! Appendix A.2).  The expansion must be a cryptographically secure PRNG and
//! must be *identically reproducible* on the client (to mask) and inside the
//! TSA (to regenerate the aggregated unmask).  [`ChaCha20Rng`] provides that
//! deterministic keystream; [`ChaCha20`] provides the raw cipher used by the
//! seed-encryption AEAD.

/// The ChaCha20 block function / stream cipher.
#[derive(Clone, Debug)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(7);
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

impl ChaCha20 {
    /// Creates a cipher instance with a 256-bit key and 96-bit nonce,
    /// starting at block `counter`.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut k = [0u32; 8];
        for i in 0..8 {
            k[i] = u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut n = [0u32; 3];
        for i in 0..3 {
            n[i] = u32::from_le_bytes([
                nonce[4 * i],
                nonce[4 * i + 1],
                nonce[4 * i + 2],
                nonce[4 * i + 3],
            ]);
        }
        ChaCha20 {
            key: k,
            nonce: n,
            counter,
        }
    }

    /// The sixteen input words of block `block_counter`: constants, key,
    /// counter, nonce.
    fn input(&self, block_counter: u32) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = block_counter;
        state[13..16].copy_from_slice(&self.nonce);
        state
    }

    /// Produces the 64-byte keystream block for the given block index.
    pub(crate) fn block(&self, block_counter: u32) -> [u8; 64] {
        let state = self.input(block_counter);
        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Writes keystream blocks `first .. first + 4` to `out`, concatenated:
    /// bit-identical to four [`block`](ChaCha20::block) calls, computed four
    /// lanes at a time on x86-64.
    ///
    /// # Panics
    ///
    /// Panics if block `first + 3` would pass block `2^32 - 1`: the 32-bit
    /// counter would wrap and repeat the stream's first blocks.
    fn blocks4(&self, first: u32, out: &mut [u8; 4 * 64]) {
        assert!(
            first <= u32::MAX - 3,
            "ChaCha20: blocks {first}..={first}+3 pass block 2^32 - 1; the 32-bit counter would wrap"
        );
        #[cfg(target_arch = "x86_64")]
        sse2::blocks4(&self.input(first), out);
        #[cfg(not(target_arch = "x86_64"))]
        for (i, chunk) in (0u32..).zip(out.chunks_exact_mut(64)) {
            chunk.copy_from_slice(&self.block(first + i));
        }
    }

    /// Encrypts or decrypts `data` in place (XOR with the keystream starting
    /// at the cipher's initial counter).
    ///
    /// # Panics
    ///
    /// Panics if `data` runs past keystream block `2^32 - 1`: RFC 8439 caps
    /// a message at `2^32` blocks, and a wrapped counter would reuse the
    /// pad of the first blocks.
    pub fn apply_keystream(&self, data: &mut [u8]) {
        let blocks = data.len().div_ceil(64) as u64;
        assert!(
            u64::from(self.counter) + blocks <= 1 << 32,
            "ChaCha20: {} bytes from block {} run past block 2^32 - 1; \
             the 32-bit counter would wrap and reuse the pad",
            data.len(),
            self.counter
        );
        for (block_idx, chunk) in data.chunks_mut(64).enumerate() {
            // In range: asserted above.
            let ks = self.block(self.counter + block_idx as u32);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

/// ChaCha20 on four consecutive blocks at once in SSE2, part of the x86-64
/// baseline: vector `i` holds state word `i` of all four blocks, one block
/// per lane, and a 4×4 transpose per group of four words puts each block's
/// bytes back in order.
#[cfg(target_arch = "x86_64")]
#[expect(unsafe_code, reason = "the SSE2 intrinsics are unsafe to call")]
mod sse2 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32, _mm_shufflehi_epi16,
        _mm_shufflelo_epi16, _mm_slli_epi32, _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32,
        _mm_unpackhi_epi64, _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
    };

    /// Every lane rotated left by `L` bits (`R` = `32 - L`).
    #[target_feature(enable = "sse2")]
    fn rotl<const L: i32, const R: i32>(x: __m128i) -> __m128i {
        _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x))
    }

    /// Every lane rotated by 16 bits: its two halves swapped.
    #[target_feature(enable = "sse2")]
    fn rotl16(x: __m128i) -> __m128i {
        _mm_shufflehi_epi16::<0xB1>(_mm_shufflelo_epi16::<0xB1>(x))
    }

    #[target_feature(enable = "sse2")]
    fn quarter_round(x: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl16(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm_xor_si128(x[b], x[c]));
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl::<8, 24>(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm_xor_si128(x[b], x[c]));
    }

    /// Writes to `out` the keystream of the block with input words `input`
    /// and of the three blocks after it (counter word + 1, + 2, + 3, which
    /// must not wrap).
    pub(super) fn blocks4(input: &[u32; 16], out: &mut [u8; 4 * 64]) {
        // SAFETY: `blocks4_sse2` enables only SSE2, which is part of the
        // x86-64 baseline: every CPU this module compiles for has it.
        unsafe { blocks4_sse2(input, out) }
    }

    /// [`blocks4`] itself.
    ///
    /// # Safety
    ///
    /// Needs SSE2, which every x86-64 CPU has.
    #[target_feature(enable = "sse2")]
    fn blocks4_sse2(input: &[u32; 16], out: &mut [u8; 4 * 64]) {
        let mut state: [__m128i; 16] = core::array::from_fn(|i| _mm_set1_epi32(input[i] as i32));
        state[12] = _mm_add_epi32(state[12], _mm_set_epi32(3, 2, 1, 0));
        let mut x = state;
        for _ in 0..10 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for group in 0..4 {
            let [a, b, c, d] =
                core::array::from_fn(|i| _mm_add_epi32(x[4 * group + i], state[4 * group + i]));
            let ab_low = _mm_unpacklo_epi32(a, b);
            let cd_low = _mm_unpacklo_epi32(c, d);
            let ab_high = _mm_unpackhi_epi32(a, b);
            let cd_high = _mm_unpackhi_epi32(c, d);
            let rows = [
                _mm_unpacklo_epi64(ab_low, cd_low),
                _mm_unpackhi_epi64(ab_low, cd_low),
                _mm_unpacklo_epi64(ab_high, cd_high),
                _mm_unpackhi_epi64(ab_high, cd_high),
            ];
            for (block, row) in rows.into_iter().enumerate() {
                let dest = &mut out[64 * block + 16 * group..][..16];
                // SAFETY: `dest` is 16 writable bytes, and `storeu` has no
                // alignment requirement.
                unsafe { _mm_storeu_si128(dest.as_mut_ptr().cast(), row) };
            }
        }
    }
}

/// Deterministic cryptographically secure random number generator backed by
/// the ChaCha20 keystream.
///
/// This is the PRNG used to expand per-client 16/32-byte seeds into
/// model-sized one-time pads.  Both the client and the TSA construct the same
/// `ChaCha20Rng` from the shared seed, so the masks cancel exactly.
///
/// # Example
///
/// ```
/// use papaya_crypto::chacha20::ChaCha20Rng;
/// let mut a = ChaCha20Rng::from_seed([1u8; 32]);
/// let mut b = ChaCha20Rng::from_seed([1u8; 32]);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct ChaCha20Rng {
    cipher: ChaCha20,
    /// Keystream blocks `first_block .. first_block + 4`.
    buffer: [u8; BUFFER_LEN],
    first_block: u32,
    /// Bytes of `buffer` already handed out.
    offset: usize,
}

/// The generator refills four blocks at a time.
const BUFFER_LEN: usize = 4 * 64;

impl ChaCha20Rng {
    /// Creates a generator from a 256-bit seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let cipher = ChaCha20::new(&seed, &[0u8; 12], 0);
        let mut buffer = [0u8; BUFFER_LEN];
        cipher.blocks4(0, &mut buffer);
        ChaCha20Rng {
            cipher,
            buffer,
            first_block: 0,
            offset: 0,
        }
    }

    /// Creates a generator from a 16-byte seed (the paper's seed size) by
    /// expanding it with SHA-256.
    pub fn from_seed16(seed: [u8; 16]) -> Self {
        let digest = crate::sha256::sha256(&seed);
        Self::from_seed(digest)
    }

    /// Advances to the next four keystream blocks.
    ///
    /// # Panics
    ///
    /// Panics once the stream has handed out all `2^32` blocks its 32-bit
    /// counter can address, rather than wrap and repeat them.
    fn refill(&mut self) {
        let Some(next) = self.first_block.checked_add(4) else {
            panic!("ChaCha20Rng: keystream exhausted at block 2^32; the 32-bit counter would wrap");
        };
        self.cipher.blocks4(next, &mut self.buffer);
        self.first_block = next;
        self.offset = 0;
    }

    /// The next `K` keystream bytes: one copy out of the buffer when it
    /// still holds `K`, [`next_bytes_at_edge`](Self::next_bytes_at_edge)
    /// otherwise.
    #[inline]
    fn next_bytes<const K: usize>(&mut self) -> [u8; K] {
        if self.offset + K > BUFFER_LEN {
            return self.next_bytes_at_edge();
        }
        let mut bytes = [0u8; K];
        bytes.copy_from_slice(&self.buffer[self.offset..self.offset + K]);
        self.offset += K;
        bytes
    }

    /// [`next_bytes`](Self::next_bytes) at the end of the buffer, once per
    /// refill: refill and copy when the buffer is used up, byte by byte
    /// when the `K` bytes straddle the refill.
    #[cold]
    #[inline(never)]
    fn next_bytes_at_edge<const K: usize>(&mut self) -> [u8; K] {
        if self.offset < BUFFER_LEN {
            return core::array::from_fn(|_| self.next_byte());
        }
        self.refill();
        let mut bytes = [0u8; K];
        bytes.copy_from_slice(&self.buffer[..K]);
        self.offset = K;
        bytes
    }

    /// Returns the next byte of keystream.
    #[inline]
    pub fn next_byte(&mut self) -> u8 {
        if self.offset == BUFFER_LEN {
            self.refill();
        }
        let b = self.buffer[self.offset];
        self.offset += 1;
        b
    }

    /// Returns the next 32 bits of keystream (little-endian).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.next_bytes())
    }

    /// Returns the next 64 bits of keystream (little-endian).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.next_bytes())
    }

    /// Fills `dest` with keystream bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for b in dest.iter_mut() {
            *b = self.next_byte();
        }
    }

    /// Returns a uniformly random `u64` below `bound` (rejection sampling).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        let mut out = [0u64];
        self.fill_below(bound, &mut out);
        out[0]
    }

    /// Fills `dest` with uniformly random values below `bound`: the stream
    /// of [`next_below`](ChaCha20Rng::next_below) draws, with the rejection
    /// zone worked out once for the whole slice.
    ///
    /// A 64-bit draw `v` is kept when `v < zone`, the largest multiple of
    /// `bound` that fits below `u64::MAX`, and mapped to `v mod bound`.
    /// Which draws are rejected is part of the stream both ends of the
    /// masking protocol regenerate, so that rule is fixed; only the
    /// reduction is free to be a mask when `bound` is a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn fill_below(&mut self, bound: u64, dest: &mut [u64]) {
        assert!(bound > 0, "bound must be positive");
        let zone = u64::MAX - (u64::MAX % bound);
        let low_bits = bound.is_power_of_two().then(|| bound - 1);
        for slot in dest.iter_mut() {
            let v = loop {
                let v = self.next_u64();
                if v < zone {
                    break v;
                }
            };
            *slot = match low_bits {
                Some(mask) => v & mask,
                None => v % bound,
            };
        }
    }
}

impl rand::RngCore for ChaCha20Rng {
    fn next_u32(&mut self) -> u32 {
        ChaCha20Rng::next_u32(self)
    }
    fn next_u64(&mut self) -> u64 {
        ChaCha20Rng::next_u64(self)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        ChaCha20Rng::fill_bytes(self, dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        ChaCha20Rng::fill_bytes(self, dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 section 2.3.2 test vector.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let cipher = ChaCha20::new(&key, &nonce, 1);
        let block = cipher.block(1);
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 section 2.4.2.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        let cipher = ChaCha20::new(&key, &nonce, 1);
        cipher.apply_keystream(&mut data);
        assert_eq!(hex(&data[..16]), "6e2e359a2568f98041ba0728dd0d6981");
        // Decryption round-trips.
        cipher.apply_keystream(&mut data);
        assert_eq!(&data, plaintext);
    }

    #[test]
    #[should_panic(expected = "counter would wrap")]
    fn keystream_past_the_last_block_panics() {
        // Block 2^32 - 1, then the counter would wrap to 0 and XOR block 0's
        // pad into the second 64 bytes.
        ChaCha20::new(&[1u8; 32], &[2u8; 12], u32::MAX).apply_keystream(&mut [0u8; 128]);
    }

    #[test]
    fn keystream_up_to_the_last_block_is_allowed() {
        let cipher = ChaCha20::new(&[1u8; 32], &[2u8; 12], u32::MAX);
        let mut data = [0u8; 64];
        cipher.apply_keystream(&mut data);
        assert_eq!(data, cipher.block(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "counter would wrap")]
    fn rng_refill_past_the_last_block_panics() {
        let mut rng = ChaCha20Rng::from_seed([3u8; 32]);
        rng.first_block = u32::MAX - 3;
        rng.offset = BUFFER_LEN;
        rng.next_byte();
    }

    #[test]
    #[should_panic(expected = "counter would wrap")]
    fn four_blocks_across_the_wrap_panic() {
        ChaCha20::new(&[1u8; 32], &[2u8; 12], 0).blocks4(u32::MAX - 2, &mut [0u8; 4 * 64]);
    }

    /// The four-block kernel against four calls to the scalar
    /// [`ChaCha20::block`], the RFC 8439 reference: random keys, nonces and
    /// counters, plus the first block and the last four-block run before
    /// the counter would wrap.
    #[test]
    fn four_block_keystream_matches_scalar_blocks() {
        if cfg!(target_arch = "x86_64") {
            println!("four_block_keystream_matches_scalar_blocks: SSE2 arm against block()");
        }
        blocks4_matches_block();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        fn blocks4_matches_block(
            key in proptest::prelude::any::<[u8; 32]>(),
            nonce in proptest::prelude::any::<[u8; 12]>(),
            counter in 0u32..=u32::MAX - 3,
        ) {
            let cipher = ChaCha20::new(&key, &nonce, 0);
            for first in [counter, 0, u32::MAX - 3] {
                let mut four = [0u8; 4 * 64];
                cipher.blocks4(first, &mut four);
                for (i, chunk) in (0u32..).zip(four.chunks_exact(64)) {
                    proptest::prop_assert_eq!(chunk, &cipher.block(first + i)[..], "block {}", first);
                }
            }
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = ChaCha20Rng::from_seed([42u8; 32]);
        let mut b = ChaCha20Rng::from_seed([42u8; 32]);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaCha20Rng::from_seed([1u8; 32]);
        let mut b = ChaCha20Rng::from_seed([2u8; 32]);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn seed16_expansion_deterministic() {
        let mut a = ChaCha20Rng::from_seed16([7u8; 16]);
        let mut b = ChaCha20Rng::from_seed16([7u8; 16]);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_uniform_range() {
        let mut rng = ChaCha20Rng::from_seed([3u8; 32]);
        for bound in [1u64, 2, 7, 100, 1 << 40] {
            for _ in 0..100 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn fill_bytes_spans_blocks() {
        let mut rng = ChaCha20Rng::from_seed([5u8; 32]);
        let mut big = vec![0u8; 300];
        rng.fill_bytes(&mut big);
        // Same output as drawing byte by byte.
        let mut rng2 = ChaCha20Rng::from_seed([5u8; 32]);
        let singles: Vec<u8> = (0..300).map(|_| rng2.next_byte()).collect();
        assert_eq!(big, singles);
    }

    #[test]
    fn rand_rngcore_impl_usable() {
        use rand::Rng;
        let mut rng = ChaCha20Rng::from_seed([9u8; 32]);
        let x: f64 = rng.gen();
        assert!((0.0..1.0).contains(&x));
    }
}
