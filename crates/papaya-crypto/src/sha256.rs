//! SHA-256 (FIPS 180-4) implemented from scratch.
//!
//! Used for HMAC, attestation measurement hashes, Merkle-tree nodes, and key
//! derivation throughout the secure-aggregation stack.

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use papaya_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(hex(&h.finalize()),
///            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
/// fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher in its initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// A hasher that has absorbed exactly one 64-byte block and holds the
    /// chaining value `state` it left.  [`crate::hmac`] resumes from the
    /// state after a key's pad block this way.
    pub(crate) fn after_one_block(state: [u32; 8]) -> Self {
        Sha256 {
            state,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 64,
        }
    }

    /// The chaining value after the blocks absorbed so far (buffered bytes
    /// short of a block are not in it).
    pub(crate) fn chaining_value(&self) -> [u32; 8] {
        self.state
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while let Some((block, rest)) = input.split_first_chunk::<64>() {
            self.compress(block);
            input = rest;
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, 8-byte big-endian bit
        // length — written straight into the buffered block, with one extra
        // block when fewer than 9 bytes of it are free.
        let mut block = self.buffer;
        block[self.buffer_len] = 0x80;
        block[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot convenience wrapper around [`Sha256`].
///
/// # Example
///
/// ```
/// let d = papaya_crypto::sha256::sha256(b"hello");
/// assert_eq!(d.len(), 32);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn padding_boundary_vectors() {
        // Known answers (hashlib) at the lengths where the padding changes
        // shape: 55 is the longest message whose pad fits its own block, 56
        // to 64 spill the length into a second block, and 119/120 repeat
        // both one block later.  Message byte `i` is `(7 i + 3) mod 251`.
        let vectors = [
            (
                55usize,
                "1deace58c745f3ecadde68a5923f494c3703fa73f0306483ccb898a5826e8d70",
            ),
            (
                56,
                "06dbe23685750e4d3881ded95047abaf93fa8f9c5d3501dc57c717a72ff1398e",
            ),
            (
                63,
                "47fb38b12335c9298d09280515c0666489a189d1554bb0ac1a0740806ce9d8b6",
            ),
            (
                64,
                "dfa798724b1a8014994f363e5da7474ed26ce3757fb29e07aa47ad5a9352d37b",
            ),
            (
                119,
                "c6e0f435df5d7d265baacca31e0602c00aa22fa6d3819aed664649294c743756",
            ),
            (
                120,
                "17eb8960823a644bde3065620bb9d45931fe8993fd8eb692a17aff0fd725db6a",
            ),
        ];
        for (len, expected) in vectors {
            let message: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 251) as u8).collect();
            assert_eq!(hex(&sha256(&message)), expected, "len {len}");
        }
    }

    #[test]
    fn exactly_one_block_boundary() {
        // 55, 56, 63, 64, 65 byte inputs exercise padding edge cases.
        for len in [55usize, 56, 63, 64, 65, 119, 120] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            // Compare against a second computation with byte-by-byte updates.
            let mut h2 = Sha256::new();
            for b in &data {
                h2.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), h2.finalize(), "len {len}");
        }
    }
}
