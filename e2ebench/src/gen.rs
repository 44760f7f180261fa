//! Seeded content: every byte the benchmark writes is a pure function of a
//! key and its offset, so any range read back can be regenerated and
//! compared byte for byte without keeping a copy.

/// SplitMix64's finalizer: a fast, well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a sub-key from a key and a label (thread, record, file ...).
pub fn derive(key: u64, label: u64) -> u64 {
    mix(key ^ mix(label))
}

/// Fill `buf` with the content stream of `key` starting at `offset`: byte
/// `o` of the stream is byte `o % 8` of `mix(key ^ o / 8)`.
pub fn fill(key: u64, offset: u64, buf: &mut [u8]) {
    let mut o = offset;
    let mut i = 0;
    while i < buf.len() {
        let word = mix(key ^ (o / 8)).to_le_bytes();
        let start = (o % 8) as usize;
        let n = (8 - start).min(buf.len() - i);
        buf[i..i + n].copy_from_slice(&word[start..start + n]);
        i += n;
        o += n as u64;
    }
}

/// Does `data` equal the content stream of `key` at `offset`? `scratch` is
/// reused between calls to avoid an allocation per check.
pub fn matches(key: u64, offset: u64, data: &[u8], scratch: &mut Vec<u8>) -> bool {
    scratch.resize(data.len(), 0);
    fill(key, offset, scratch);
    scratch[..] == *data
}

/// A small deterministic generator for offsets and op choices.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed))
    }

    /// Next raw value.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_offset_consistent() {
        let mut whole = vec![0u8; 100];
        fill(7, 3, &mut whole);
        let mut part = vec![0u8; 40];
        fill(7, 3 + 37, &mut part);
        assert_eq!(&whole[37..77], &part[..]);
        let mut scratch = Vec::new();
        assert!(matches(7, 40, &part, &mut scratch));
        assert!(!matches(8, 40, &part, &mut scratch));
    }
}
