//! Deterministic, dependency-free content hashing (FNV-1a, 64-bit).
//!
//! The one hash of the workspace: fault scopes and keys are derived
//! from request and matrix bytes with it, and machine-readable reports
//! are fingerprinted with it so that "two runs produced
//! bitwise-identical results" collapses to a single hex-digest
//! comparison — the cross-stack verification corpus relies on this to
//! assert that thread count does not change any numerical output.
//!
//! FNV-1a is not cryptographic; it is a fast, stable checksum whose
//! value is fully determined by the input bytes (no randomized state,
//! unlike `std::collections::hash_map::DefaultHasher`).
//!
//! ```
//! use htmpll_fault::Fnv1a;
//!
//! let mut h = Fnv1a::new();
//! h.write(b"hello");
//! h.write_f64(1.5);
//! let a = h.finish();
//! let mut h2 = Fnv1a::new();
//! h2.write(b"hello");
//! h2.write_f64(1.5);
//! assert_eq!(a, h2.finish());
//! ```

/// Streaming 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a UTF-8 string (its bytes).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// Absorbs an `f64` by its exact IEEE-754 bit pattern, so two values
    /// hash equal iff they are bitwise identical (`0.0` and `-0.0`
    /// differ; every NaN payload is distinguished).
    pub fn write_f64(&mut self, x: f64) {
        self.write(&x.to_bits().to_le_bytes());
    }

    /// Absorbs a `u64`.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// The current digest as a fixed-width lowercase hex string.
    pub fn finish_hex(&self) -> String {
        format!("{:016x}", self.state)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// FNV-1a over bytes in one shot — the canonical way to derive scopes
/// and keys from strings (request canonical JSON, matrix content) so
/// every layer hashes identically.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn f64_bit_exactness() {
        let mut a = Fnv1a::new();
        a.write_f64(0.0);
        let mut b = Fnv1a::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "sign of zero must be visible");

        let mut c = Fnv1a::new();
        c.write_f64(1.0 / 3.0);
        let mut d = Fnv1a::new();
        d.write_f64(1.0 / 3.0);
        assert_eq!(c.finish(), d.finish());
    }

    #[test]
    fn streaming_matches_concatenation() {
        let mut a = Fnv1a::new();
        a.write(b"ab");
        a.write(b"cd");
        assert_eq!(a.finish(), fnv64(b"abcd"));
    }

    #[test]
    fn hex_digest_is_fixed_width() {
        let h = Fnv1a::new();
        assert_eq!(h.finish_hex().len(), 16);
        assert_eq!(h.finish_hex(), format!("{:016x}", 0xcbf29ce484222325u64));
    }
}
