//! Deterministic content hashing (FNV-1a, 64-bit), re-exported from
//! `htmpll-fault`, the lowest workspace crate that hashes, so every
//! layer fingerprints bytes with the same function.

pub use htmpll_fault::{fnv64, Fnv1a};
