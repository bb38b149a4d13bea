//! Multiply-rotate hashing for small fixed-width interned-id keys.
//!
//! The default SipHash costs more than the short scans and map probes it
//! protects when the keys are a couple of `u32` interned ids (the PR-2
//! wildcard relation rows sat below 1× for exactly this reason). This
//! Fibonacci-style mix is plenty for keys whose quality requirement is only
//! bucket spread, and is shared by the full-path table ([`crate::rpl`]), the
//! arena's child index ([`crate::arena`]) and the scheduling tree's child
//! maps in `twe-runtime`.
//!
//! Not a general-purpose hasher: no DoS resistance, and `write` (raw bytes)
//! is a plain FNV-style fold kept only for completeness. Do not use it for
//! attacker-controlled or variable-length keys.

use std::collections::HashMap;

/// Multiply-rotate hasher over small integer writes (see the module docs).
#[derive(Default, Clone, Copy)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        // Final avalanche so low-entropy ids spread across high bits too.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0.rotate_left(26) ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(26) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`IdHasher`].
#[derive(Default, Clone, Copy)]
pub struct IdHasherBuilder;

impl std::hash::BuildHasher for IdHasherBuilder {
    type Hasher = IdHasher;
    fn build_hasher(&self) -> IdHasher {
        IdHasher::default()
    }
}

/// A `HashMap` keyed by small interned-id tuples, hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, IdHasherBuilder>;
