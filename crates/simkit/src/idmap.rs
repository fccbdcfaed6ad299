//! Hash maps keyed by ids the simulator issues itself.
//!
//! The standard `HashMap` hashes with keyed SipHash, a defence against
//! keys chosen by an adversary (HashDoS). Image, request and cache ids
//! come from the simulator's own counters, so that defence buys nothing,
//! and on the cache and migration paths SipHash costs a measurable share
//! of the time. [`IdMap`] hashes with one odd-constant multiply and a
//! rotate instead, which spreads sequential ids over the table well
//! enough. As with the standard map, whose order is random per process,
//! no result may depend on the iteration order.
//!
//! # Example
//!
//! ```
//! use modm_simkit::IdMap;
//!
//! let mut m: IdMap<u64, &str> = IdMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiply–rotate hasher behind [`IdMap`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }
}

/// A `HashMap` over simulator-issued ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
