//! Deterministic random number generation.
//!
//! Every stochastic component in the workspace (workload arrivals, bid
//! prices, demand draws) takes a [`DeterministicRng`] so that a single
//! top-level seed reproduces an entire experiment. [`derive_rng`] splits
//! independent named streams off a root seed, so adding a new consumer
//! never perturbs the draws seen by existing ones — figures stay stable
//! as the codebase grows.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The RNG used throughout the workspace.
///
/// ChaCha8 is seedable, portable across platforms, and fast enough that it
/// never shows up in the auction's profile.
pub type DeterministicRng = ChaCha8Rng;

/// Creates the root RNG for an experiment from a single seed.
///
/// # Examples
///
/// ```
/// use edge_common::rng::seeded_rng;
/// use rand::Rng;
///
/// let mut a = seeded_rng(42);
/// let mut b = seeded_rng(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> DeterministicRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives an independent named stream from a root seed.
///
/// The stream label is hashed (FNV-1a) into the seed so that
/// `derive_rng(s, "arrivals")` and `derive_rng(s, "prices")` are
/// decorrelated, and each is stable under changes to the other.
///
/// # Examples
///
/// ```
/// use edge_common::rng::derive_rng;
/// use rand::Rng;
///
/// let mut arrivals = derive_rng(7, "arrivals");
/// let mut prices = derive_rng(7, "prices");
/// // Independent streams from the same root seed.
/// assert_ne!(arrivals.gen::<u64>(), prices.gen::<u64>());
/// ```
pub fn derive_rng(root_seed: u64, stream: &str) -> DeterministicRng {
    ChaCha8Rng::seed_from_u64(root_seed ^ fnv1a64(stream.as_bytes()))
}

/// FNV-1a 64-bit hash of a byte string.
///
/// The workspace's digest primitive: stream-label mixing here, outcome
/// digests, and — through [`chain_genesis`] and [`chain_step`] — every
/// log, state and network-tape digest chain. Stable across releases —
/// never change the constants, or every recorded log digest breaks.
///
/// # Examples
///
/// ```
/// use edge_common::rng::fnv1a64;
///
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// The genesis of a digest chain: the FNV-1a of
/// `"{tag}:v{version}:{header}"`.
pub fn chain_genesis(tag: &str, version: u64, header: &[u8]) -> u64 {
    let hash = fnv1a_extend(fnv1a64(tag.as_bytes()), b":v");
    fnv1a_extend(fnv1a_extend(fnv1a_decimal(hash, version), b":"), header)
}

/// One link of a digest chain: the FNV-1a of
/// `"{prev:016x}:{seq}:{payload}"`, streamed into the hash without
/// building the string.
pub fn chain_step(prev: u64, seq: u64, payload: &[u8]) -> u64 {
    let hex: [u8; 16] =
        std::array::from_fn(|i| b"0123456789abcdef"[((prev >> (60 - 4 * i)) & 0xf) as usize]);
    let hash = fnv1a_decimal(fnv1a_extend(fnv1a64(&hex), b":"), seq);
    fnv1a_extend(fnv1a_extend(hash, b":"), payload)
}

/// Continues an FNV-1a 64 hash over `bytes`.
fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Continues an FNV-1a 64 hash over `n` spelled in decimal.
fn fnv1a_decimal(hash: u64, mut n: u64) -> u64 {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return fnv1a_extend(hash, &digits[start..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(1);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_streams_are_reproducible() {
        let mut a = derive_rng(99, "arrivals");
        let mut b = derive_rng(99, "arrivals");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn derived_streams_are_independent_per_label() {
        let mut a = derive_rng(99, "arrivals");
        let mut b = derive_rng(99, "prices");
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        // And of "a" — standard published vector.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn chain_steps_hash_the_formatted_bytes() {
        for (prev, seq) in [(0, 0), (0xcbf2_9ce4_8422_2325, 9), (u64::MAX, u64::MAX)] {
            for payload in ["", "\"RoundClosed\"", "{\"units\":12}"] {
                let formatted = format!("{prev:016x}:{seq}:{payload}");
                assert_eq!(
                    chain_step(prev, seq, payload.as_bytes()),
                    fnv1a64(formatted.as_bytes())
                );
            }
        }
        for version in [0, 1, 2, 10, u64::MAX] {
            let formatted = format!("edge-net:v{version}:{{}}");
            assert_eq!(
                chain_genesis("edge-net", version, b"{}"),
                fnv1a64(formatted.as_bytes())
            );
        }
    }
}
