//! Deterministic randomness: seed derivation and the one generator.
//!
//! Every experiment in this workspace is reproducible from a single master
//! seed. Sub-systems (corpus shards, crowd workers, EM initialization, …)
//! derive independent streams via [`SeedStream`], which mixes a master seed
//! with string tags and integer indices using SplitMix64 — the standard
//! seed-expansion finalizer, whose avalanche properties keep derived streams
//! statistically independent even for adjacent indices. Each stream's seed
//! then drives an [`Rng`]; there is no entropy-seeded constructor.

/// SplitMix64 finalizer: one full-avalanche mixing step.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's seeded generator: xoshiro256** with its four state words
/// seeded by SplitMix64 from one `u64`.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`. SplitMix64 is a bijection, so its four
    /// outputs are never all zero (xoshiro's one fixed point).
    pub fn new(seed: u64) -> Self {
        Self {
            s: std::array::from_fn(|i| {
                splitmix64(seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            }),
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: the top 53 bits.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` by multiply-shift (Lemire); the bias, at most
    /// `n / 2^64`, is irrelevant for corpus synthesis.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample below 0");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "cannot sample an empty range");
        lo + (hi - lo) * self.unit()
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.unit() < p
    }

    /// Fisher–Yates, from the back.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// A uniformly chosen element, `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below(xs.len())])
        }
    }
}

/// FNV-1a over a byte string; used to fold textual tags into seeds.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A named, hierarchical seed stream.
///
/// ```
/// use surveyor_prob::SeedStream;
/// let root = SeedStream::new(42);
/// let corpus = root.child("corpus");
/// let shard3 = corpus.index(3);
/// // Deterministic: the same path always yields the same seed.
/// assert_eq!(shard3.seed(), SeedStream::new(42).child("corpus").index(3).seed());
/// // Distinct paths yield distinct seeds.
/// assert_ne!(shard3.seed(), corpus.index(4).seed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    state: u64,
}

impl SeedStream {
    /// Root stream from a master seed.
    pub fn new(master: u64) -> Self {
        Self {
            state: splitmix64(master),
        }
    }

    /// Derives a child stream for a named sub-system.
    pub fn child(&self, tag: &str) -> Self {
        Self {
            state: splitmix64(self.state ^ fnv1a(tag.as_bytes())),
        }
    }

    /// Derives a child stream for an indexed element (shard, worker, …).
    pub fn index(&self, i: u64) -> Self {
        Self {
            state: splitmix64(
                self.state
                    .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
        }
    }

    /// The 64-bit seed value for this stream, suitable for [`Rng::new`].
    pub fn seed(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_paths() {
        let a = SeedStream::new(7).child("x").index(9).seed();
        let b = SeedStream::new(7).child("x").index(9).seed();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_tags_distinct_seeds() {
        let root = SeedStream::new(7);
        assert_ne!(root.child("corpus").seed(), root.child("crowd").seed());
        assert_ne!(root.child("corpus").seed(), root.seed());
    }

    #[test]
    fn indices_do_not_collide_in_bulk() {
        let stream = SeedStream::new(123).child("shards");
        let seeds: HashSet<u64> = (0..10_000).map(|i| stream.index(i).seed()).collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn different_masters_diverge() {
        let a = SeedStream::new(1).child("c").index(0).seed();
        let b = SeedStream::new(2).child("c").index(0).seed();
        assert_ne!(a, b);
    }

    #[test]
    fn order_of_derivation_matters() {
        let root = SeedStream::new(5);
        assert_ne!(
            root.child("a").child("b").seed(),
            root.child("b").child("a").seed()
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let x = rng.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Rng::new(9);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1_000 {
            let x = rng.uniform(90.0, 650.0);
            assert!((90.0..650.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::new(5);
        let hits = (0..20_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((0.22..0.28).contains(&rate), "rate={rate}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(3);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "50 elements should not shuffle to identity");
    }

    /// The stream every corpus, snapshot and reproduced number is drawn
    /// from, frozen at seed 2015: a change to seeding or to any draw's
    /// arithmetic fails here before it moves an artifact.
    #[test]
    fn stream_at_seed_2015_is_frozen() {
        let mut rng = Rng::new(2015);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                15_884_579_172_074_877_358,
                10_649_050_805_077_927_697,
                15_490_298_832_268_373_387,
                3_895_344_929_837_023_606
            ]
        );
        assert_eq!(Rng::new(2015).unit(), 0.861_104_762_369_078_8);
        let mut rng = Rng::new(2015);
        let indexes: Vec<usize> = (0..8).map(|_| rng.below(7)).collect();
        assert_eq!(indexes, [6, 4, 5, 1, 3, 2, 0, 3]);
        let mut xs: Vec<u32> = (0..10).collect();
        Rng::new(2015).shuffle(&mut xs);
        assert_eq!(xs, [3, 9, 4, 0, 7, 2, 1, 6, 5, 8]);
        let mut rng = Rng::new(2015);
        let hits: Vec<bool> = (0..8).map(|_| rng.chance(0.3)).collect();
        assert_eq!(hits, [false, false, false, true, false, false, true, false]);
    }

    #[test]
    fn splitmix_avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = splitmix64(0xDEAD_BEEF);
        let flipped = splitmix64(0xDEAD_BEEF ^ 1);
        let differing = (base ^ flipped).count_ones();
        assert!(
            (16..=48).contains(&differing),
            "differing bits: {differing}"
        );
    }
}
