//! Seeded generation: every input the program receives derives from the
//! workload seed through this generator.

/// SplitMix64: a tiny, well-mixed generator with a 64-bit state, so a
/// workload seed reproduces every draw on any platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per use so independent draws (the
    /// session plan, the job mix, pause points) do not share a stream.
    pub fn new(seed: u64, salt: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in salt.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, "plan");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, "plan");
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut other = Rng::new(7, "jobs");
        assert_ne!(a[0], other.next_u64(), "salts separate streams");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = Rng::new(3, "perm");
        for n in 0..20 {
            let mut p = r.permutation(n);
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        }
    }
}
