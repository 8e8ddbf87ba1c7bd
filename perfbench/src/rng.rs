//! Seeded input generation: a SplitMix64 stream plus an FNV-1a digest of everything
//! generated, so two runs can show they drew identical inputs.

use rdms_core::fingerprint::Fnv1a;

/// SplitMix64: tiny, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for one phase, so adding draws to one phase leaves the
    /// others' inputs unchanged.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut base = Rng::new(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        Rng(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i));
    }
}

/// Every combination of one value per parameter, in lexicographic order.
pub fn grid(parameters: &[&[usize]]) -> Vec<Vec<usize>> {
    parameters
        .iter()
        .fold(vec![Vec::new()], |prefixes, values| {
            prefixes
                .iter()
                .flat_map(|prefix| {
                    values.iter().map(move |&v| {
                        let mut next = prefix.clone();
                        next.push(v);
                        next
                    })
                })
                .collect()
        })
}

/// Digest of the generated inputs: every phase feeds the labels of what it drew.
pub struct InputDigest(Fnv1a);

impl InputDigest {
    pub fn new() -> InputDigest {
        InputDigest(Fnv1a::new())
    }

    pub fn feed(&mut self, label: &str) {
        self.0.update(label.as_bytes());
        self.0.update(&[0]);
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}
