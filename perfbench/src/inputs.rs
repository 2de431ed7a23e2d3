//! Seeded input generation. Every input a workload feeds the program comes
//! from here, derived from the workload seed alone: the same seed gives
//! bitwise-identical inputs in every process, so a reference run in another
//! process sees exactly what the measured run saw.

/// SplitMix64: a small, well-mixed generator with a 64-bit state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream, keyed by the seed and a stream tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

const STREAM_CG_RHS: u64 = 1;
const STREAM_BS_PARAMS: u64 = 2;
const STREAM_DRIFT_SHAPES: u64 = 3;
const STREAM_DRIFT_DATA: u64 = 4;

/// CG's right-hand side: `rows` values in `[0.5, 1.5)`.
pub fn cg_rhs(seed: u64, rows: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed, STREAM_CG_RHS);
    (0..rows).map(|_| rng.uniform(0.5, 1.5)).collect()
}

/// Spot, strike and expiry of the simulation-only Black-Scholes workload,
/// whose option arrays are filled with one value each (they hold no data).
pub fn bs_params(seed: u64) -> [f64; 3] {
    let mut rng = Rng::new(seed, STREAM_BS_PARAMS);
    [
        rng.uniform(50.0, 150.0),
        rng.uniform(50.0, 150.0),
        rng.uniform(0.05, 2.05),
    ]
}

/// Shortest array of the drifting stream.
pub const DRIFT_MIN_LEN: u64 = 2048;
/// Number of distinct array lengths the drifting stream can draw from; a
/// run stops measuring before it would reuse one.
pub const DRIFT_LENGTHS: u64 = 8192;
/// Equal bands the lengths are split into. Consecutive groups of this many
/// iterations take one length from each band, so every group does about the
/// same work and the set-up and the first phases see the same spread of
/// sizes under every seed.
pub const DRIFT_BANDS: u64 = 4;

/// The drifting stream's array lengths, one per iteration: group `g` holds
/// the `g`-th entry of a seeded permutation of each band of
/// `DRIFT_MIN_LEN..DRIFT_MIN_LEN + DRIFT_LENGTHS`, so no length repeats
/// within a run.
pub fn drift_lengths(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, STREAM_DRIFT_SHAPES);
    let band = DRIFT_LENGTHS / DRIFT_BANDS;
    let bands: Vec<Vec<u64>> = (0..DRIFT_BANDS)
        .map(|b| {
            let lo = DRIFT_MIN_LEN + b * band;
            let mut lens: Vec<u64> = (lo..lo + band).collect();
            for i in (1..lens.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                lens.swap(i, j);
            }
            lens
        })
        .collect();
    (0..band as usize)
        .flat_map(|g| bands.iter().map(move |lens| lens[g]))
        .collect()
}

/// One batch's option arrays (spot, strike, expiry) of length `len` for
/// iteration `iteration` of the drifting stream.
pub fn drift_batch(seed: u64, iteration: u64, batch: u64, len: u64) -> [Vec<f64>; 3] {
    let mut rng = Rng::new(seed, STREAM_DRIFT_DATA ^ (iteration << 8) ^ (batch << 40));
    let mut draw = |lo: f64, hi: f64| (0..len).map(|_| rng.uniform(lo, hi)).collect::<Vec<f64>>();
    let s = draw(50.0, 150.0);
    let k = draw(50.0, 150.0);
    let t = draw(0.05, 2.05);
    [s, k, t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn same_seed_gives_bitwise_identical_inputs() {
        assert_eq!(bits(&cg_rhs(7, 1000)), bits(&cg_rhs(7, 1000)));
        assert_eq!(bits(&bs_params(7)), bits(&bs_params(7)));
        assert_eq!(drift_lengths(7), drift_lengths(7));
        for (a, b) in drift_batch(7, 3, 5, 500)
            .iter()
            .zip(drift_batch(7, 3, 5, 500).iter())
        {
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn different_seeds_give_different_drift_shapes() {
        let (a, b) = (drift_lengths(1), drift_lengths(2));
        assert_ne!(a[..64], b[..64]);
        assert_ne!(bits(&cg_rhs(1, 64)), bits(&cg_rhs(2, 64)));
    }

    #[test]
    fn drift_lengths_never_repeat_and_every_group_spans_the_bands() {
        let lens = drift_lengths(11);
        assert_eq!(lens.len() as u64, DRIFT_LENGTHS);
        let band = DRIFT_LENGTHS / DRIFT_BANDS;
        for group in lens.chunks(DRIFT_BANDS as usize) {
            for (b, &len) in group.iter().enumerate() {
                assert_eq!((len - DRIFT_MIN_LEN) / band, b as u64);
            }
        }
        let mut sorted = lens;
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len() as u64, DRIFT_LENGTHS);
        assert_eq!(sorted[0], DRIFT_MIN_LEN);
    }

    #[test]
    fn batches_and_iterations_get_distinct_data() {
        let a = drift_batch(3, 0, 0, 16);
        let b = drift_batch(3, 0, 1, 16);
        let c = drift_batch(3, 1, 0, 16);
        assert_ne!(bits(&a[0]), bits(&b[0]));
        assert_ne!(bits(&a[0]), bits(&c[0]));
        assert!(a[2].iter().all(|&t| (0.05..2.05).contains(&t)));
    }
}
