//! The benchmark's own seeded generator. Inputs must repeat for a
//! seed across commits, so they cannot depend on the workspace's
//! vendored `rand` stand-in, whose stream a later change may alter.

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `lane` so that two inputs
    /// drawn from one `--seed` do not share a sequence.
    pub fn new(seed: u64, lane: u64) -> Rng {
        Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below
    /// anything a workload mix can show.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() <= p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Due times, in seconds from the start of the phase, of an open-loop
/// arrival process at `rate_hz` with exponential gaps, up to
/// `duration_s`. Independent users make an open loop: the schedule
/// never waits for the service.
pub fn open_loop_schedule(rng: &mut Rng, rate_hz: f64, duration_s: f64) -> Vec<f64> {
    let mut due = Vec::with_capacity((rate_hz * duration_s) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate_hz;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = open_loop_schedule(&mut Rng::new(7, 1), 800.0, 5.0);
        let b = open_loop_schedule(&mut Rng::new(7, 1), 800.0, 5.0);
        let c = open_loop_schedule(&mut Rng::new(8, 1), 800.0, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Lanes separate streams drawn from one seed.
        assert_ne!(a, open_loop_schedule(&mut Rng::new(7, 2), 800.0, 5.0));
    }

    #[test]
    fn schedule_has_the_asked_rate_and_is_ordered() {
        let due = open_loop_schedule(&mut Rng::new(3, 0), 1000.0, 20.0);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert!(due.last().is_some_and(|&t| t < 20.0));
        let rate = due.len() as f64 / 20.0;
        assert!((rate - 1000.0).abs() < 30.0, "rate {rate}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..512).collect();
        Rng::new(1, 0).shuffle(&mut v);
        assert_ne!(v, (0..512).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..512).collect::<Vec<_>>());
    }
}
