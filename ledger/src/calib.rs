//! The speed of the box, measured beside every repetition.
//!
//! This benchmark runs on two virtual cores of a shared host. A
//! neighbour on the sibling hardware thread slows instruction-bound
//! code here by up to 40 %, one that thrashes the shared cache slows
//! memory-bound code as much, for seconds or for minutes at a time,
//! and no steal time shows for either: runs of identical work differ
//! by more than any bound a timing could carry (README, "Noise"). What
//! moves with the box and not with the program is a fixed piece of
//! work that calls nothing in the repository: the calibration slice
//! below. The harness times one slice before and after every
//! repetition and divides the repetition's times by how much slower
//! than nominal the slices around it ran. A timing the benchmark prints
//! therefore reads "seconds on this box at its nominal speed": a
//! change to the program moves it exactly as it moves the wall clock,
//! a busy neighbour much less.
//!
//! The slice has a compute part, which a busy sibling thread slows (an
//! integer mix on four independent chains, then sorts of an array that
//! fits the second-level cache), and a memory part, which a thrashed
//! shared cache slows (dependent loads over 8 MB). Over 400 recorded
//! repetitions of four workloads on a noisy afternoon the repetition
//! times followed `compute^a · memory^b` with `a` from 0.5 to 0.9 and
//! `b` from 0.1 to 0.5; one pair of weights, 2/3 and 1/3, halves the
//! spread of every one of them, and one pair is all there is. A
//! register-only dependent chain held within 2 % through all of it,
//! which is why it is not part of the slice.

use std::hint::black_box;
use std::time::Instant;

/// What the two parts take on this box while the neighbours are quiet.
/// Constants of the benchmark, like a fabric shape: they fix the unit
/// of every timing and never change with the program.
const NOMINAL_COMPUTE_S: f64 = 0.120;
const NOMINAL_MEMORY_S: f64 = 0.098;
const COMPUTE_WEIGHT: f64 = 2.0 / 3.0;

const MIX_ROUNDS: u64 = 60_000_000;
const SORT_ENTRIES: usize = 32 << 10; // 256 KB of u64
const SORTS: usize = 100;
const CHASE_ENTRIES: usize = 2 << 20; // 8 MB of u32
const CHASE_HOPS: usize = 2_400_000;

/// `j ↦ a·j + c (mod 2ⁿ)` with `a ≡ 1 (mod 4)` and `c` odd has full
/// period, so the chase visits every entry before it repeats and no
/// stride predictor follows it.
fn cycle(entries: usize) -> Vec<u32> {
    assert!(entries.is_power_of_two() && entries <= 1 << 32);
    let mask = entries as u64 - 1;
    (0..entries as u64)
        .map(|j| (j.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(77) & mask) as u32)
        .collect()
}

/// Everything the slices touch is allocated here, once, before the
/// workload allocates anything: a slice never enters the allocator, so
/// the state the program leaves the heap in cannot move it.
pub struct Calibrator {
    chase: Vec<u32>,
    sort: Vec<u64>,
    /// Where the chase and the generator stand: each slice continues
    /// from the last.
    at: u32,
    x: u64,
    /// Resident memory the tables added to this process, for the
    /// harness to take off the peak it reports.
    pub resident_mb: f64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let before = crate::harness::status_mb("VmRSS:");
        let chase = cycle(CHASE_ENTRIES);
        let sort = vec![1; SORT_ENTRIES];
        let resident_mb = crate::harness::status_mb("VmRSS:") - before;
        Calibrator {
            chase,
            sort,
            at: 0,
            x: 0x9e37_79b9_7f4a_7c15,
            resident_mb,
        }
    }

    /// Run one slice; returns how much slower than nominal it ran, the
    /// weighted geometric mean of its two parts.
    pub fn slowdown(&mut self) -> f64 {
        let t0 = Instant::now();
        let (mut a, mut b, mut c, mut d) = (self.x | 1, 2u64, 3u64, 4u64);
        let mut taken = 0u64;
        for i in 0..MIX_ROUNDS {
            a = a.wrapping_mul(3).wrapping_add(i);
            b ^= a >> 7;
            c = c.wrapping_add(b | 1);
            d = d.rotate_left(5) ^ c;
            if d & 3 == 0 {
                taken += 1;
            }
        }
        let mut x = black_box(a ^ b ^ c ^ d ^ taken) | 1;
        for _ in 0..SORTS {
            for v in self.sort.iter_mut() {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = x;
            }
            self.sort.sort_unstable();
            black_box(self.sort[17]);
        }
        self.x = x;
        let t1 = Instant::now();
        let mut k = self.at;
        for _ in 0..CHASE_HOPS {
            k = self.chase[k as usize];
        }
        self.at = black_box(k);
        let t2 = Instant::now();
        let compute = (t1 - t0).as_secs_f64() / NOMINAL_COMPUTE_S;
        let memory = (t2 - t1).as_secs_f64() / NOMINAL_MEMORY_S;
        compute.powf(COMPUTE_WEIGHT) * memory.powf(1.0 - COMPUTE_WEIGHT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_over_every_entry() {
        let table = cycle(1 << 10);
        let mut seen = vec![false; table.len()];
        let mut k = 0u32;
        for _ in 0..table.len() {
            assert!(!std::mem::replace(&mut seen[k as usize], true));
            k = table[k as usize];
        }
        assert_eq!(k, 0);
    }
}
