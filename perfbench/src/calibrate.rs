//! A fixed reference computation, timed around every measuring window
//! and set-up to track the machine's speed over the run.
//!
//! On a shared host single-thread speed switches between modes up to
//! about 1.9× apart, for seconds at a time, and that swamps any change
//! to the program. The benchmark therefore scales each window's timings
//! by how much slower than [`REF_S`] the kernel ran on either side of
//! it: the figures are those of the same work on the machine at its
//! reference speed.
//!
//! The kernel uses none of the repository's code, so a change to the
//! program cannot change it. It mixes what tuning sessions do: random
//! draws through `powf`/`ln`, small sorts, short-lived allocations and
//! hash-map updates.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Rounds of the kernel per measurement.
pub const ROUNDS: u32 = 2000;

/// The kernel's time at the reference speed: its fastest on the 2-vCPU
/// x86-64 VM (2.1 GHz) the bounds were measured on, where the per-run
/// median was 5.2–6.7 ms.
pub const REF_S: f64 = 0.0044;

/// Runs the kernel for `rounds` rounds; the result only defeats dead
/// code elimination.
pub fn kernel(rounds: u32) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0_f64;
    let mut v: Vec<f64> = Vec::with_capacity(64);
    let mut map: HashMap<u64, u32> = HashMap::new();
    for _ in 0..rounds {
        v.clear();
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            v.push((1.0 - u).powf(-1.0 / 1.7));
        }
        v.sort_by(f64::total_cmp);
        acc += v[0] + v[63].ln();
        *map.entry(x % 4096).or_insert(0) += 1;
        let b: Vec<u32> = (0..16).map(|i| (x >> i) as u32).collect();
        acc += b.iter().map(|&y| f64::from(y)).sum::<f64>() * 1e-12;
    }
    black_box(acc).to_bits() ^ map.len() as u64
}

/// Wall seconds of one [`ROUNDS`]-round kernel run.
pub fn measure() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(ROUNDS)));
    t.elapsed().as_secs_f64()
}

/// How much slower than the reference speed the machine ran over an
/// interval, from the kernel's times just before and just after it.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / REF_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_slowdown_is_relative_to_ref() {
        assert_eq!(kernel(50), kernel(50));
        assert_ne!(kernel(50), kernel(51));
        assert_eq!(slowdown(REF_S, REF_S), 1.0);
        assert_eq!(slowdown(REF_S, 3.0 * REF_S), 2.0);
    }
}
