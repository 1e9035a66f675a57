//! Host-speed calibration.
//!
//! Two fixed kernels owned by the benchmark — a chain of 4-limb
//! Montgomery multiplications (arithmetic-bound) and a sort plus an
//! ordered-map count (branch- and cache-bound) — are timed right before
//! and right after each measured interval. Library changes never touch
//! them. The host's *slowness* is the geometric mean of their times
//! over their reference times, and every reported time is the wall time
//! divided by the slowness around it: the time the interval would take
//! on the reference core. On a shared host whose core speed swings by up
//! to 2× within a minute (neighbour load on a shared physical core), the
//! scaled times stay steady while raw wall times do not; both are
//! printed.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel times on the reference core, in ms: their typical times on the
/// 2-vCPU x86-64 host the benchmark's bounds were set on, so scaled
/// times read close to that host's usual wall times.
const ALU_REFERENCE_MS: f64 = 0.5;
const BRANCH_REFERENCE_MS: f64 = 0.75;

/// The BN254 base-field modulus, little-endian limbs.
const P: [u64; 4] = [
    0x3c20_8c16_d87c_fd47,
    0x9781_6a91_6871_ca8d,
    0xb850_45b6_8181_585d,
    0x3064_4e72_e131_a029,
];
/// `-P^-1 mod 2^64`.
const INV: u64 = 0x87d2_0782_e486_6389;

/// One 4-limb Montgomery multiplication (CIOS) modulo `P`.
fn mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut t = [0u64; 6];
    for &bi in b {
        let mut carry = 0u128;
        for j in 0..4 {
            let s = t[j] as u128 + a[j] as u128 * bi as u128 + carry;
            t[j] = s as u64;
            carry = s >> 64;
        }
        let s = t[4] as u128 + carry;
        t[4] = s as u64;
        t[5] = (s >> 64) as u64;
        let m = t[0].wrapping_mul(INV);
        let mut carry = (t[0] as u128 + m as u128 * P[0] as u128) >> 64;
        for j in 1..4 {
            let s = t[j] as u128 + m as u128 * P[j] as u128 + carry;
            t[j - 1] = s as u64;
            carry = s >> 64;
        }
        let s = t[4] as u128 + carry;
        t[3] = s as u64;
        t[4] = t[5] + (s >> 64) as u64;
    }
    [t[0], t[1], t[2], t[3]]
}

/// 10 000 dependent Montgomery multiplications.
fn alu_ms() -> f64 {
    let mut x = black_box([1u64, 2, 3, 4]);
    let y = black_box([5u64, 6, 7, 8]);
    let t = Instant::now();
    for _ in 0..10_000 {
        x = mont_mul(&x, &y);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Sorts 8 192 scrambled words and counts them into 1 024 map buckets.
fn branch_ms() -> f64 {
    let t = Instant::now();
    let mut v: Vec<u32> = (0..8_192u32)
        .map(|i| i.wrapping_mul(2_654_435_761) >> 7)
        .collect();
    v.sort_unstable();
    let mut counts = BTreeMap::new();
    for x in &v {
        *counts.entry(x % 1_024).or_insert(0u32) += 1;
    }
    black_box(counts.len());
    t.elapsed().as_secs_f64() * 1e3
}

/// How much slower than the reference core the host runs right now.
pub fn slowness() -> f64 {
    (alu_ms() / ALU_REFERENCE_MS * branch_ms() / BRANCH_REFERENCE_MS).sqrt()
}

/// Calibrations taken on each side of a lone interval.
const SIDE: usize = 3;

/// A measured interval: wall time and the host's slowness around it.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub wall_ms: f64,
    pub slowness: f64,
}

impl Timed {
    /// The interval in reference-core milliseconds.
    pub fn scaled_ms(&self) -> f64 {
        self.wall_ms / self.slowness
    }
}

/// Runs `f` between calibrations.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let mut around: Vec<f64> = (0..SIDE).map(|_| slowness()).collect();
    let t = Instant::now();
    let r = f();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    around.extend((0..SIDE).map(|_| slowness()));
    let slowness = median(&around);
    (r, Timed { wall_ms, slowness })
}

#[cfg(test)]
mod tests {
    use super::*;
    use finesse::ff::BigUint;

    #[test]
    fn mont_mul_is_a_montgomery_product() {
        let (a, b) = ([1u64, 2, 3, 4], [5u64, 6, 7, 8]);
        let big = |x: &[u64; 4]| BigUint::from_limbs(x.to_vec());
        let m = big(&P);
        // mont_mul(a, b) · 2^256 ≡ a · b (mod p).
        let lhs = big(&mont_mul(&a, &b)).shl(256).rem(&m);
        assert_eq!(lhs, (&big(&a) * &big(&b)).rem(&m));
    }
}
