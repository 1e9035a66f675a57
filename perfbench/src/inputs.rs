//! Seeded input generation and the on-disk input format.
//!
//! Every input a workload consumes — registry keys, signatures and
//! messages as canonical wire bytes, the SRS bytes, polynomial
//! coefficients, evaluation points, forged indices and the design-point
//! order — is derived from the seed here, written to one file, and read
//! back by a separate, cold measured process. The FNV-1a digest of that
//! file is the input digest: the same seed must give the same digest on
//! every commit.

use crate::workload::{Workload, SWEEP_POINTS};
use finesse::curves::{Compression, Curve};
use finesse::ff::BigUint;
use finesse::poly::Srs;
use std::sync::Arc;

/// SplitMix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `(workload, seed)`; workloads never share a stream.
    pub fn new(workload: Workload, seed: u64) -> Rng {
        let mut rng = Rng(seed ^ 0x7065_7266_6265_6e63); // "perfbenc"
        for b in workload.name().bytes() {
            rng.0 ^= u64::from(b);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A nonzero scalar mod `r`.
    pub fn scalar(&mut self, r: &BigUint) -> BigUint {
        loop {
            let limbs = (0..r.limbs().len()).map(|_| self.next_u64()).collect();
            let s = BigUint::from_limbs(limbs).rem(r);
            if !s.is_zero() {
                return s;
            }
        }
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// `k` distinct indices from `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let i = self.below(n);
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }
}

/// 64-bit FNV-1a, printed as the input and simulated-statistics digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Length-prefixed little-endian record writer.
#[derive(Default)]
pub struct Writer(pub Vec<u8>);

impl Writer {
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.0.extend_from_slice(b);
    }
}

/// The matching reader; every accessor fails on truncated input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or("truncated input file")?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    pub fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    pub fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    pub fn finish(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err("trailing bytes in input file".into())
        }
    }
}

/// Sizes of the generated inputs; the tests shrink them.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Ops including the leading warm-up op.
    pub ops: usize,
    /// Validator registry size (BLS).
    pub registry: usize,
    /// Signatures per op (BLS) or polynomial degree + 1 (KZG).
    pub batch: usize,
    /// Committee keys per op (`bls_verify_hot`).
    pub committee: usize,
    /// SRS powers (KZG).
    pub srs_powers: usize,
    /// Evaluation points per round (KZG).
    pub points: usize,
}

/// One signature of a BLS op.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    pub key: usize,
    pub msg: Vec<u8>,
    pub sig: Vec<u8>,
}

/// One BLS op: the batch and, if forged, the index of its one bad entry.
#[derive(Clone, Debug, PartialEq)]
pub struct BlsOp {
    pub entries: Vec<Entry>,
    pub forged: Option<usize>,
}

/// One KZG round: coefficients and evaluation points, reduced mod r.
#[derive(Clone, Debug, PartialEq)]
pub struct Round {
    pub coeffs: Vec<BigUint>,
    pub points: Vec<BigUint>,
}

/// Every input of one run, as the measured process loads it.
pub enum Inputs {
    Bls {
        registry: Vec<Vec<u8>>,
        ops: Vec<BlsOp>,
    },
    Kzg {
        srs: Vec<u8>,
        rounds: Vec<Round>,
    },
    Codesign {
        order: Vec<usize>,
    },
}

/// Which measured ops carry a forged signature, and at which index:
/// exactly one op in four, never the warm-up op 0, chosen by the seed.
pub fn plan_forgeries(rng: &mut Rng, ops: usize, batch: usize) -> Vec<Option<usize>> {
    let measured = ops - 1;
    let forged: Vec<usize> = rng.distinct(measured / 4, measured);
    (0..ops)
        .map(|i| (i > 0 && forged.contains(&(i - 1))).then(|| rng.below(batch)))
        .collect()
}

/// Maps `f` over `0..n` on two threads, in order (generation only; the
/// measured process is single-threaded).
fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mid = n / 2;
    std::thread::scope(|s| {
        let hi = s.spawn(|| (mid..n).map(&f).collect::<Vec<_>>());
        let mut out: Vec<T> = (0..mid).map(&f).collect();
        out.extend(hi.join().expect("generator thread"));
        out
    })
}

fn bls_sign(curve: &Curve, sk: &BigUint, msg: &[u8]) -> Vec<u8> {
    let h = curve.hash_to_g1(msg).expect("hashable message");
    curve.encode_g1(&curve.g1_mul(&h, sk), Compression::Compressed)
}

/// Generates a BLS workload's inputs: a registry of `shape.registry`
/// keys and `shape.ops` batches. When `hot`, every op signs with the
/// same `shape.committee` keys and is honest (`bls_verify_hot`);
/// otherwise each op draws `batch` distinct registry
/// keys and one measured op in four is forged (`bls_verify_cold`).
pub fn gen_bls(curve: &Arc<Curve>, rng: &mut Rng, shape: Shape, hot: bool) -> Inputs {
    let r = curve.r();
    let sks: Vec<BigUint> = (0..shape.registry).map(|_| rng.scalar(r)).collect();
    let registry = par_map(sks.len(), |i| {
        let pk = curve.g2_mul(curve.g2_generator(), &sks[i]);
        curve.encode_g2(&pk, Compression::Compressed)
    });
    let committee = rng.distinct(shape.committee, shape.registry);
    let forged = if hot {
        vec![None; shape.ops]
    } else {
        plan_forgeries(rng, shape.ops, shape.batch)
    };
    // Draw every key and message up front so the signing threads see a
    // fixed plan.
    let plans: Vec<Vec<(usize, Vec<u8>)>> = (0..shape.ops)
        .map(|_| {
            let keys = if hot {
                (0..shape.batch)
                    .map(|j| committee[j % committee.len()])
                    .collect()
            } else {
                rng.distinct(shape.batch, shape.registry)
            };
            keys.into_iter().map(|k| (k, rng.bytes(32))).collect()
        })
        .collect();
    let ops = par_map(shape.ops, |i| {
        let entries = plans[i]
            .iter()
            .enumerate()
            .map(|(j, (key, msg))| {
                // A forged entry is a valid G1 point signed by the right
                // key over a different message: it decodes cleanly and
                // fails only the pairing check.
                let signed = if forged[i] == Some(j) {
                    [msg.as_slice(), b"/forged"].concat()
                } else {
                    msg.clone()
                };
                Entry {
                    key: *key,
                    msg: msg.clone(),
                    sig: bls_sign(curve, &sks[*key], &signed),
                }
            })
            .collect();
        BlsOp {
            entries,
            forged: forged[i],
        }
    });
    Inputs::Bls { registry, ops }
}

/// Generates the KZG inputs: an SRS of `shape.srs_powers` powers (τ
/// from the seed) and `shape.ops` rounds of `shape.batch` coefficients
/// with `shape.points` distinct evaluation points each.
pub fn gen_kzg(curve: &Arc<Curve>, rng: &mut Rng, shape: Shape) -> Inputs {
    let r = curve.r();
    let tau_seed = rng.next_u64().to_le_bytes();
    let srs = Srs::generate(curve, shape.srs_powers - 1, &tau_seed).to_bytes();
    let rounds = (0..shape.ops)
        .map(|_| {
            let coeffs = (0..shape.batch).map(|_| rng.scalar(r)).collect();
            let mut points: Vec<BigUint> = Vec::with_capacity(shape.points);
            while points.len() < shape.points {
                let z = rng.scalar(r);
                if !points.contains(&z) {
                    points.push(z);
                }
            }
            Round { coeffs, points }
        })
        .collect();
    Inputs::Kzg { srs, rounds }
}

/// The codesign sweep's only seeded input: the order in which each
/// sweep of the `SWEEP_POINTS` design points visits them.
pub fn gen_codesign(rng: &mut Rng, ops: usize) -> Inputs {
    let order = (0..ops / SWEEP_POINTS)
        .flat_map(|_| rng.distinct(SWEEP_POINTS, SWEEP_POINTS))
        .collect();
    Inputs::Codesign { order }
}

/// Scalars travel as fixed-width big-endian words of `width` limbs.
fn scalar_bytes(s: &BigUint, width: usize) -> Vec<u8> {
    s.to_fixed_limbs(width)
        .iter()
        .rev()
        .flat_map(|l| l.to_be_bytes())
        .collect()
}

fn scalar_from_bytes(b: &[u8]) -> Result<BigUint, String> {
    if !b.len().is_multiple_of(8) {
        return Err("scalar is not a whole number of limbs".into());
    }
    let limbs = b
        .rchunks(8)
        .map(|c| u64::from_be_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    Ok(BigUint::from_limbs(limbs))
}

impl Inputs {
    /// The canonical file bytes (the digest covers exactly these).
    pub fn to_bytes(&self, scalar_limbs: usize) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            Inputs::Bls { registry, ops } => {
                w.u32(0);
                w.u32(registry.len() as u32);
                registry.iter().for_each(|k| w.bytes(k));
                w.u32(ops.len() as u32);
                for op in ops {
                    w.u32(op.forged.map_or(u32::MAX, |f| f as u32));
                    w.u32(op.entries.len() as u32);
                    for e in &op.entries {
                        w.u32(e.key as u32);
                        w.bytes(&e.msg);
                        w.bytes(&e.sig);
                    }
                }
            }
            Inputs::Kzg { srs, rounds } => {
                w.u32(1);
                w.bytes(srs);
                w.u32(rounds.len() as u32);
                for round in rounds {
                    for list in [&round.coeffs, &round.points] {
                        w.u32(list.len() as u32);
                        list.iter()
                            .for_each(|s| w.bytes(&scalar_bytes(s, scalar_limbs)));
                    }
                }
            }
            Inputs::Codesign { order } => {
                w.u32(2);
                w.u32(order.len() as u32);
                order.iter().for_each(|&i| w.u32(i as u32));
            }
        }
        w.0
    }

    pub fn from_bytes(buf: &[u8]) -> Result<Inputs, String> {
        let mut rd = Reader::new(buf);
        let inputs = match rd.u32()? {
            0 => {
                let registry = (0..rd.u32()?)
                    .map(|_| rd.bytes())
                    .collect::<Result<_, _>>()?;
                let mut ops = Vec::new();
                for _ in 0..rd.u32()? {
                    let forged = Some(rd.u32()?)
                        .filter(|&f| f != u32::MAX)
                        .map(|f| f as usize);
                    let mut entries = Vec::new();
                    for _ in 0..rd.u32()? {
                        entries.push(Entry {
                            key: rd.u32()? as usize,
                            msg: rd.bytes()?,
                            sig: rd.bytes()?,
                        });
                    }
                    ops.push(BlsOp { entries, forged });
                }
                Inputs::Bls { registry, ops }
            }
            1 => {
                let srs = rd.bytes()?;
                let mut rounds = Vec::new();
                for _ in 0..rd.u32()? {
                    let mut lists = [Vec::new(), Vec::new()];
                    for list in &mut lists {
                        for _ in 0..rd.u32()? {
                            list.push(scalar_from_bytes(&rd.bytes()?)?);
                        }
                    }
                    let [coeffs, points] = lists;
                    rounds.push(Round { coeffs, points });
                }
                Inputs::Kzg { srs, rounds }
            }
            2 => {
                let order = (0..rd.u32()?)
                    .map(|_| rd.u32().map(|i| i as usize))
                    .collect::<Result<_, _>>()?;
                Inputs::Codesign { order }
            }
            tag => return Err(format!("unknown input kind {tag}")),
        };
        rd.finish()?;
        Ok(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One codesign sweep; a few tiny BLS and KZG ops.
    const TINY: Shape = Shape {
        ops: SWEEP_POINTS,
        registry: 6,
        batch: 3,
        committee: 2,
        srs_powers: 4,
        points: 2,
    };

    fn digest(w: Workload, seed: u64) -> u64 {
        let curve = Curve::by_name(w.curve());
        let limbs = curve.r().limbs().len();
        fnv1a(&w.generate(&curve, seed, TINY).to_bytes(limbs))
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for w in Workload::ALL {
            assert_eq!(digest(w, 7), digest(w, 7), "{}: same seed", w.name());
            assert_ne!(digest(w, 7), digest(w, 8), "{}: different seed", w.name());
        }
    }

    #[test]
    fn input_file_round_trips() {
        let curve = Curve::by_name("BN254N");
        for w in [
            Workload::BlsVerifyCold,
            Workload::KzgProveVerify,
            Workload::CodesignSweep,
        ] {
            let inputs = w.generate(&curve, 3, TINY);
            let bytes = inputs.to_bytes(4);
            let back = Inputs::from_bytes(&bytes).expect("decodes");
            assert_eq!(back.to_bytes(4), bytes, "{}", w.name());
        }
        assert!(Inputs::from_bytes(&[0, 0, 0]).is_err(), "truncated");
    }

    #[test]
    fn forgeries_are_one_op_in_four_and_in_range() {
        let mut rng = Rng::new(Workload::BlsVerifyCold, 11);
        let plan = plan_forgeries(&mut rng, 101, 16);
        assert_eq!(plan.len(), 101);
        assert_eq!(plan[0], None, "the warm-up op is honest");
        assert_eq!(plan.iter().flatten().count(), 25);
        assert!(plan.iter().flatten().all(|&f| f < 16));
        let mut again = Rng::new(Workload::BlsVerifyCold, 11);
        assert_eq!(plan_forgeries(&mut again, 101, 16), plan);
    }
}
