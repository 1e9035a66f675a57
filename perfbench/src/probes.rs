//! Layer probes for the traced run: direct calls, on the workload's
//! curve, to every layer function the workload itself does not reach
//! from outside — so every traced run reports every per-layer metric,
//! and a layer a workload bypasses reads flat there.

use crate::codesign::{build_and_validate, paper_default, replay};
use crate::trace::Tracer;
use finesse::curves::{Affine, Compression, Curve};
use finesse::ff::{BigUint, Fp, Fq};
use finesse::pairing::{PairingAccumulator, PairingEngine};
use finesse::poly::{Claim, Kzg, Polynomial, Srs};
use std::hint::black_box;
use std::sync::Arc;

/// Timed blocks per field kernel; the metric is their total over all
/// calls, so one slow block moves it by at most a fifth.
const BLOCKS: u64 = 5;

fn scalar(curve: &Curve, i: u64) -> BigUint {
    BigUint::from_u64(0x9E37_79B9 ^ i.wrapping_mul(0x1000_0001))
        .modpow(&BigUint::from_u64(7), curve.r())
}

/// Field kernels: blocks of dependent calls, too short to time singly.
fn field_kernels(curve: &Arc<Curve>, engine: &PairingEngine, tr: &Tracer) {
    let fp = curve.fp();
    let t = curve.tower();
    let (a, b) = (fp.sample(1), fp.sample(2));
    let (qa, qb) = (t.fq_sample(3), t.fq_sample(4));
    let (ka, kb) = (t.fpk_sample(5), t.fpk_sample(6));
    // An element of the cyclotomic subgroup: a pairing value.
    let gt = engine.pair(curve.g1_generator(), curve.g2_generator());
    for _ in 0..BLOCKS {
        tr.span_calls("ff.fp_mul", 20_000, || {
            let mut x = a.clone();
            for _ in 0..20_000 {
                x = x.mul(&b);
            }
            black_box(x)
        });
        tr.span_calls("ff.fq_mul", 2_000, || {
            let mut x = qa.clone();
            for _ in 0..2_000 {
                x = t.fq_mul(&x, &qb);
            }
            black_box(x)
        });
        tr.span_calls("ff.fpk_mul", 200, || {
            let mut x = ka.clone();
            for _ in 0..200 {
                x = t.fpk_mul(&x, &kb);
            }
            black_box(x)
        });
        tr.span_calls("ff.fpk_sqr", 200, || {
            let mut x = ka.clone();
            for _ in 0..200 {
                x = t.fpk_sqr(&x);
            }
            black_box(x)
        });
        tr.span_calls("ff.fpk_cyclotomic_sqr", 200, || {
            let mut x = gt.clone();
            for _ in 0..200 {
                x = t.fpk_cyclotomic_sqr(&x);
            }
            black_box(x)
        });
    }
}

/// A small honest BLS batch: 16 checks over 4 keys.
struct Batch {
    keys: Vec<Affine<Fq>>,
    hashes: Vec<Affine<Fp>>,
    sigs: Vec<Affine<Fp>>,
}

fn batch(curve: &Arc<Curve>) -> Result<Batch, String> {
    let sks: Vec<BigUint> = (0..4).map(|i| scalar(curve, i)).collect();
    let keys = sks
        .iter()
        .map(|sk| curve.g2_mul(curve.g2_generator(), sk))
        .collect();
    let mut hashes = Vec::new();
    let mut sigs = Vec::new();
    for i in 0..16u64 {
        let h = curve
            .hash_to_g1(&i.to_le_bytes())
            .map_err(|e| e.to_string())?;
        sigs.push(curve.g1_mul(&h, &sks[i as usize % 4]));
        hashes.push(h);
    }
    Ok(Batch { keys, hashes, sigs })
}

fn settle_probe(
    engine: &PairingEngine,
    b: &Batch,
    forged: bool,
    tr: &Tracer,
) -> Result<(), String> {
    let curve = engine.curve();
    let mut acc = PairingAccumulator::with_label(engine, b"finesse-bls-batch-v1");
    for (i, (sig, h)) in b.sigs.iter().zip(&b.hashes).enumerate() {
        // The forged check carries another message's signature.
        let sig = if forged && i == 5 { &b.sigs[6] } else { sig };
        tr.span("pairing.push_check", || {
            acc.push_check(sig, curve.g2_generator(), h, &b.keys[i % 4])
        });
    }
    let span = if forged {
        "pairing.settle_isolating_forged"
    } else {
        "pairing.settle_isolating_honest"
    };
    let got = tr.span(span, || acc.settle_isolating());
    let want = if forged { Err(vec![5]) } else { Ok(()) };
    if got == want {
        Ok(())
    } else {
        Err(format!("probe batch: {got:?}, expected {want:?}"))
    }
}

/// Runs, into its own tracer, each probe group that covers a span the
/// workload's trace lacks; the caller keeps only those rows.
pub fn run(
    curve: &Arc<Curve>,
    missing: impl Fn(&[&str]) -> bool,
    tr: &Tracer,
) -> Result<(), String> {
    let engine = PairingEngine::new(Arc::clone(curve));

    field_kernels(curve, &engine, tr);

    if missing(&["curves.decode_g1", "curves.hash_to_g1"]) {
        for i in 0..32u64 {
            let msg = [b"probe".as_slice(), &i.to_le_bytes()].concat();
            let h = tr
                .span("curves.hash_to_g1", || curve.hash_to_g1(&msg))
                .map_err(|e| e.to_string())?;
            let bytes = curve.encode_g1(&h, Compression::Compressed);
            tr.span("curves.decode_g1", || curve.decode_g1(&bytes))
                .map_err(|e| e.to_string())?;
        }
    }
    if missing(&["curves.decode_g2", "pairing.prepare_g2"]) {
        // A fresh engine, so every preparation misses its cache.
        let fresh = PairingEngine::new(Arc::clone(curve));
        for i in 0..8 {
            let q = curve.g2_mul(curve.g2_generator(), &scalar(curve, 100 + i));
            let bytes = curve.encode_g2(&q, Compression::Compressed);
            tr.span("curves.decode_g2", || curve.decode_g2(&bytes))
                .map_err(|e| e.to_string())?;
            tr.span("pairing.prepare_g2", || fresh.prepare_g2(&q));
        }
    }

    // Always direct: the library calls these only from inside a settle.
    let prepared = engine.prepare_g2(curve.g2_generator());
    for i in 0..8 {
        let p = curve.g1_mul(curve.g1_generator(), &scalar(curve, 200 + i));
        let f = tr.span("pairing.miller_loop_prepared", || {
            engine.miller_loop_prepared(&p, &prepared)
        });
        tr.span("pairing.final_exponentiation", || {
            engine.final_exponentiation(&f)
        });
    }

    if missing(&[
        "pairing.push_check",
        "pairing.settle",
        "pairing.settle_isolating_honest",
        "pairing.settle_isolating_forged",
    ]) {
        let b = batch(curve)?;
        for _ in 0..3 {
            settle_probe(&engine, &b, false, tr)?;
            settle_probe(&engine, &b, true, tr)?;
            let mut acc = PairingAccumulator::with_label(&engine, b"finesse-bls-batch-v1");
            for (i, (sig, h)) in b.sigs.iter().zip(&b.hashes).enumerate() {
                acc.push_check(sig, curve.g2_generator(), h, &b.keys[i % 4]);
            }
            if !tr.span("pairing.settle", || acc.settle()) {
                return Err("probe batch: honest settle rejected".into());
            }
        }
    }

    if missing(&["poly.commit", "poly.open_batch", "poly.verify_batch"]) {
        let srs = Srs::generate(curve, 255, b"perfbench-probe");
        let kzg = Kzg::new(&engine, &srs).map_err(|e| e.to_string())?;
        let r = curve.r();
        let poly = Polynomial::new((0..256).map(|i| scalar(curve, 300 + i)).collect(), r);
        let zs: Vec<BigUint> = (0..8).map(|i| scalar(curve, 600 + i)).collect();
        for _ in 0..2 {
            let c = tr
                .span("poly.commit", || kzg.commit(&poly))
                .map_err(|e| e.to_string())?;
            let opening = tr.span("poly.open_batch", || kzg.open_batch(&poly, &c, &zs));
            let opening = opening.map_err(|e| e.to_string())?;
            let claims = [Claim::Batch {
                commitment: c,
                opening,
            }];
            tr.span("poly.verify_batch", || kzg.verify_batch(&claims))
                .map_err(|e| e.to_string())?;
            let msm = tr.span("curves.g1_msm", || {
                curve.g1_msm(&srs.powers_g1()[..256], poly.coeffs())
            });
            msm.map_err(|e| e.to_string())?;
            for z in &zs {
                tr.span("poly.eval", || poly.eval(z, r));
            }
            tr.span("poly.divide_by_linear", || poly.divide_by_linear(&zs[0], r));
        }
    }

    if missing(&["core.build", "core.validate", "ir.lower", "sim.simulate"]) {
        let point = paper_default(curve);
        let (eval, report) = build_and_validate(curve, &point, tr)?;
        let replayed = replay(curve, &point, tr)?;
        if !report.all_passed() || replayed.cycles != eval.cycles {
            return Err(format!(
                "probe design: {report:?}, replay {} vs build {} cycles",
                replayed.cycles, eval.cycles
            ));
        }
    }
    Ok(())
}
