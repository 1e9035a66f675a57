//! `bls_verify_hot` and `bls_verify_cold`: a committee verifier on
//! BLS12-381 that receives compressed signatures and settles each batch
//! through the pairing accumulator.

use crate::inputs::{BlsOp, Inputs};
use crate::trace::Tracer;
use crate::workload::Runner;
use finesse::curves::{Affine, Curve};
use finesse::ff::Fq;
use finesse::pairing::{PairingAccumulator, PairingEngine};
use std::sync::Arc;

const LABEL: &[u8] = b"finesse-bls-batch-v1";

/// `Ok(())` for an accepted batch, else the indices the verifier named
/// (empty when a plain `settle` only says "no").
pub type Verdict = Result<(), Vec<usize>>;

/// The known answer: honest batches verify, a forged one names exactly
/// its forged index.
pub fn expected(op: &BlsOp) -> Verdict {
    match op.forged {
        None => Ok(()),
        Some(f) => Err(vec![f]),
    }
}

pub struct Bls {
    curve: Arc<Curve>,
    engine: PairingEngine,
    keys: Vec<Affine<Fq>>,
    /// Op 0 is the warm-up op.
    ops: Vec<BlsOp>,
    /// `settle_isolating` (cold) instead of `settle` (hot).
    isolating: bool,
}

impl Bls {
    /// Set-up: the curve, the engine, a strict decode of the whole key
    /// registry, then one warm-up op.
    pub fn setup(
        curve_name: &str,
        inputs: Inputs,
        isolating: bool,
        tr: &Tracer,
    ) -> Result<Bls, String> {
        let Inputs::Bls { registry, ops } = inputs else {
            return Err("not a BLS input file".into());
        };
        let curve = Curve::by_name(curve_name);
        let engine = PairingEngine::new(Arc::clone(&curve));
        let keys = registry
            .iter()
            .map(|b| tr.span("curves.decode_g2", || curve.decode_g2(b)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("registry key: {e}"))?;
        let bls = Bls {
            curve,
            engine,
            keys,
            ops,
            isolating,
        };
        let warm = tr.with(false, || bls.verify(&bls.ops[0], tr));
        if warm != expected(&bls.ops[0]) {
            return Err(format!("warm-up op: verdict {warm:?}"));
        }
        Ok(bls)
    }

    fn verify(&self, op: &BlsOp, tr: &Tracer) -> Verdict {
        let curve = &self.curve;
        let mut keys = Vec::with_capacity(op.entries.len());
        for (j, e) in op.entries.iter().enumerate() {
            keys.push(self.keys.get(e.key).ok_or_else(|| vec![j])?);
        }
        if tr.is_on() {
            // Traced runs only: prepare the batch's distinct keys up
            // front, so line preparation gets a row of its own.
            let mut distinct: Vec<usize> = op.entries.iter().map(|e| e.key).collect();
            distinct.sort_unstable();
            distinct.dedup();
            for k in distinct {
                tr.span("pairing.prepare_g2", || {
                    self.engine.prepare_g2(&self.keys[k])
                });
            }
        }
        let mut acc = PairingAccumulator::with_label(&self.engine, LABEL);
        for (j, (e, pk)) in op.entries.iter().zip(keys).enumerate() {
            let sig = tr.span("curves.decode_g1", || curve.decode_g1(&e.sig));
            let h = tr.span("curves.hash_to_g1", || curve.hash_to_g1(&e.msg));
            let (Ok(sig), Ok(h)) = (sig, h) else {
                return Err(vec![j]);
            };
            tr.span("pairing.push_check", || {
                acc.push_check(&sig, curve.g2_generator(), &h, pk)
            });
        }
        if !self.isolating {
            return tr
                .span("pairing.settle", || acc.settle())
                .then_some(())
                .ok_or_else(Vec::new);
        }
        let span = if op.forged.is_some() {
            "pairing.settle_isolating_forged"
        } else {
            "pairing.settle_isolating_honest"
        };
        tr.span(span, || acc.settle_isolating())
    }
}

impl Runner for Bls {
    type Out = Verdict;

    fn ops(&self) -> usize {
        self.ops.len() - 1
    }

    fn units(&self, i: usize) -> f64 {
        self.ops[i + 1].entries.len() as f64
    }

    fn op(&mut self, i: usize, tr: &Tracer) -> Verdict {
        self.verify(&self.ops[i + 1], tr)
    }

    fn check(&mut self, i: usize, out: Verdict) -> Result<(), String> {
        let want = expected(&self.ops[i + 1]);
        if out == want {
            Ok(())
        } else {
            Err(format!("verdict {out:?}, expected {want:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Shape;
    use crate::workload::{measure, Workload};

    /// The verifier names exactly the planned forged index on every
    /// forged op, and accepts every honest one.
    #[test]
    fn forged_indices_come_back_from_the_verifier() {
        let shape = Shape {
            ops: 9,
            registry: 8,
            batch: 4,
            committee: 0,
            srs_powers: 0,
            points: 0,
        };
        let w = Workload::BlsVerifyCold;
        let curve = Curve::by_name("BN254N");
        let inputs = w.generate(&curve, 5, shape);
        let Inputs::Bls { ops, .. } = &inputs else {
            unreachable!()
        };
        assert_eq!(ops.iter().filter(|o| o.forged.is_some()).count(), 2);
        let tr = Tracer::new(false);
        let mut bls = Bls::setup("BN254N", inputs, true, &tr).expect("set-up");
        let pass = measure(&mut bls, &tr);
        assert_eq!(pass.failed, 0, "{:?}", pass.first_error);

        // A wrong answer is caught: report the forged op as honest.
        let forged = (0..bls.ops())
            .find(|&i| bls.ops[i + 1].forged.is_some())
            .unwrap();
        assert!(bls.check(forged, Ok(())).is_err());
        let f = bls.ops[forged + 1].forged.unwrap();
        assert!(bls.check(forged, Err(vec![f, f + 1])).is_err());
        assert!(bls.check(forged, Err(vec![f])).is_ok());
    }
}
