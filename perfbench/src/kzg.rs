//! `kzg_prove_verify`: one KZG round per op on BN254N — commit to a
//! fresh polynomial, open it at a point set, verify the batch.

use crate::inputs::{Inputs, Round};
use crate::trace::Tracer;
use crate::workload::Runner;
use finesse::curves::Curve;
use finesse::ff::BigUint;
use finesse::pairing::PairingEngine;
use finesse::poly::{Claim, Kzg, PolyError, Polynomial, Srs};
use std::sync::Arc;

/// The benchmark's own evaluation: Horner's rule with plain big-integer
/// arithmetic, independent of the library's scalar code.
pub fn horner(coeffs: &[BigUint], z: &BigUint, r: &BigUint) -> BigUint {
    coeffs
        .iter()
        .rev()
        .fold(BigUint::zero(), |acc, c| (&(&acc * z) + c).rem(r))
}

pub struct KzgRound {
    curve: Arc<Curve>,
    kzg: Kzg<'static>,
    /// Round 0 is the warm-up round.
    rounds: Vec<Round>,
}

impl KzgRound {
    /// Set-up: the curve, the engine, a strict decode of the SRS, the
    /// scheme, then one warm-up round.
    pub fn setup(curve_name: &str, inputs: Inputs, tr: &Tracer) -> Result<KzgRound, String> {
        let Inputs::Kzg { srs, rounds } = inputs else {
            return Err("not a KZG input file".into());
        };
        let curve = Curve::by_name(curve_name);
        // The scheme borrows both for the rest of the process.
        let engine: &'static PairingEngine =
            Box::leak(Box::new(PairingEngine::new(Arc::clone(&curve))));
        let srs = Srs::from_bytes(&curve, &srs).map_err(|e| format!("SRS: {e}"))?;
        let srs: &'static Srs = Box::leak(Box::new(srs));
        let kzg = Kzg::new(engine, srs).map_err(|e| e.to_string())?;
        let k = KzgRound { curve, kzg, rounds };
        let warm = tr.with(false, || k.prove_verify(0, tr));
        k.check_round(0, warm)
            .map_err(|e| format!("warm-up round: {e}"))?;
        Ok(k)
    }

    /// Returns the opened evaluations once the batch has verified.
    fn prove_verify(&self, i: usize, tr: &Tracer) -> Result<Vec<BigUint>, PolyError> {
        let round = &self.rounds[i];
        let poly = Polynomial::new(round.coeffs.clone(), self.curve.r());
        let commitment = tr.span("poly.commit", || self.kzg.commit(&poly))?;
        let opening = tr.span("poly.open_batch", || {
            self.kzg.open_batch(&poly, &commitment, &round.points)
        })?;
        let ys = opening.points.iter().map(|(_, y)| y.clone()).collect();
        let claims = [Claim::Batch {
            commitment,
            opening,
        }];
        tr.span("poly.verify_batch", || self.kzg.verify_batch(&claims))?;
        Ok(ys)
    }

    fn check_round(&self, i: usize, out: Result<Vec<BigUint>, PolyError>) -> Result<(), String> {
        let ys = out.map_err(|e| e.to_string())?;
        let round = &self.rounds[i];
        let r = self.curve.r();
        let naive: Vec<BigUint> = round
            .points
            .iter()
            .map(|z| horner(&round.coeffs, z, r))
            .collect();
        if ys == naive {
            Ok(())
        } else {
            Err("opened values differ from Horner evaluation".into())
        }
    }
}

impl Runner for KzgRound {
    type Out = Result<Vec<BigUint>, PolyError>;

    fn ops(&self) -> usize {
        self.rounds.len() - 1
    }

    fn units(&self, _i: usize) -> f64 {
        1.0
    }

    fn op(&mut self, i: usize, tr: &Tracer) -> Self::Out {
        self.prove_verify(i + 1, tr)
    }

    fn check(&mut self, i: usize, out: Self::Out) -> Result<(), String> {
        self.check_round(i + 1, out)
    }

    /// The prover's inner layers, called directly on the round's data:
    /// one MSM on its coefficients, evaluation at each point, and one
    /// division by a linear factor.
    fn side_calls(&mut self, i: usize, tr: &Tracer) -> Result<(), String> {
        let round = &self.rounds[i + 1];
        let r = self.curve.r();
        let powers = &self.kzg.srs().powers_g1()[..round.coeffs.len()];
        let msm = tr.span("curves.g1_msm", || self.curve.g1_msm(powers, &round.coeffs));
        msm.map_err(|e| e.to_string())?;
        let poly = Polynomial::new(round.coeffs.clone(), r);
        for z in &round.points {
            tr.span("poly.eval", || poly.eval(z, r));
        }
        tr.span("poly.divide_by_linear", || {
            poly.divide_by_linear(&round.points[0], r)
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horner_matches_the_library_and_the_definition() {
        let r = BigUint::from_u64(1_000_003);
        let coeffs: Vec<BigUint> = [5u64, 0, 7, 11]
            .iter()
            .map(|&c| BigUint::from_u64(c))
            .collect();
        let z = BigUint::from_u64(999_999);
        // 5 + 7 z^2 + 11 z^3 with z = -4 mod r.
        let want = (1_000_003 + 5 + 7 * 16 - 11 * 64) as u64;
        assert_eq!(horner(&coeffs, &z, &r), BigUint::from_u64(want));
        assert_eq!(
            Polynomial::new(coeffs.clone(), &r).eval(&z, &r),
            horner(&coeffs, &z, &r)
        );
    }
}
