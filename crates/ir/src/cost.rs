//! Shared software cost model for the co-design loop.
//!
//! Every layer that prices a candidate design point against the *software*
//! baseline — `finesse-dse`'s explorer, `finesse-sim`'s reports, and the
//! `experiments` harness that regenerates `results/table2.txt` /
//! `results/fig2.txt` — consumes a [`CostModel`] from this module instead of
//! carrying its own embedded constants.
//!
//! A model comes from one of two places:
//!
//! * [`CostModel::analytic`] — the paper-style analytic defaults, derived from
//!   the kernel shapes actually shipped in PRs 2–7 (CIOS Montgomery limbs,
//!   lazy-reduction tower multiplication, the sparse 13-`fq_mul` Miller line,
//!   Lim–Lee fixed-base combs, signed-digit batch-affine Pippenger windows,
//!   and the deferred-pairing batch accumulator). The per-shape operation
//!   counts live in [`shapes`] and are calibrated once against this
//!   container's measured medians; they are the *only* per-kernel cost
//!   constants in the workspace.
//! * [`CostModel::from_bench_json`] / [`CostModel::load`] — the measured
//!   medians committed in `results/BENCH_fieldops.json` (schema
//!   `finesse-bench-fieldops/v4` through `/v6`), which is the preferred baseline:
//!   HW/SW comparisons are only meaningful against the current software.

use crate::json::{json_array_block, json_num_field, json_objects, json_str_field};
use std::fmt;
use std::path::Path;

/// A per-kernel software cost, in nanoseconds per operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// One base-field Montgomery multiplication.
    FpMul,
    /// One extension-tower (`Fq`) multiplication with lazy reduction.
    FqMul,
    /// Variable-base G1 scalar multiplication (2-GLV + JSF).
    G1Mul,
    /// Fixed-base G1 scalar multiplication (Lim–Lee comb).
    G1MulFixed,
    /// Variable-base G2 scalar multiplication (ψ-based GLS).
    G2Mul,
    /// Fixed-base G2 scalar multiplication.
    G2MulFixed,
    /// 256-point G1 multi-scalar multiplication (signed-digit Pippenger).
    Msm256,
    /// 1024-point G1 multi-scalar multiplication.
    Msm1024,
    /// 4096-point G1 multi-scalar multiplication.
    Msm4096,
    /// One full pairing (Miller loop + final exponentiation).
    Pairing,
    /// Amortized cost of one check inside a 32-check batched verification.
    BatchVerifyCheck,
}

impl Kernel {
    /// All kernels a model can price, in report order.
    pub const ALL: [Kernel; 11] = [
        Kernel::FpMul,
        Kernel::FqMul,
        Kernel::G1Mul,
        Kernel::G1MulFixed,
        Kernel::G2Mul,
        Kernel::G2MulFixed,
        Kernel::Msm256,
        Kernel::Msm1024,
        Kernel::Msm4096,
        Kernel::Pairing,
        Kernel::BatchVerifyCheck,
    ];

    /// Stable label, matching the bench JSON field prefixes.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::FpMul => "fp_mul",
            Kernel::FqMul => "fq_mul",
            Kernel::G1Mul => "g1_mul",
            Kernel::G1MulFixed => "g1_mul_fixed",
            Kernel::G2Mul => "g2_mul",
            Kernel::G2MulFixed => "g2_mul_fixed",
            Kernel::Msm256 => "msm256",
            Kernel::Msm1024 => "msm1024",
            Kernel::Msm4096 => "msm4096",
            Kernel::Pairing => "pairing",
            Kernel::BatchVerifyCheck => "batch_verify_check",
        }
    }
}

/// Per-kernel costs for one curve, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelCosts {
    pub fp_mul_ns: f64,
    pub fq_mul_ns: f64,
    pub g1_mul_ns: f64,
    pub g1_mul_fixed_ns: f64,
    pub g2_mul_ns: f64,
    pub g2_mul_fixed_ns: f64,
    pub msm256_ns: f64,
    pub msm1024_ns: f64,
    pub msm4096_ns: f64,
    pub pairing_ns: f64,
    /// Absent when the source JSON has no `batch_verify` row for the curve.
    pub batch_verify_check_ns: Option<f64>,
}

impl KernelCosts {
    /// Cost of `kernel` in nanoseconds, if this row prices it.
    pub fn get(&self, kernel: Kernel) -> Option<f64> {
        match kernel {
            Kernel::FpMul => Some(self.fp_mul_ns),
            Kernel::FqMul => Some(self.fq_mul_ns),
            Kernel::G1Mul => Some(self.g1_mul_ns),
            Kernel::G1MulFixed => Some(self.g1_mul_fixed_ns),
            Kernel::G2Mul => Some(self.g2_mul_ns),
            Kernel::G2MulFixed => Some(self.g2_mul_fixed_ns),
            Kernel::Msm256 => Some(self.msm256_ns),
            Kernel::Msm1024 => Some(self.msm1024_ns),
            Kernel::Msm4096 => Some(self.msm4096_ns),
            Kernel::Pairing => Some(self.pairing_ns),
            Kernel::BatchVerifyCheck => self.batch_verify_check_ns,
        }
    }
}

/// One curve's row in a [`CostModel`].
#[derive(Clone, Debug, PartialEq)]
pub struct CurveCostRow {
    pub curve: String,
    pub p_bits: u32,
    pub limbs: u32,
    pub costs: KernelCosts,
}

/// Where a [`CostModel`]'s numbers came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Analytic defaults from [`shapes`], calibrated once to this container.
    Analytic,
    /// Measured medians loaded from a bench JSON emission.
    Measured {
        schema: String,
        commit: String,
        date: String,
    },
}

/// Errors from the bench-JSON loader.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostModelError {
    /// The file could not be read.
    Io(String),
    /// The `schema` field is missing or names an unsupported version.
    SchemaVersion { found: String },
    /// A required field is absent from a curve row.
    MissingField { curve: String, field: &'static str },
    /// The `curves` array is missing or empty.
    NoCurves,
}

impl fmt::Display for CostModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostModelError::Io(e) => write!(f, "cost model: {e}"),
            CostModelError::SchemaVersion { found } => write!(
                f,
                "cost model: unsupported bench schema {found:?} (expected \
                 finesse-bench-fieldops/v4, /v5, or /v6)"
            ),
            CostModelError::MissingField { curve, field } => {
                write!(
                    f,
                    "cost model: curve row {curve:?} is missing field {field:?}"
                )
            }
            CostModelError::NoCurves => {
                write!(f, "cost model: bench JSON has no curve rows")
            }
        }
    }
}

impl std::error::Error for CostModelError {}

/// A per-curve, per-kernel software cost table with provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    provenance: Provenance,
    rows: Vec<CurveCostRow>,
}

impl CostModel {
    /// The analytic defaults for the paper's seven Table-2 curves.
    pub fn analytic() -> CostModel {
        let rows = shapes::CURVES
            .iter()
            .map(|p| CurveCostRow {
                curve: p.name.to_string(),
                p_bits: p.p_bits,
                limbs: p.limbs,
                costs: shapes::analytic_costs(p),
            })
            .collect();
        CostModel {
            provenance: Provenance::Analytic,
            rows,
        }
    }

    /// Parse a `finesse-bench-fieldops/v4`, `/v5`, or `/v6` JSON emission.
    ///
    /// Consumes the per-curve median rows (`fq_mul_ns`, `g1_mul_ns`,
    /// `g1_mul_fixed_ns`, `msm*_g1_ns`, `pairing_ns`, …) plus the
    /// `batch_verify` block's 32-check amortized cost where present.
    pub fn from_bench_json(text: &str) -> Result<CostModel, CostModelError> {
        let schema = json_str_field(text, "schema").unwrap_or_default();
        const SUPPORTED: [&str; 3] = [
            "finesse-bench-fieldops/v4",
            "finesse-bench-fieldops/v5",
            "finesse-bench-fieldops/v6",
        ];
        if !SUPPORTED.contains(&schema.as_str()) {
            return Err(CostModelError::SchemaVersion { found: schema });
        }
        let commit = json_str_field(text, "commit").unwrap_or_default();
        let date = json_str_field(text, "date").unwrap_or_default();

        let curves_block = json_array_block(text, "curves").ok_or(CostModelError::NoCurves)?;
        let mut rows = Vec::new();
        for obj in json_objects(curves_block) {
            let curve = json_str_field(obj, "curve").ok_or(CostModelError::MissingField {
                curve: String::from("?"),
                field: "curve",
            })?;
            let num = |field: &'static str| -> Result<f64, CostModelError> {
                json_num_field(obj, field).ok_or(CostModelError::MissingField {
                    curve: curve.clone(),
                    field,
                })
            };
            rows.push(CurveCostRow {
                curve: curve.clone(),
                p_bits: num("p_bits")? as u32,
                limbs: num("limbs")? as u32,
                costs: KernelCosts {
                    fp_mul_ns: num("fp_mul_ns")?,
                    fq_mul_ns: num("fq_mul_ns")?,
                    g1_mul_ns: num("g1_mul_ns")?,
                    g1_mul_fixed_ns: num("g1_mul_fixed_ns")?,
                    g2_mul_ns: num("g2_mul_ns")?,
                    g2_mul_fixed_ns: num("g2_mul_fixed_ns")?,
                    msm256_ns: num("msm256_g1_ns")?,
                    msm1024_ns: num("msm1024_g1_ns")?,
                    msm4096_ns: num("msm4096_g1_ns")?,
                    pairing_ns: num("pairing_ns")?,
                    batch_verify_check_ns: None,
                },
            });
        }
        if rows.is_empty() {
            return Err(CostModelError::NoCurves);
        }

        // Optional: 32-check amortized batch-verification rows.
        if let Some(bv) = json_array_block(text, "rows") {
            for obj in json_objects(bv) {
                let (Some(curve), Some(n), Some(amortized)) = (
                    json_str_field(obj, "curve"),
                    json_num_field(obj, "n"),
                    json_num_field(obj, "amortized_ns_per_check"),
                ) else {
                    continue;
                };
                if n as u32 != 32 {
                    continue;
                }
                if let Some(row) = rows.iter_mut().find(|r| r.curve == curve) {
                    row.costs.batch_verify_check_ns = Some(amortized);
                }
            }
        }

        Ok(CostModel {
            provenance: Provenance::Measured {
                schema,
                commit,
                date,
            },
            rows,
        })
    }

    /// Load a measured model from a bench JSON file on disk.
    pub fn load(path: &Path) -> Result<CostModel, CostModelError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CostModelError::Io(format!("{}: {e}", path.display())))?;
        CostModel::from_bench_json(&text)
    }

    /// Where this model's numbers came from.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// One-line provenance string for report footers.
    pub fn describe(&self) -> String {
        match &self.provenance {
            Provenance::Analytic => {
                "analytic defaults (finesse_ir::cost::shapes, calibrated to the \
                 shipped kernel shapes)"
                    .to_string()
            }
            Provenance::Measured {
                schema,
                commit,
                date,
            } => format!("measured medians ({schema}, commit {commit}, {date})"),
        }
    }

    /// The row for `curve`, if priced.
    pub fn curve(&self, curve: &str) -> Option<&CurveCostRow> {
        self.rows.iter().find(|r| r.curve == curve)
    }

    /// All rows, in source order.
    pub fn curves(&self) -> impl Iterator<Item = &CurveCostRow> {
        self.rows.iter()
    }

    /// Cost of `kernel` on `curve` in nanoseconds, if priced.
    pub fn cost_ns(&self, curve: &str, kernel: Kernel) -> Option<f64> {
        self.curve(curve)?.costs.get(kernel)
    }

    /// Curves ranked by ascending cost of `kernel` (unpriced rows omitted).
    pub fn rank(&self, kernel: Kernel) -> Vec<(&str, f64)> {
        let mut out: Vec<(&str, f64)> = self
            .rows
            .iter()
            .filter_map(|r| r.costs.get(kernel).map(|c| (r.curve.as_str(), c)))
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }
}

/// Analytic kernel-shape formulas, calibrated to the shipped software.
///
/// Operation counts follow the code as of PRs 2–7; each constant is named and
/// owned here, nowhere else. Absolute accuracy against the measured medians is
/// within ~±25% across the seven Table-2 curves; the property the test suite
/// pins is that analytic and measured models *rank* candidates consistently.
pub mod shapes {
    use super::KernelCosts;

    /// Curve family, which fixes the Miller-loop shape and tower degree.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Family {
        Bn,
        Bls12,
        Bls24,
    }

    /// Static parameters of one Table-2 curve.
    #[derive(Clone, Copy, Debug)]
    pub struct CurveParams {
        pub name: &'static str,
        pub family: Family,
        /// Bit length of the curve-generation parameter |t|.
        pub t_bits: u32,
        pub p_bits: u32,
        pub limbs: u32,
    }

    /// The paper's Table-2 curves, in table order.
    pub const CURVES: [CurveParams; 7] = [
        CurveParams {
            name: "BN254N",
            family: Family::Bn,
            t_bits: 63,
            p_bits: 254,
            limbs: 4,
        },
        CurveParams {
            name: "BN462",
            family: Family::Bn,
            t_bits: 115,
            p_bits: 462,
            limbs: 8,
        },
        CurveParams {
            name: "BN638",
            family: Family::Bn,
            t_bits: 158,
            p_bits: 638,
            limbs: 10,
        },
        CurveParams {
            name: "BLS12-381",
            family: Family::Bls12,
            t_bits: 64,
            p_bits: 381,
            limbs: 6,
        },
        CurveParams {
            name: "BLS12-446",
            family: Family::Bls12,
            t_bits: 75,
            p_bits: 446,
            limbs: 7,
        },
        CurveParams {
            name: "BLS12-638",
            family: Family::Bls12,
            t_bits: 107,
            p_bits: 638,
            limbs: 10,
        },
        CurveParams {
            name: "BLS24-509",
            family: Family::Bls24,
            t_bits: 52,
            p_bits: 509,
            limbs: 8,
        },
    ];

    /// CIOS Montgomery multiplication: fixed overhead plus a quadratic limb
    /// term (fit to the inline-limb kernels of PR 2).
    pub const FP_CIOS_BASE_NS: f64 = 20.9;
    pub const FP_CIOS_PER_LIMB2_NS: f64 = 1.30;

    /// Lazy-reduction tower bookkeeping per `fq_mul` (PR 3): deferred carries,
    /// one final reduction, ξ multiplications.
    pub const FQ_TOWER_OVERHEAD_NS: f64 = 195.0;

    /// Variable-base G1 mul (2-GLV + JSF, PR 4–5): per scalar bit, one
    /// Jacobian doubling (~8 fp_mul) plus a half-density mixed add (~3 fp_mul
    /// amortized), ≈ 11 fp_mul/bit before ladder overheads.
    pub const G1_FP_MULS_PER_BIT: f64 = 11.0;
    pub const G1_CAL: f64 = 1.3;

    /// Lim–Lee comb (PR 5): `ceil(bits/w)` iterations of one doubling plus
    /// one table mixed-add, ≈ 19 fp_mul each.
    pub const COMB_FP_MULS_PER_ITER: f64 = 19.0;
    pub const COMB_CAL: f64 = 2.4;

    /// Signed-digit batch-affine Pippenger (PR 5–6): per window, ~6 fp_mul
    /// per point (batch-affine mixed add) plus ~8 fp_mul per 2^(c−1) bucket.
    pub const PIPPENGER_POINT_FP_MULS: f64 = 6.0;
    pub const PIPPENGER_BUCKET_FP_MULS: f64 = 8.0;
    pub const PIPPENGER_CAL: f64 = 2.4;

    /// Miller loop (PR 3 shapes): a doubling step costs one `fpk_sqr`
    /// (~12 fq), point doubling + line evaluation (~11 fq), and one sparse
    /// 13-`fq_mul` line multiplication ⇒ ~36 fq; a NAF-density addition step
    /// adds ~24 fq on a third of the iterations ⇒ ~44 fq per loop bit.
    pub const MILLER_FQ_MULS_PER_BIT: f64 = 44.0;
    /// Final exponentiation: the hard part is dominated by |t|-bit cyclotomic
    /// square chains (~9 fq each); BN curves walk ~2 such chains, BLS24 ~4.
    pub const FEXP_CYCLO_FQ_MULS: f64 = 9.0;
    pub const FEXP_FIXED_FQ_MULS: f64 = 300.0;
    /// Un-modelled adds/subs/Frobenius amount to a flat factor on the pairing.
    pub const PAIRING_CAL: f64 = 2.2;

    /// GLS G2 mul over Fq costs ≈ 3× the G1 mul (tower muls are pricier than
    /// base muls by more than the 4-way scalar split recovers).
    pub const G2_OVER_G1: f64 = 3.0;
    /// Fixed-base combs roughly halve the G2 variable-base cost.
    pub const G2_FIXED_OVER_G2: f64 = 0.5;
    /// Deferred-pairing accumulator (PR 7): one 32-check settle amortizes to
    /// about a tenth of a full pairing per check.
    pub const BATCH_CHECK_OVER_PAIRING: f64 = 0.1;

    /// One CIOS Montgomery multiplication at the given limb count.
    pub fn fp_mul_ns(limbs: u32) -> f64 {
        FP_CIOS_BASE_NS + FP_CIOS_PER_LIMB2_NS * (limbs as f64) * (limbs as f64)
    }

    /// Base-field multiplications per lazy-reduction `fq_mul`
    /// (3 for the quadratic towers of k=12, 9 for the quartic tower of k=24).
    pub fn fq_mul_fp_muls(family: Family) -> f64 {
        match family {
            Family::Bn | Family::Bls12 => 3.0,
            Family::Bls24 => 9.0,
        }
    }

    /// Miller-loop length in bits: BN loops over |6t+2| (≈ |t|+3 bits),
    /// BLS families loop over |t|.
    pub fn miller_loop_bits(family: Family, t_bits: u32) -> f64 {
        match family {
            Family::Bn => (t_bits + 3) as f64,
            Family::Bls12 | Family::Bls24 => t_bits as f64,
        }
    }

    /// Comb width used by the fixed-base tables (8 below 256 bits, 9 above).
    pub fn comb_width(p_bits: u32) -> u32 {
        if p_bits <= 256 {
            8
        } else {
            9
        }
    }

    /// Pippenger window width for an n-point MSM (as picked by the backend).
    pub fn pippenger_window(n: u32) -> u32 {
        match n {
            0..=511 => 8,
            512..=2047 => 10,
            _ => 12,
        }
    }

    /// Price an n-point MSM in nanoseconds.
    pub fn msm_ns(params: &CurveParams, n: u32) -> f64 {
        let c = pippenger_window(n);
        let windows = params.p_bits.div_ceil(c) as f64;
        let per_window = (n as f64) * PIPPENGER_POINT_FP_MULS
            + f64::from(1u32 << (c - 1)) * PIPPENGER_BUCKET_FP_MULS;
        windows * per_window * fp_mul_ns(params.limbs) * PIPPENGER_CAL
    }

    /// Full analytic kernel-cost row for one curve.
    pub fn analytic_costs(params: &CurveParams) -> KernelCosts {
        let fp = fp_mul_ns(params.limbs);
        let fq = fq_mul_fp_muls(params.family) * fp + FQ_TOWER_OVERHEAD_NS;

        let g1 = (params.p_bits as f64) * G1_FP_MULS_PER_BIT * fp * G1_CAL;
        let comb_iters = params.p_bits.div_ceil(comb_width(params.p_bits)) as f64;
        let g1_fixed = comb_iters * COMB_FP_MULS_PER_ITER * fp * COMB_CAL;
        let g2 = g1 * G2_OVER_G1;
        let g2_fixed = g2 * G2_FIXED_OVER_G2;

        let loop_bits = miller_loop_bits(params.family, params.t_bits);
        let hard_chains = match params.family {
            Family::Bn | Family::Bls12 => 2.0,
            Family::Bls24 => 4.0,
        };
        let miller_fq = loop_bits * MILLER_FQ_MULS_PER_BIT;
        let fexp_fq =
            (params.t_bits as f64) * hard_chains * FEXP_CYCLO_FQ_MULS + FEXP_FIXED_FQ_MULS;
        let pairing = (miller_fq + fexp_fq) * fq * PAIRING_CAL;

        KernelCosts {
            fp_mul_ns: fp,
            fq_mul_ns: fq,
            g1_mul_ns: g1,
            g1_mul_fixed_ns: g1_fixed,
            g2_mul_ns: g2,
            g2_mul_fixed_ns: g2_fixed,
            msm256_ns: msm_ns(params, 256),
            msm1024_ns: msm_ns(params, 1024),
            msm4096_ns: msm_ns(params, 4096),
            pairing_ns: pairing,
            batch_verify_check_ns: Some(pairing * BATCH_CHECK_OVER_PAIRING),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_covers_all_table2_curves() {
        let m = CostModel::analytic();
        assert_eq!(m.curves().count(), 7);
        for row in m.curves() {
            for k in Kernel::ALL {
                let c = row.costs.get(k).unwrap_or(0.0);
                assert!(c > 0.0, "{} {:?} must be positive", row.curve, k);
            }
        }
    }

    #[test]
    fn analytic_kernel_ordering_is_sane() {
        let m = CostModel::analytic();
        for row in m.curves() {
            let c = &row.costs;
            assert!(c.fp_mul_ns < c.fq_mul_ns);
            assert!(c.fq_mul_ns < c.g1_mul_fixed_ns);
            assert!(c.g1_mul_fixed_ns < c.g1_mul_ns);
            assert!(c.g1_mul_ns < c.pairing_ns);
            assert!(c.pairing_ns < c.msm256_ns);
            assert!(c.msm256_ns < c.msm1024_ns);
            assert!(c.msm1024_ns < c.msm4096_ns);
        }
    }

    #[test]
    fn loader_rejects_unknown_schema() {
        let err =
            CostModel::from_bench_json("{\"schema\": \"finesse-bench-fieldops/v3\"}").unwrap_err();
        assert!(matches!(err, CostModelError::SchemaVersion { .. }));
        let err = CostModel::from_bench_json("{}").unwrap_err();
        assert!(matches!(err, CostModelError::SchemaVersion { .. }));
    }

    #[test]
    fn loader_requires_curve_rows() {
        // Every supported schema version shares the curve-row contract.
        for schema in ["v4", "v5", "v6"] {
            let err = CostModel::from_bench_json(&format!(
                "{{\"schema\": \"finesse-bench-fieldops/{schema}\", \"curves\": []}}"
            ))
            .unwrap_err();
            assert_eq!(err, CostModelError::NoCurves);
        }
    }

    #[test]
    fn rank_sorts_ascending() {
        let m = CostModel::analytic();
        let ranked = m.rank(Kernel::Pairing);
        assert_eq!(ranked.len(), 7);
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(ranked[0].0, "BN254N");
    }
}
