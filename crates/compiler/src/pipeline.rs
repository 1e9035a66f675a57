//! The end-to-end compilation pipeline (paper §3.5):
//! CodeGen → lowering → IROpt → BankAlloc/PackSched → RegAlloc → ASM →
//! Link, in minutes — here milliseconds-to-seconds.
//!
//! [`compile_pairing`] is the single entry point the co-design loop and
//! the experiment harness drive; the per-curve CodeGen recording is
//! cached because the hierarchical IR depends only on the curve, not on
//! variants or hardware.

use crate::irflow::IrFlow;
use crate::link::link;
use crate::opt::{optimize, OptStats};
use crate::regalloc::{allocate, RegAllocation, RegPressureError};
use crate::schedule::{schedule, SchedStrategy, Schedule, ScheduleOptions};
use finesse_curves::Curve;
use finesse_hw::{HwModel, HwModelError};
use finesse_ir::{lower, FpProgram, HirProgram, TowerShape, VariantConfig};
use finesse_isa::{CodecError, ProgramImage};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Compilation options beyond variants and hardware.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Run IROpt (false reproduces the Table 7 "Init." baseline).
    pub optimize: bool,
    /// Scheduling strategy and affinity β.
    pub sched: ScheduleOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            optimize: true,
            sched: ScheduleOptions::default(),
        }
    }
}

impl CompileOptions {
    /// The unoptimised baseline: raw lowering, program-order issue.
    pub fn baseline() -> Self {
        CompileOptions {
            optimize: false,
            sched: ScheduleOptions {
                strategy: SchedStrategy::ProgramOrder,
                affinity_beta: 0.0,
            },
        }
    }
}

/// A fully compiled pairing accelerator program.
#[derive(Clone, Debug)]
pub struct CompiledPairing {
    /// The curve this program computes `e(P, Q)` on.
    pub curve: Arc<Curve>,
    /// The hardware model compiled for.
    pub hw: HwModel,
    /// High-level IR size (instructions) before lowering.
    pub hir_len: usize,
    /// The final F_p program (post-IROpt unless disabled).
    pub fp: FpProgram,
    /// IROpt statistics (before/after executable counts).
    pub opt_stats: OptStats,
    /// The instruction schedule.
    pub schedule: Schedule,
    /// Register allocation (peak pressure drives the DMem area model).
    pub regs: RegAllocation,
    /// The linked binary image.
    pub image: ProgramImage,
    /// Wall-clock compilation time.
    pub compile_time: Duration,
}

impl CompiledPairing {
    /// Executable instruction count (the Table 7 "Instr." metric).
    pub fn instruction_count(&self) -> usize {
        self.fp.stats().executable() + self.fp.inputs.len() + self.fp.outputs.len()
    }
}

/// Compilation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The hardware model violates an architectural constraint.
    Hw(HwModelError),
    /// Lowering failed (malformed IR or unsupported op/level).
    Lowering(String),
    /// A register bank's quota was exceeded.
    RegPressure(RegPressureError),
    /// Binary encoding failed.
    Codec(CodecError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Hw(e) => write!(f, "hardware model: {e}"),
            CompileError::Lowering(e) => write!(f, "lowering: {e}"),
            CompileError::RegPressure(e) => write!(f, "register allocation: {e}"),
            CompileError::Codec(e) => write!(f, "encoding: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<HwModelError> for CompileError {
    fn from(e: HwModelError) -> Self {
        CompileError::Hw(e)
    }
}

impl From<RegPressureError> for CompileError {
    fn from(e: RegPressureError) -> Self {
        CompileError::RegPressure(e)
    }
}

impl From<CodecError> for CompileError {
    fn from(e: CodecError) -> Self {
        CompileError::Codec(e)
    }
}

/// Looks `curve` up in a per-curve cache, building and inserting the
/// value on a miss. A poisoned lock is recovered: the map only ever
/// holds fully built values, so it is valid even if another thread
/// panicked while holding it.
fn cached_per_curve<T>(
    cache: &OnceLock<Mutex<HashMap<String, Arc<T>>>>,
    curve: &Curve,
    build: impl FnOnce(&Curve) -> T,
) -> Arc<T> {
    let mut map = cache
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    Arc::clone(
        map.entry(curve.name().to_owned())
            .or_insert_with(|| Arc::new(build(curve))),
    )
}

/// Cached CodeGen: the recorded pairing HIR per curve.
pub fn pairing_hir(curve: &Arc<Curve>) -> Arc<HirProgram> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<HirProgram>>>> = OnceLock::new();
    cached_per_curve(&CACHE, curve, |c| IrFlow::record_pairing(c))
}

/// Cached tower shapes per curve.
pub fn tower_shape(curve: &Arc<Curve>) -> Arc<TowerShape> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<TowerShape>>>> = OnceLock::new();
    cached_per_curve(&CACHE, curve, TowerShape::for_curve)
}

/// Compiles the optimal-Ate pairing for a curve, variant selection and
/// hardware model.
///
/// # Errors
///
/// Returns a [`CompileError`] for invalid hardware models, lowering
/// failures, register-pressure overflow or encoding overflow.
pub fn compile_pairing(
    curve: &Arc<Curve>,
    variants: &VariantConfig,
    hw: &HwModel,
    opts: &CompileOptions,
) -> Result<CompiledPairing, CompileError> {
    let start = Instant::now();
    hw.validate()?;
    let hw = hw.clone().with_inv_latency_for_bits(curve.p().bits());

    let hir = pairing_hir(curve);
    let shape = tower_shape(curve);
    let lowered = lower(&hir, &shape, variants).map_err(CompileError::Lowering)?;

    let (fp, opt_stats) = if opts.optimize {
        optimize(&lowered, curve.fp())
    } else {
        let n = lowered.stats().executable();
        (
            lowered,
            OptStats {
                before: n,
                after: n,
            },
        )
    };

    let sched = schedule(&fp, &hw, &opts.sched);
    let regs = allocate(&fp, &sched, hw.reg_quota)?;
    let image = link(&fp, &sched, &regs, hw.issue_width)?;

    Ok(CompiledPairing {
        curve: Arc::clone(curve),
        hw,
        hir_len: hir.insts.len(),
        fp,
        opt_stats,
        schedule: sched,
        regs,
        image,
        compile_time: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use finesse_curves::Curve;

    #[test]
    fn compiles_bn254n_end_to_end() {
        let curve = Curve::by_name("BN254N");
        let shape = tower_shape(&curve);
        let variants = VariantConfig::all_karatsuba(&shape);
        let hw = HwModel::paper_default();
        let c = compile_pairing(&curve, &variants, &hw, &CompileOptions::default()).unwrap();
        // Ballpark of the paper's Table 7 (BN254N: 55.3k optimised).
        let n = c.instruction_count();
        assert!(n > 20_000 && n < 120_000, "instruction count {n}");
        assert!(
            c.opt_stats.after < c.opt_stats.before,
            "IROpt shrinks the program"
        );
        assert!(c.regs.peak_live > 50, "real register pressure");
        assert!(!c.image.words.is_empty());
        println!(
            "BN254N: hir={} init={} opt={} (-{:.1}%) peak_regs={} imem={}B time={:?}",
            c.hir_len,
            c.opt_stats.before,
            c.opt_stats.after,
            c.opt_stats.reduction_percent(),
            c.regs.peak_live,
            c.image.imem_bytes(),
            c.compile_time
        );
    }

    #[test]
    fn baseline_compilation_keeps_dense_code() {
        let curve = Curve::by_name("BN254N");
        let shape = tower_shape(&curve);
        let variants = VariantConfig::all_karatsuba(&shape);
        let hw = HwModel::paper_default();
        let opt = compile_pairing(&curve, &variants, &hw, &CompileOptions::default()).unwrap();
        let init = compile_pairing(&curve, &variants, &hw, &CompileOptions::baseline()).unwrap();
        assert!(
            init.instruction_count() > opt.instruction_count(),
            "init {} vs opt {}",
            init.instruction_count(),
            opt.instruction_count()
        );
    }
}
