//! `codesign_sweep`: the Figure 10 design points for BN254N, each
//! built through `DesignFlow` and validated against the reference
//! pairing — the paper's compile-and-evaluate loop.

use crate::inputs::{fnv1a, Inputs};
use crate::trace::Tracer;
use crate::workload::{Runner, SWEEP_POINTS};
use finesse::compiler::{
    allocate, link, optimize, pairing_hir, schedule, tower_shape, ScheduleOptions,
};
use finesse::core::{Accelerator, DesignFlow, ValidationReport};
use finesse::curves::Curve;
use finesse::dse::{figure10_points, DesignPoint, Evaluation};
use finesse::hw::{area_breakdown, AreaInputs, HwModel};
use finesse::ir::{lower, VariantConfig};
use finesse::pairing::PairingEngine;
use finesse::sim::simulate;
use std::fmt::Write as _;
use std::sync::Arc;

/// The stage calls `DesignFlow::build` makes, replayed one by one.
pub const STAGES: [&str; 8] = [
    "ir.lower",
    "compiler.optimize",
    "compiler.schedule",
    "compiler.allocate",
    "compiler.link",
    "isa.decode",
    "sim.simulate",
    "hw.area_breakdown",
];

/// What a design point's simulation reports.
#[derive(Clone, Debug, PartialEq)]
pub struct SimStats {
    pub label: String,
    pub cycles: u64,
    pub instructions: usize,
    pub ipc: f64,
    pub imem_bytes: usize,
}

impl SimStats {
    fn of(label: &str, e: &Evaluation) -> SimStats {
        SimStats {
            label: label.to_string(),
            cycles: e.cycles,
            instructions: e.instructions,
            ipc: e.ipc,
            imem_bytes: e.imem_bytes,
        }
    }
}

/// Digest of the simulated statistics, in label order.
pub fn sim_digest(stats: &[SimStats]) -> u64 {
    let mut sorted: Vec<&SimStats> = stats.iter().collect();
    sorted.sort_by(|a, b| a.label.cmp(&b.label));
    let mut text = String::new();
    for s in sorted {
        let _ = writeln!(
            text,
            "{}|{}|{}|{:.6}|{}",
            s.label, s.cycles, s.instructions, s.ipc, s.imem_bytes
        );
    }
    fnv1a(text.as_bytes())
}

pub fn geomean(values: &[u64]) -> f64 {
    let logs: f64 = values.iter().map(|&v| (v as f64).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// The paper-default design: all-Karatsuba variants on the default
/// hardware model.
pub fn paper_default(curve: &Arc<Curve>) -> DesignPoint {
    DesignPoint {
        label: "paper-default".into(),
        variants: VariantConfig::all_karatsuba(&tower_shape(curve)),
        hw: HwModel::paper_default(),
    }
}

/// Replays `DesignFlow::build`'s compile-and-evaluate chain one public
/// stage call at a time, each in its own span, and records the exact
/// counts the stages produce.
pub fn replay(curve: &Arc<Curve>, point: &DesignPoint, tr: &Tracer) -> Result<SimStats, String> {
    point.hw.validate().map_err(|e| e.to_string())?;
    let hw = point.hw.clone().with_inv_latency_for_bits(curve.p().bits());
    let hir = pairing_hir(curve);
    let shape = tower_shape(curve);
    let lowered = tr.span("ir.lower", || lower(&hir, &shape, &point.variants))?;
    let (fp, opt) = tr.span("compiler.optimize", || optimize(&lowered, curve.fp()));
    let sched = tr.span("compiler.schedule", || {
        schedule(&fp, &hw, &ScheduleOptions::default())
    });
    let regs = tr.span("compiler.allocate", || allocate(&fp, &sched, hw.reg_quota));
    let regs = regs.map_err(|e| e.to_string())?;
    let image = tr.span("compiler.link", || link(&fp, &sched, &regs, hw.issue_width));
    let image = image.map_err(|e| e.to_string())?;
    let insts = tr.span("isa.decode", || image.spec.decode(&image.words));
    let insts = insts.map_err(|e| e.to_string())?;
    let report = tr.span("sim.simulate", || simulate(&insts, &hw, None));
    let inputs = AreaInputs {
        field_bits: curve.p().bits() as u32,
        imem_bytes: image.imem_bytes(),
        live_registers: regs.peak_live as usize,
        cores: 1,
    };
    tr.span("hw.area_breakdown", || area_breakdown(&hw, &inputs));
    tr.count("compiler.insts_before_opt", opt.before as u64);
    tr.count("compiler.insts_after_opt", opt.after as u64);
    tr.count("compiler.peak_live_regs", u64::from(regs.peak_live));
    tr.count("isa.imem_bytes", image.imem_bytes() as u64);
    tr.count("sim.cycles", report.cycles);
    tr.count("sim.wb_conflicts", report.wb_conflicts);
    Ok(SimStats {
        label: point.label.clone(),
        cycles: report.cycles,
        instructions: fp.stats().executable() + fp.inputs.len() + fp.outputs.len(),
        ipc: report.ipc(),
        imem_bytes: image.imem_bytes(),
    })
}

/// Builds and validates one design point: the codesign op.
pub fn build_and_validate(
    curve: &Arc<Curve>,
    point: &DesignPoint,
    tr: &Tracer,
) -> Result<(Evaluation, ValidationReport), String> {
    let flow = DesignFlow::for_curve(curve.name())
        .variants(point.variants.clone())
        .hardware(point.hw.clone());
    let acc: Accelerator = tr
        .span("core.build", || flow.build())
        .map_err(|e| e.to_string())?;
    let report = tr.span("core.validate", || acc.validate(1));
    Ok((acc.evaluation().clone(), report))
}

pub struct Codesign {
    curve: Arc<Curve>,
    points: Vec<DesignPoint>,
    order: Vec<usize>,
    /// The simulated statistics of every op, filled in by `check`.
    stats: Vec<Option<SimStats>>,
    /// Points already replayed stage by stage (traced runs).
    replayed: Vec<bool>,
}

impl Codesign {
    /// Set-up: the curve, the engine, the recorded pairing IR, and one
    /// paper-default design built and validated (the warm-up op).
    pub fn setup(curve_name: &str, inputs: Inputs, tr: &Tracer) -> Result<Codesign, String> {
        let Inputs::Codesign { order } = inputs else {
            return Err("not a codesign input file".into());
        };
        let curve = Curve::by_name(curve_name);
        // Built and dropped: set-up covers the engine on every workload.
        let _engine = PairingEngine::new(Arc::clone(&curve));
        pairing_hir(&curve);
        let points = figure10_points(&curve);
        if points.len() != SWEEP_POINTS || order.iter().any(|&i| i >= points.len()) {
            return Err(format!("expected {SWEEP_POINTS} design points"));
        }
        let (_, report) = tr.with(false, || {
            build_and_validate(&curve, &paper_default(&curve), tr)
        })?;
        if !report.all_passed() {
            return Err("warm-up design failed validation".into());
        }
        Ok(Codesign {
            curve,
            points,
            stats: vec![None; order.len()],
            replayed: vec![false; SWEEP_POINTS],
            order,
        })
    }
}

impl Runner for Codesign {
    type Out = Result<(Evaluation, ValidationReport), String>;

    fn ops(&self) -> usize {
        self.order.len()
    }

    fn units(&self, _i: usize) -> f64 {
        1.0
    }

    fn op(&mut self, i: usize, tr: &Tracer) -> Self::Out {
        build_and_validate(&self.curve, &self.points[self.order[i]], tr)
    }

    fn check(&mut self, i: usize, out: Self::Out) -> Result<(), String> {
        let (eval, report) = out?;
        let label = &self.points[self.order[i]].label;
        if report.vectors != 1 || !report.all_passed() {
            return Err(format!("{label}: validation {report:?}"));
        }
        self.stats[i] = Some(SimStats::of(label, &eval));
        Ok(())
    }

    fn sim_stats(&self, _: &Arc<Curve>) -> Result<Vec<SimStats>, String> {
        let mut seen = Vec::new();
        for s in &self.stats {
            let s = s.clone().ok_or("design point without statistics")?;
            if !seen.contains(&s) {
                seen.push(s);
            }
        }
        Ok(seen)
    }

    fn items(&self) -> Option<&[usize]> {
        Some(&self.order)
    }

    /// Replays each point once, stage by stage; its simulated statistics
    /// must equal `build()`'s evaluation.
    fn side_calls(&mut self, i: usize, tr: &Tracer) -> Result<(), String> {
        let point = self.order[i];
        if std::mem::replace(&mut self.replayed[point], true) {
            return Ok(());
        }
        let replayed = replay(&self.curve, &self.points[point], tr)?;
        match &self.stats[i] {
            Some(built) if *built == replayed => Ok(()),
            built => Err(format!("replay {replayed:?} differs from build {built:?}")),
        }
    }
}
