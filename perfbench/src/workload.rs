//! The four workloads, their input shapes, and the closed measurement
//! loop they share.

use crate::calib;
use crate::codesign::{paper_default, replay, SimStats};
use crate::inputs::{self, Inputs, Rng, Shape};
use crate::stats;
use crate::trace::Tracer;
use finesse::curves::Curve;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BlsVerifyHot,
    BlsVerifyCold,
    KzgProveVerify,
    CodesignSweep,
}

/// Every latency percentile needs ten samples beyond it, so p90 needs
/// 100 ops.
pub const MIN_OPS: usize = 100;

/// `figure10_points`: 3 variant sets × 5 hardware models.
pub const SWEEP_POINTS: usize = 15;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BlsVerifyHot,
        Workload::BlsVerifyCold,
        Workload::KzgProveVerify,
        Workload::CodesignSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BlsVerifyHot => "bls_verify_hot",
            Workload::BlsVerifyCold => "bls_verify_cold",
            Workload::KzgProveVerify => "kzg_prove_verify",
            Workload::CodesignSweep => "codesign_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn curve(self) -> &'static str {
        match self {
            Workload::BlsVerifyHot | Workload::BlsVerifyCold => "BLS12-381",
            Workload::KzgProveVerify | Workload::CodesignSweep => "BN254N",
        }
    }

    /// What one unit of `throughput_per_s` is.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::BlsVerifyHot | Workload::BlsVerifyCold => "signatures",
            Workload::KzgProveVerify => "rounds",
            Workload::CodesignSweep => "design points",
        }
    }

    /// Nominal seconds per op (per sweep for codesign) on a 2-CPU
    /// x86-64 host, one library thread. It sizes a run; it is never
    /// compared against.
    fn nominal_op_s(self) -> f64 {
        match self {
            Workload::BlsVerifyHot => 0.105,
            // 3 honest batches at ~80 ms per forged one at ~245 ms.
            Workload::BlsVerifyCold => 0.121,
            Workload::KzgProveVerify => 0.095,
            Workload::CodesignSweep => 12.3,
        }
    }

    /// The input shape for a run of about `seconds`: a fixed op count
    /// for a given `--seconds`, never a measured duration.
    pub fn shape(self, seconds: u64) -> Shape {
        let units = (seconds as f64 / self.nominal_op_s()).round() as usize;
        let (bls, kzg) = (
            Shape {
                ops: 1 + units.max(MIN_OPS),
                registry: 256,
                batch: 64,
                committee: 4,
                srs_powers: 0,
                points: 0,
            },
            Shape {
                ops: 1 + units.max(MIN_OPS),
                registry: 0,
                batch: 256,
                committee: 0,
                srs_powers: 4096,
                points: 8,
            },
        );
        match self {
            Workload::BlsVerifyHot => bls,
            Workload::BlsVerifyCold => Shape { batch: 16, ..bls },
            Workload::KzgProveVerify => kzg,
            // At least three sweeps: each point's latency is the median
            // of its visits.
            Workload::CodesignSweep => Shape {
                ops: units.max(3) * SWEEP_POINTS,
                ..kzg
            },
        }
    }

    pub fn generate(self, curve: &Arc<Curve>, seed: u64, shape: Shape) -> Inputs {
        let mut rng = Rng::new(self, seed);
        match self {
            Workload::BlsVerifyHot => inputs::gen_bls(curve, &mut rng, shape, true),
            Workload::BlsVerifyCold => inputs::gen_bls(curve, &mut rng, shape, false),
            Workload::KzgProveVerify => inputs::gen_kzg(curve, &mut rng, shape),
            Workload::CodesignSweep => inputs::gen_codesign(&mut rng, shape.ops),
        }
    }
}

/// A workload after set-up: the caller sends op `i` only after op
/// `i - 1` has returned its verdict or proof.
pub trait Runner {
    type Out;

    /// Measured ops (the warm-up op is not one of them).
    fn ops(&self) -> usize;

    /// Throughput units in op `i`.
    fn units(&self, i: usize) -> f64;

    /// Runs op `i` through the public API; only this is timed.
    fn op(&mut self, i: usize, tr: &Tracer) -> Self::Out;

    /// Checks op `i`'s output against the known answer.
    fn check(&mut self, i: usize, out: Self::Out) -> Result<(), String>;

    /// Traced runs only: direct calls to layer functions the op reaches
    /// only from inside the library, made after op `i` and outside its
    /// span.
    fn side_calls(&mut self, _i: usize, _tr: &Tracer) -> Result<(), String> {
        Ok(())
    }

    /// The simulated statistics behind `sim_cycles_geomean` and the
    /// simulated-statistics digest: by default the workload curve's
    /// pairing on the paper-default design point.
    fn sim_stats(&self, curve: &Arc<Curve>) -> Result<Vec<SimStats>, String> {
        Ok(vec![replay(
            curve,
            &paper_default(curve),
            &Tracer::new(false),
        )?])
    }

    /// For a sweep that visits a fixed set of items more than once, the
    /// item each op visited.
    fn items(&self) -> Option<&[usize]> {
        None
    }
}

/// Calibrations within this many seconds of an op set its slowness.
const HALF_WINDOW_S: f64 = 0.5;

/// A host-speed calibration and when it was taken, in seconds from the
/// start of the pass.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    pub at_s: f64,
    pub slowness: f64,
}

/// One pass over every op.
pub struct Pass {
    /// Per-op raw wall time.
    pub wall_ms: Vec<f64>,
    /// The calibrations right before and right after each op.
    pub around: Vec<[Calibration; 2]>,
    pub units: f64,
    pub failed: usize,
    pub first_error: Option<String>,
}

impl Pass {
    /// Op `i`'s slowness: the median of the calibrations taken within
    /// `HALF_WINDOW_S` of it — its own two and its neighbours' — which
    /// shrugs off a calibration that was itself interrupted while still
    /// following the host's speed swings.
    pub fn slowness(&self, i: usize) -> f64 {
        let [start, end] = self.around[i];
        let near: Vec<f64> = self
            .around
            .iter()
            .flatten()
            .filter(|c| c.at_s >= start.at_s - HALF_WINDOW_S && c.at_s <= end.at_s + HALF_WINDOW_S)
            .map(|c| c.slowness)
            .collect();
        stats::median(&near)
    }

    /// Per-op latency in reference-core ms (see `calib`).
    pub fn latency_ms(&self) -> Vec<f64> {
        (0..self.wall_ms.len())
            .map(|i| self.wall_ms[i] / self.slowness(i))
            .collect()
    }

    pub fn busy_s(&self) -> f64 {
        self.latency_ms().iter().sum::<f64>() / 1e3
    }

    /// Units per reference-core second.
    pub fn throughput(&self) -> f64 {
        self.units / self.busy_s()
    }

    /// Units per wall-clock second.
    pub fn wall_throughput(&self) -> f64 {
        self.units * 1e3 / self.wall_ms.iter().sum::<f64>()
    }
}

pub fn measure<R: Runner>(r: &mut R, tr: &Tracer) -> Pass {
    let mut pass = Pass {
        wall_ms: Vec::with_capacity(r.ops()),
        around: Vec::with_capacity(r.ops()),
        units: 0.0,
        failed: 0,
        first_error: None,
    };
    let epoch = Instant::now();
    let calibrate = || Calibration {
        slowness: calib::slowness(),
        at_s: epoch.elapsed().as_secs_f64(),
    };
    for i in 0..r.ops() {
        tr.set_request(i as u64);
        let before = calibrate();
        let t = Instant::now();
        let out = finesse::parallel::with_threads(1, || tr.span("bench.request", || r.op(i, tr)));
        pass.wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.around.push([before, calibrate()]);
        pass.units += r.units(i);
        let mut result = r.check(i, out);
        if tr.is_on() {
            result =
                result.and_then(|()| finesse::parallel::with_threads(1, || r.side_calls(i, tr)));
        }
        if let Err(e) = result {
            pass.failed += 1;
            pass.first_error.get_or_insert(format!("op {i}: {e}"));
        }
    }
    tr.set_request(crate::trace::NO_REQUEST);
    pass
}
