//! The Finesse end-to-end benchmark's measured program. `run.py` drives
//! it in three steps, each a separate process:
//!
//! ```text
//! finesse-perfbench gen   --workload W --seed N --seconds S --dir D
//! finesse-perfbench setup --workload W --dir D
//! finesse-perfbench run   --workload W --dir D --trace 0|1
//! ```
//!
//! `gen` derives every input from the seed and writes `D/inputs.bin`;
//! `setup` times a cold set-up; `run` sets up, measures every op with
//! one caller and one library thread, checks every output, and prints
//! the result as its last line of JSON.

mod bls;
mod calib;
mod codesign;
mod inputs;
mod kzg;
mod probes;
mod stats;
mod trace;
mod workload;

use crate::calib::Timed;
use crate::codesign::{geomean, sim_digest, STAGES};
use crate::inputs::{fnv1a, Inputs};
use crate::trace::{Row, Tracer};
use crate::workload::{measure, Runner, Workload};
use finesse::curves::Curve;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

struct Args {
    cmd: String,
    workload: Workload,
    dir: PathBuf,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command (gen, setup or run)")?;
    let mut flags = BTreeMap::new();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        flags.insert(k, v);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let num = |k: &str, default: u64| -> Result<u64, String> {
        flags.get(k).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {k}: {v}"))
        })
    };
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or(format!("unknown workload {name}"))?,
        dir: PathBuf::from(get("--dir")?),
        seed: num("--seed", 0)?,
        seconds: num("--seconds", 15)?,
        trace: num("--trace", 0)? == 1,
        cmd,
    })
}

fn main() {
    let result = parse_args().and_then(|args| match args.cmd.as_str() {
        "gen" => gen(&args),
        "setup" => setup_only(&args),
        "run" => run(&args),
        other => Err(format!("unknown command {other}")),
    });
    if let Err(e) = result {
        eprintln!("finesse-perfbench: {e}");
        std::process::exit(1);
    }
}

fn inputs_path(dir: &Path) -> PathBuf {
    dir.join("inputs.bin")
}

fn gen(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let curve = Curve::by_name(w.curve());
    let shape = w.shape(args.seconds);
    let bytes = w
        .generate(&curve, args.seed, shape)
        .to_bytes(curve.r().limbs().len());
    std::fs::create_dir_all(&args.dir).map_err(|e| e.to_string())?;
    std::fs::write(inputs_path(&args.dir), &bytes).map_err(|e| e.to_string())?;
    println!(
        "{{\"input_digest\": \"{:016x}\", \"ops\": {}}}",
        fnv1a(&bytes),
        shape.ops
    );
    Ok(())
}

fn load(args: &Args) -> Result<Inputs, String> {
    let path = inputs_path(&args.dir);
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Inputs::from_bytes(&bytes)
}

/// A workload after set-up.
enum Ready {
    Bls(bls::Bls),
    Kzg(kzg::KzgRound),
    Codesign(codesign::Codesign),
}

/// Sets a workload up, cold, between two host-speed calibrations.
fn setup(w: Workload, inputs: Inputs, tr: &Tracer) -> Result<(Ready, Timed), String> {
    let (ready, t) = calib::timed(|| {
        finesse::parallel::with_threads(1, || -> Result<Ready, String> {
            Ok(match w {
                Workload::BlsVerifyHot => {
                    Ready::Bls(bls::Bls::setup(w.curve(), inputs, false, tr)?)
                }
                Workload::BlsVerifyCold => {
                    Ready::Bls(bls::Bls::setup(w.curve(), inputs, true, tr)?)
                }
                Workload::KzgProveVerify => {
                    Ready::Kzg(kzg::KzgRound::setup(w.curve(), inputs, tr)?)
                }
                Workload::CodesignSweep => {
                    Ready::Codesign(codesign::Codesign::setup(w.curve(), inputs, tr)?)
                }
            })
        })
    });
    Ok((ready?, t))
}

fn setup_only(args: &Args) -> Result<(), String> {
    let inputs = load(args)?;
    let (_, t) = setup(args.workload, inputs, &Tracer::new(false))?;
    println!(
        "{{\"setup_s\": {}, \"wall_s\": {}}}",
        t.scaled_ms() / 1e3,
        t.wall_ms / 1e3
    );
    Ok(())
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A metric value and unit, in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Outcome {
    attempted: usize,
    failed: usize,
    first_error: Option<String>,
    metrics: Metrics,
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let inputs = load(args)?;
    let tr = Tracer::new(args.trace);
    let (ready, setup_t) = setup(w, inputs, &tr)?;
    let outcome = match ready {
        Ready::Bls(r) => drive(args, r, &tr, setup_t),
        Ready::Kzg(r) => drive(args, r, &tr, setup_t),
        Ready::Codesign(r) => drive(args, r, &tr, setup_t),
    }?;
    if let Some(e) = &outcome.first_error {
        eprintln!("first failure: {e}");
    }
    let mut json = String::new();
    for (name, value, unit) in &outcome.metrics {
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    Ok(())
}

fn drive<R: Runner>(args: &Args, mut r: R, tr: &Tracer, setup: Timed) -> Result<Outcome, String> {
    let w = args.workload;
    let curve = Curve::by_name(w.curve());
    if args.trace {
        return drive_traced(args, r, tr);
    }
    let pass = measure(&mut r, tr);
    let rss = peak_rss_mb()?;
    let latency_ms = pass.latency_ms();
    let attempted = latency_ms.len();
    let per_op: String = (0..attempted)
        .map(|i| {
            format!(
                "{} {} {}\n",
                latency_ms[i],
                pass.wall_ms[i],
                pass.slowness(i)
            )
        })
        .collect();
    std::fs::write(args.dir.join("latency_ms.txt"), per_op).map_err(|e| e.to_string())?;

    let (mut lat, throughput) = match r.items() {
        // A sweep's latency per item is the median of its visits.
        Some(items) => {
            let mut visits: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for (&item, &l) in items.iter().zip(&latency_ms) {
                visits.entry(item).or_default().push(l);
            }
            let lat: Vec<f64> = visits.values().map(|v| stats::median(v)).collect();
            let throughput = lat.len() as f64 * 1e3 / lat.iter().sum::<f64>();
            (lat, throughput)
        }
        None => (latency_ms, pass.throughput()),
    };
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    let (p50, p90, how) = if r.items().is_some() {
        let how = format!("Harrell-Davis over {n} fixed items, each the median of its visits");
        (
            stats::harrell_davis(&lat, 0.5),
            stats::harrell_davis(&lat, 0.9),
            how,
        )
    } else {
        let top = stats::highest_percentile(n).ok_or("too few ops for any percentile")?;
        let how = format!("n = {n}; p{top} {:.3}", stats::percentile(&lat, top)?);
        (
            stats::percentile(&lat, 50)?,
            stats::percentile(&lat, 90)?,
            how,
        )
    };
    let sims = r.sim_stats(&curve)?;
    let cycles: Vec<u64> = sims.iter().map(|s| s.cycles).collect();
    let ok_frac = (attempted - pass.failed) as f64 / attempted as f64;

    println!(
        "workload {} on {}: {attempted} ops, {:.0} {}, {:.2} s busy on the reference core",
        w.name(),
        w.curve(),
        pass.units,
        w.unit(),
        pass.busy_s()
    );
    println!("latency_ms: p50 {p50:.3}, p90 {p90:.3} ({how})");
    let mut slow: Vec<f64> = (0..attempted).map(|i| pass.slowness(i)).collect();
    slow.sort_by(f64::total_cmp);
    println!(
        "raw wall clock: throughput {:.3}/s, setup {:.3} s; host slowness median {:.3} (range {:.3}..{:.3})",
        pass.wall_throughput(),
        setup.wall_ms / 1e3,
        slow[attempted / 2],
        slow[0],
        slow[attempted - 1]
    );
    println!(
        "sim_digest {:016x} ({} design points)",
        sim_digest(&sims),
        sims.len()
    );
    Ok(Outcome {
        attempted,
        failed: pass.failed,
        first_error: pass.first_error,
        metrics: vec![
            ("setup_s", setup.scaled_ms() / 1e3, "s"),
            ("throughput_per_s", throughput, "1/s"),
            ("latency_ms_p50", p50, "ms"),
            ("latency_ms_p90", p90, "ms"),
            ("peak_rss_mb", rss, "MiB"),
            ("ok_frac", ok_frac, "fraction"),
            ("sim_cycles_geomean", geomean(&cycles), "cycles"),
        ],
    })
}

/// Per-layer metrics read from span rows: (metric, span, ns per unit).
const SPAN_METRICS: [(&str, &str, f64, &str); 31] = [
    ("ff.fp_mul_ns", "ff.fp_mul", 1.0, "ns"),
    ("ff.fq_mul_ns", "ff.fq_mul", 1.0, "ns"),
    ("ff.fpk_mul_ns", "ff.fpk_mul", 1.0, "ns"),
    ("ff.fpk_sqr_ns", "ff.fpk_sqr", 1.0, "ns"),
    (
        "ff.fpk_cyclotomic_sqr_ns",
        "ff.fpk_cyclotomic_sqr",
        1.0,
        "ns",
    ),
    ("curves.decode_g1_us", "curves.decode_g1", 1e3, "us"),
    ("curves.hash_to_g1_us", "curves.hash_to_g1", 1e3, "us"),
    ("curves.decode_g2_ms", "curves.decode_g2", 1e6, "ms"),
    ("pairing.prepare_g2_ms", "pairing.prepare_g2", 1e6, "ms"),
    (
        "pairing.miller_loop_prepared_ms",
        "pairing.miller_loop_prepared",
        1e6,
        "ms",
    ),
    (
        "pairing.settle_isolating_honest_ms",
        "pairing.settle_isolating_honest",
        1e6,
        "ms",
    ),
    (
        "pairing.settle_isolating_forged_ms",
        "pairing.settle_isolating_forged",
        1e6,
        "ms",
    ),
    ("pairing.settle_ms", "pairing.settle", 1e6, "ms"),
    ("pairing.push_check_us", "pairing.push_check", 1e3, "us"),
    (
        "pairing.final_exponentiation_ms",
        "pairing.final_exponentiation",
        1e6,
        "ms",
    ),
    ("poly.commit_ms", "poly.commit", 1e6, "ms"),
    ("curves.g1_msm_ms", "curves.g1_msm", 1e6, "ms"),
    ("poly.open_batch_ms", "poly.open_batch", 1e6, "ms"),
    ("poly.eval_us", "poly.eval", 1e3, "us"),
    (
        "poly.divide_by_linear_us",
        "poly.divide_by_linear",
        1e3,
        "us",
    ),
    ("poly.verify_batch_ms", "poly.verify_batch", 1e6, "ms"),
    ("ir.lower_ms", "ir.lower", 1e6, "ms"),
    ("compiler.optimize_ms", "compiler.optimize", 1e6, "ms"),
    ("compiler.schedule_ms", "compiler.schedule", 1e6, "ms"),
    ("compiler.allocate_ms", "compiler.allocate", 1e6, "ms"),
    ("compiler.link_ms", "compiler.link", 1e6, "ms"),
    ("isa.decode_ms", "isa.decode", 1e6, "ms"),
    ("sim.simulate_ms", "sim.simulate", 1e6, "ms"),
    ("hw.area_breakdown_us", "hw.area_breakdown", 1e3, "us"),
    ("core.build_ms", "core.build", 1e6, "ms"),
    ("core.validate_ms", "core.validate", 1e6, "ms"),
];

/// Exact per-layer counts, summed over the replayed design points.
const COUNT_METRICS: [&str; 6] = [
    "compiler.insts_before_opt",
    "compiler.insts_after_opt",
    "compiler.peak_live_regs",
    "isa.imem_bytes",
    "sim.cycles",
    "sim.wb_conflicts",
];

/// The traced run: an untraced pass, a traced pass over the same ops,
/// then probes for the layers the workload does not reach directly.
fn drive_traced<R: Runner>(args: &Args, mut r: R, tr: &Tracer) -> Result<Outcome, String> {
    let w = args.workload;
    let curve = Curve::by_name(w.curve());
    let plain = tr.with(false, || measure(&mut r, tr));
    let traced = measure(&mut r, tr);
    // Span times are raw; each source is scaled by its own host-speed
    // calibration (the traced pass's median, the probes' own).
    let pass_slowness = stats::median(
        &(0..traced.wall_ms.len())
            .map(|i| traced.slowness(i))
            .collect::<Vec<_>>(),
    );
    let mut rows: BTreeMap<&str, (Row, f64)> = trace::table(&tr.spans())
        .into_iter()
        .map(|(k, row)| (k, (row, 1.0 / pass_slowness)))
        .collect();
    let mut counts = tr.counts();

    let probe_tr = Tracer::new(true);
    let have: Vec<&str> = rows.keys().copied().collect();
    let missing = |names: &[&str]| names.iter().any(|n| !have.contains(n));
    let (probed, probe_t) = calib::timed(|| {
        finesse::parallel::with_threads(1, || probes::run(&curve, missing, &probe_tr))
    });
    probed?;
    for (name, row) in trace::table(&probe_tr.spans()) {
        rows.entry(name).or_insert((row, 1.0 / probe_t.slowness));
    }
    if counts.is_empty() {
        counts = probe_tr.counts();
    }

    let spans_path = args.dir.join("spans.jsonl");
    let probe_path = args.dir.join("probe_spans.jsonl");
    std::fs::write(&spans_path, trace::to_jsonl(&tr.spans())).map_err(|e| e.to_string())?;
    std::fs::write(&probe_path, trace::to_jsonl(&probe_tr.spans())).map_err(|e| e.to_string())?;
    println!(
        "per-layer table ({}, raw wall clock; spans in {}):",
        w.name(),
        spans_path.display()
    );
    print!(
        "{}",
        trace::render(&rows.iter().map(|(k, (row, _))| (*k, row.clone())).collect())
    );

    let row = |span: &str| rows.get(span).ok_or(format!("no span {span} was recorded"));
    let mut metrics: Metrics = Vec::new();
    for (metric, span, ns_per_unit, unit) in SPAN_METRICS {
        let (r, scale) = row(span)?;
        metrics.push((metric, r.per_call_ns() * scale / ns_per_unit, unit));
    }
    // One build against one stage-by-stage replay of the same point.
    let stage_ns: f64 = STAGES
        .iter()
        .map(|s| row(s).map(|(r, scale)| r.total_ns as f64 * scale))
        .sum::<Result<_, _>>()?;
    let replays = row(STAGES[0])?.0.spans as f64;
    let (build, build_scale) = row("core.build")?;
    let build_ns = build.total_ns as f64 * build_scale / build.spans as f64;
    metrics.push((
        "core.build_over_stages",
        build_ns / (stage_ns / replays),
        "ratio",
    ));
    for name in COUNT_METRICS {
        let v = counts.get(name).ok_or(format!("no count {name}"))?;
        metrics.push((name, *v as f64, "count"));
    }
    let (request, scale) = row("bench.request")?;
    metrics.push((
        "bench.request_self_ms",
        request.self_ns as f64 * scale / request.spans as f64 / 1e6,
        "ms",
    ));
    let overhead = 1.0 - traced.throughput() / plain.throughput();
    metrics.push(("bench.trace_overhead_frac", overhead, "fraction"));
    println!(
        "throughput: {:.3} untraced, {:.3} traced {}/s (overhead {:.4})",
        plain.throughput(),
        traced.throughput(),
        w.unit(),
        overhead
    );

    let attempted = plain.wall_ms.len() + traced.wall_ms.len();
    Ok(Outcome {
        attempted,
        failed: plain.failed + traced.failed,
        first_error: plain.first_error.or(traced.first_error),
        metrics,
    })
}
