//! Porting a new curve with the operator kit (paper section 4.5 "for
//! pairing researchers"): define family + generator t, and the framework
//! synthesizes parameters, validates them, finds the twist, and builds a
//! working accelerator — "architectural feedback in just minutes".
//!
//! ```text
//! cargo run --release --example port_new_curve
//! ```

use finesse_compiler::{compile_pairing, CompileOptions};
use finesse_curves::{Curve, Family};
use finesse_dse::evaluate_compiled;
use finesse_ff::{BigInt, BigUint};
use finesse_hw::HwModel;
use finesse_ir::{TowerShape, VariantConfig};
use finesse_pairing::PairingEngine;
use std::sync::Arc;

fn main() {
    // A BLS12 curve NOT in the built-in table: t = -2^77 - 2^59 + 2^9
    // (t = 1 mod 3 so p is integral; both p and r happen to be prime).
    let t = BigInt::from_power_terms(&[(-1, 77), (-1, 59), (1, 9)]);
    println!("porting BLS12 curve with t = {t} ...");

    let curve = match Curve::new(
        "BLS12-custom",
        Family::Bls12,
        t,
        None,
        -1,
        None,
        &[1, 1],
        None,
        0,
    ) {
        Ok(c) => Arc::new(c),
        Err(e) => {
            println!("parameter set rejected: {e}");
            println!("(pick another sparse t — the kit validates everything)");
            return;
        }
    };
    println!(
        "p bits = {}, r bits = {}, twist = {:?}",
        curve.p().bits(),
        curve.r().bits(),
        curve.twist()
    );

    // The reference pairing works immediately...
    let engine = PairingEngine::new(curve.clone());
    let e = engine.pair(curve.g1_generator(), curve.g2_generator());
    let a = BigUint::from_u64(97);
    assert_eq!(
        engine.pair(
            &curve.g1_mul(curve.g1_generator(), &a),
            curve.g2_generator()
        ),
        engine.gt_pow(&e, &a)
    );
    println!("bilinearity on the new curve: ok");

    // ...and so does the whole accelerator flow.
    let shape = TowerShape::for_curve(&curve);
    let variants = VariantConfig::all_karatsuba(&shape);
    let hw = HwModel::paper_default();
    let compiled = compile_pairing(&curve, &variants, &hw, &CompileOptions::default()).unwrap();
    let eval = evaluate_compiled(&compiled, 1).unwrap();
    println!(
        "accelerator: {} instructions, {} cycles, IPC {:.2}, compiled in {:?}",
        eval.instructions, eval.cycles, eval.ipc, compiled.compile_time
    );
}
