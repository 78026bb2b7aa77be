//! The Active-Harmony-style client/server architecture with real
//! threads: a tuning server owns PRO while 16 client threads (simulated
//! SPMD processes) fetch parameter assignments, measure under local
//! noise, and report back over channels. With more clients than
//! candidate points, extra capacity gives free multi-sampling (§5.2).
//!
//! ```text
//! cargo run --release --example distributed_server
//! ```

use harmony::prelude::*;

fn main() {
    let gs2 = Gs2Model::paper_scale();
    let noise = Noise::paper_default(0.25);

    println!("distributed tuning of GS2 (3 params) on 16 client threads\n");
    println!("estimator   steps  evals   best(ntheta,negrid,nodes)  true s/iter");
    for est in [Estimator::Single, Estimator::MinOfK(4)] {
        let cfg = ServerConfig::new(16, 150, est, 11).expect("valid server config");
        let mut pro = ProOptimizer::with_defaults(gs2.space().clone());
        let out = run_session(&gs2, &noise, &mut pro, cfg, SessionOptions::default())
            .unwrap()
            .outcome;
        println!(
            "{:<10} {:>6} {:>6}   ({:>3}, {:>2}, {:>2})              {:>8.3}",
            est.label(),
            out.trace.len(),
            out.evaluations,
            out.best_point[0],
            out.best_point[1],
            out.best_point[2],
            out.best_true_cost,
        );
    }

    // ground truth for reference
    let (p, v) = best_on_lattice(&gs2).expect("discrete space");
    println!(
        "\nglobal optimum: ({}, {}, {}) -> {v:.3} s/iter",
        p[0], p[1], p[2]
    );
    println!("min-of-4 costs barely more wall-clock: the samples ride on idle clients.");
}
