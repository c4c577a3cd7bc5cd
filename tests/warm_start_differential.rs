//! Warm vs cold differential test on the production characterization
//! path: the p-tanh smoke bundle fitted with cross-point donors on and
//! off must report the same surrogate quality. The warm-start switch is
//! process-wide, so this file holds a single test.

use pnc::circuit::activation::{LearnableActivation, SurrogateFidelity};
use pnc::spice::{stats, AfKind};
use pnc::surrogate::sampling::set_warm_start;

/// `(power validation R², transfer RMSE, solver counters)` of one fit.
fn fit(warm: bool) -> (f64, f64, stats::SolverStatsSnapshot) {
    set_warm_start(warm);
    stats::reset();
    let act = LearnableActivation::fit(AfKind::PTanh, &SurrogateFidelity::smoke())
        .expect("surrogate fit");
    (
        act.power_surrogate().validation_r2(),
        act.transfer().fit_rmse(),
        stats::take(),
    )
}

#[test]
fn warm_and_cold_characterization_agree() {
    let (r2_cold, rmse_cold, cold) = fit(false);
    let (r2_warm, rmse_warm, warm) = fit(true);
    // Warm and cold solves stop at different points inside the
    // solver's tolerance (|f(x)| < 1e-12 A, up to ~2e-7 V across
    // µS-scale conductances), so the fits agree to that slack, not
    // bit for bit. Measured: 4e-8 relative on R², 3e-9 V on RMSE.
    assert!(
        (r2_warm - r2_cold).abs() <= 1e-6 * r2_cold.abs(),
        "power R² warm {r2_warm} vs cold {r2_cold}"
    );
    assert!(
        (rmse_warm - rmse_cold).abs() <= 1e-7,
        "transfer RMSE warm {rmse_warm} V vs cold {rmse_cold} V"
    );
    // The switch turns off the donor predictors only: the in-sweep
    // predictors still warm-start most solves of a cold run.
    assert_eq!(cold.donor_warm_starts, 0);
    assert!(cold.warm_started_solves > 0);
    assert!(warm.donor_warm_starts > 0);
    assert!(warm.donor_warm_starts <= warm.warm_started_solves);
    assert!(warm.newton_iterations < cold.newton_iterations);
}
