//! Shape-level reproduction checks: the qualitative claims of Table 1 —
//! who wins, in which direction the knobs move costs, and where bounds
//! sit — hold on measured executions, not just in the formulas.

use improved_le::algorithms::asynchronous::tradeoff as a_tr;
use improved_le::algorithms::sync::{
    afek_gafni, gossip_baseline, improved_tradeoff, las_vegas, sublinear_mc, two_round_adversarial,
};
use improved_le::analysis::regression::fit_power_law;
use improved_le::asynchronous::{AsyncSimBuilder, AsyncWakeSchedule};
use improved_le::bounds::formulas;
use improved_le::model::NodeIndex;
use improved_le::sync::{SyncSimBuilder, WakeSchedule};

/// Env-gated wall-clock guard: with `LE_TIMING=1` (and `--nocapture`) each
/// test prints its elapsed time on exit, so CI logs make hot-path
/// regressions visible without a flaky hard threshold. The print happens in
/// `Drop`, so timings appear even for failing tests.
struct SuiteTimer {
    name: &'static str,
    start: std::time::Instant,
}

impl SuiteTimer {
    fn new(name: &'static str) -> Self {
        SuiteTimer {
            name,
            start: std::time::Instant::now(),
        }
    }
}

impl Drop for SuiteTimer {
    fn drop(&mut self) {
        if le_bench::timing() {
            eprintln!(
                "LE_TIMING tradeoff_shapes::{}: {:.2?}",
                self.name,
                self.start.elapsed()
            );
        }
    }
}

fn improved_messages(n: usize, ell: usize, seed: u64) -> u64 {
    let cfg = improved_tradeoff::Config::with_rounds(ell);
    SyncSimBuilder::new(n)
        .seed(seed)
        .build(|id, n| improved_tradeoff::Node::new(id, n, cfg))
        .unwrap()
        .run()
        .unwrap()
        .stats
        .total()
}

fn ag_messages(n: usize, ell: usize, seed: u64) -> u64 {
    let cfg = afek_gafni::Config::with_rounds(ell);
    SyncSimBuilder::new(n)
        .seed(seed)
        .build(|id, n| afek_gafni::Node::new(id, n, cfg))
        .unwrap()
        .run()
        .unwrap()
        .stats
        .total()
}

#[test]
fn messages_fall_as_rounds_grow_for_both_tradeoff_algorithms() {
    let _timing = SuiteTimer::new("messages_fall_as_rounds_grow_for_both_tradeoff_algorithms");
    let n = 512;
    let imp: Vec<u64> = [3usize, 7, 11]
        .iter()
        .map(|&l| improved_messages(n, l, 2))
        .collect();
    assert!(imp[0] > imp[1] && imp[1] > imp[2], "improved: {imp:?}");
    let ag: Vec<u64> = [2usize, 6, 10]
        .iter()
        .map(|&l| ag_messages(n, l, 2))
        .collect();
    assert!(ag[0] > ag[1] && ag[1] > ag[2], "afek-gafni: {ag:?}");
}

#[test]
fn improved_beats_baseline_even_with_one_fewer_round() {
    let _timing = SuiteTimer::new("improved_beats_baseline_even_with_one_fewer_round");
    // Theorem 3.10's headline: at ℓ (improved) vs ℓ+1 (baseline), the
    // improved algorithm still wins.
    for n in [512usize, 2048] {
        for ell in [3usize, 5, 7] {
            let imp = improved_messages(n, ell, 4);
            let ag = ag_messages(n, ell + 1, 4);
            assert!(
                imp < ag,
                "n={n}, ℓ={ell}: improved {imp} did not beat baseline {ag}"
            );
        }
    }
}

#[test]
fn measured_costs_sit_between_bounds() {
    let _timing = SuiteTimer::new("measured_costs_sit_between_bounds");
    // LB(Thm 3.8) ≤ measured ≤ 4·UB(Thm 3.10).
    for n in [256usize, 1024] {
        for ell in [3usize, 5, 9] {
            let measured = improved_messages(n, ell, 1) as f64;
            let lb = formulas::thm38_message_lower_bound(n, ell);
            let ub = 4.0 * formulas::thm310_message_upper_bound(n, ell);
            assert!(lb <= measured, "n={n}, ℓ={ell}: {measured} below LB {lb}");
            assert!(measured <= ub, "n={n}, ℓ={ell}: {measured} above 4·UB {ub}");
        }
    }
}

#[test]
fn two_round_cost_scales_as_three_halves() {
    let _timing = SuiteTimer::new("two_round_cost_scales_as_three_halves");
    // Fit the exponent across a 16× range of n at full wake-up.
    let ns = [256usize, 1024, 4096];
    let ys: Vec<f64> = ns
        .iter()
        .map(|&n| {
            let total: u64 = (0..3)
                .map(|seed| {
                    SyncSimBuilder::new(n)
                        .seed(seed)
                        .wake(WakeSchedule::simultaneous(n))
                        .max_rounds(2)
                        .build(|_, _| {
                            two_round_adversarial::Node::new(two_round_adversarial::Config::new(
                                0.1,
                            ))
                        })
                        .unwrap()
                        .run()
                        .unwrap()
                        .stats
                        .total()
                })
                .sum();
            total as f64 / 3.0
        })
        .collect();
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    let fit = fit_power_law(&xs, &ys).unwrap();
    assert!(
        (fit.exponent - 1.5).abs() < 0.12,
        "2-round exponent {:.3} is not ≈ 1.5",
        fit.exponent
    );
}

#[test]
fn vegas_gap_is_visible_in_measurements() {
    let _timing = SuiteTimer::new("vegas_gap_is_visible_in_measurements");
    // LV pays Θ(n) (the announcement); MC stays well below LV for large n,
    // and LV always clears the Ω(n) floor.
    let n = 4096;
    let lv = SyncSimBuilder::new(n)
        .seed(3)
        .build(|id, _| las_vegas::Node::new(id, las_vegas::Config::default()))
        .unwrap()
        .run()
        .unwrap()
        .stats
        .total() as f64;
    let mc = SyncSimBuilder::new(n)
        .seed(3)
        .build(|_, _| sublinear_mc::Node::new(sublinear_mc::Config::default()))
        .unwrap()
        .run()
        .unwrap()
        .stats
        .total() as f64;
    assert!(lv >= formulas::lasvegas_message_lower_bound(n));
    assert!(lv >= (n - 1) as f64, "LV must pay the announcement");
    assert!(mc < lv, "MC ({mc}) should undercut LV ({lv}) at n = {n}");
}

#[test]
fn async_tradeoff_moves_in_the_right_direction() {
    let _timing = SuiteTimer::new("async_tradeoff_moves_in_the_right_direction");
    // Larger k: fewer messages, (weakly) more time.
    let n = 1024;
    let run = |k: usize| {
        let o = AsyncSimBuilder::new(n)
            .seed(5)
            .wake(AsyncWakeSchedule::single(NodeIndex(0)))
            .build(|_, _| a_tr::Node::new(a_tr::Config::new(k)))
            .unwrap()
            .run()
            .unwrap();
        o.stats.total()
    };
    let m2 = run(2);
    let m5 = run(5);
    assert!(m2 > m5, "k=2 sent {m2} <= k=5's {m5}");
}

#[test]
fn gossip_beats_two_round_past_the_crossover() {
    let _timing = SuiteTimer::new("gossip_beats_two_round_past_the_crossover");
    // The [14]-shaped story: many rounds buy messages. The Θ(n^{3/2})
    // 2-round cost is forced at large wake-up sets (the Theorem 4.2
    // adversary wakes Θ(√n) roots; full wake-up is its worst case), and at
    // n = 4096 the quasilinear gossip cost undercuts it.
    let n = 4096;
    let cfg = gossip_baseline::Config::default();
    let gossip = SyncSimBuilder::new(n)
        .seed(2)
        .wake(WakeSchedule::simultaneous(n))
        .max_rounds(cfg.total_rounds(n) + 2)
        .build(|id, _| gossip_baseline::Node::new(id, cfg))
        .unwrap()
        .run()
        .unwrap()
        .stats
        .total();
    let two_round = SyncSimBuilder::new(n)
        .seed(2)
        .wake(WakeSchedule::simultaneous(n))
        .max_rounds(2)
        .build(|_, _| two_round_adversarial::Node::new(two_round_adversarial::Config::new(0.1)))
        .unwrap()
        .run()
        .unwrap()
        .stats
        .total();
    assert!(
        gossip < two_round,
        "gossip {gossip} did not undercut 2-round {two_round} at n = {n}"
    );
}
