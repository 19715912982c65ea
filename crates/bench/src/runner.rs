//! Experiment runners — one per figure of the paper's §V.
//!
//! Each runner sweeps the figure's x-axis with everything else at the
//! §V-A defaults and averages over independent seeds. The whole grid —
//! every (scenario point, seed) pair — is flattened onto the
//! workspace's one fork–join ([`edge_common::fork::fan_out`]), and
//! results come back in input order, so tables are byte-identical at
//! any worker count. Runners return typed rows that [`crate::report`]
//! renders as tables and JSON. Absolute numbers differ from the paper
//! (different hardware, synthetic traces); the *shape* is what
//! EXPERIMENTS.md tracks.

use crate::scenario::{multi_round_instance, single_round_instance};
use edge_auction::msoa::MsoaConfig;
use edge_auction::msoa::MultiRoundInstance;
use edge_auction::offline::{offline_optimum_multi, offline_optimum_round, per_round_dp_bound};
use edge_auction::ssam::{run_ssam, SsamConfig};
use edge_auction::variants::{run_variant, MsoaVariant};
use edge_common::fork;
use edge_common::rng::derive_rng;
use edge_lp::IlpOptions;
use edge_telemetry::spans;
use edge_workload::params::PaperParams;
use serde::Serialize;
use std::time::Instant;

/// Default seeds per configuration (each figure point is a mean).
pub const DEFAULT_SEEDS: u64 = 10;

/// Instance sizes (total bids across rounds) up to which the exact
/// multi-round branch-and-bound is attempted for the offline optimum;
/// larger instances fall back to the per-round DP lower bound, whose
/// ratios conservatively over-state the online mechanism's gap.
const EXACT_OFFLINE_BUDGET: usize = 60;

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs `f(point, seed)` for every (scenario point, seed) cell and
/// returns, per point in input order, the seed-ordered results.
/// Flattening both axes into one work list keeps the workers busy even
/// when a figure has few points or few seeds; [`fork::fan_out`] returns
/// the cells in input order, so output is independent of the worker
/// count. A sweep uses one worker per core and at most one per cell.
///
/// The sweep's shape lands as deterministic `points`, `seeds` and
/// `cells` counters on the span open on the calling thread — the
/// figure's own, opened by [`crate::report::render_figure`].
fn par_sweep<P: Sync, T: Send>(
    points: &[P],
    seeds: u64,
    f: impl Fn(&P, u64) -> T + Sync,
) -> Vec<Vec<T>> {
    let per_point = seeds as usize;
    let cells = points.len() * per_point;
    spans::ctr("points", points.len() as u64);
    spans::ctr("seeds", seeds);
    spans::ctr("cells", cells as u64);
    let threads = fork::pin().map_or_else(fork::cores, |(threads, _)| threads);
    let flat = {
        // Cells run inline on one worker and on pool threads otherwise;
        // keeping their spans out of the tree keeps the deterministic
        // trace identical either way.
        let _quiet = spans::suppress_tree();
        fork::fan_out(threads, cells, |i| {
            f(&points[i / per_point], (i % per_point) as u64)
        })
    };
    let mut results = flat.into_iter();
    points
        .iter()
        .map(|_| results.by_ref().take(per_point).collect())
        .collect()
}

/// The offline optimum (or a provable lower bound) of a multi-round
/// instance, choosing the solver by size.
fn offline_value(instance: &MultiRoundInstance, use_estimated: bool) -> Option<f64> {
    let size: usize = instance.rounds().iter().map(|r| r.bids.len()).sum();
    if size <= EXACT_OFFLINE_BUDGET {
        let opts = IlpOptions {
            max_nodes: 2_000,
            ..IlpOptions::default()
        };
        offline_optimum_multi(instance, use_estimated, &opts)
            .ok()
            .map(|b| b.value())
    } else {
        per_round_dp_bound(instance, use_estimated)
    }
}

// ---------------------------------------------------------------------
// Figure 3(a): SSAM performance ratio vs number of microservices and J.
// ---------------------------------------------------------------------

/// One point of Figure 3(a).
#[derive(Debug, Clone, Serialize)]
pub struct Fig3aRow {
    /// Number of microservices `|S|`.
    pub microservices: usize,
    /// Bids per seller `J`.
    pub bids_per_seller: usize,
    /// Mean SSAM / optimal ratio over the seeds.
    pub mean_ratio: f64,
    /// Mean certified upper bound `π = H_X · Ξ`.
    pub mean_certified_pi: f64,
}

/// Runs the Figure 3(a) sweep.
pub fn fig3a(seeds: u64) -> Vec<Fig3aRow> {
    let points: Vec<(usize, usize)> = [1usize, 2]
        .iter()
        .flat_map(|&j| [5usize, 10, 15, 20, 25].iter().map(move |&s| (j, s)))
        .collect();
    let per_point = par_sweep(&points, seeds, |&(j, s), seed| {
        let params = PaperParams::default()
            .with_microservices(s)
            .with_bids_per_seller(j);
        let mut rng = derive_rng(seed, "fig3a");
        let inst = single_round_instance(&params, &mut rng);
        let outcome = run_ssam(&inst, &SsamConfig::default()).expect("feasible");
        let opt = offline_optimum_round(&inst).expect("feasible");
        (outcome.social_cost.value() / opt, outcome.certificate.pi)
    });
    points
        .iter()
        .zip(per_point)
        .map(|(&(j, s), results)| {
            let ratios: Vec<f64> = results.iter().map(|r| r.0).collect();
            let pis: Vec<f64> = results.iter().map(|r| r.1).collect();
            Fig3aRow {
                microservices: s,
                bids_per_seller: j,
                mean_ratio: mean(&ratios),
                mean_certified_pi: mean(&pis),
            }
        })
        .collect()
}

/// One point of the set-cover variant of Figure 3(a).
#[derive(Debug, Clone, Serialize)]
pub struct Fig3aSetcoverRow {
    /// Number of seller microservices.
    pub microservices: usize,
    /// Bids per seller `J`.
    pub bids_per_seller: usize,
    /// Mean greedy/optimal ratio over the seeds that were coverable and
    /// provably solvable.
    pub mean_ratio: f64,
    /// Seeds contributing to the mean.
    pub samples: usize,
}

/// Figure 3(a) in the paper's *general set-cover form* (ILP (7) with
/// per-buyer coverage): sellers bid subsets of needy microservices, and
/// the greedy's gap grows with the population — the growth the paper
/// plots, which the aggregate-demand form (see [`fig3a`]) smooths away.
pub fn fig3a_setcover(seeds: u64) -> Vec<Fig3aSetcoverRow> {
    use edge_auction::multi_buyer::{run_ssam_multi, CoverBid, MultiBuyerWsp};
    use edge_common::id::{BidId, MicroserviceId};
    use rand::Rng;

    let points: Vec<(usize, usize)> = [1usize, 2]
        .iter()
        .flat_map(|&j| [5usize, 10, 15, 20, 25].iter().map(move |&s| (j, s)))
        .collect();
    let per_point = par_sweep(&points, seeds, |&(j, s), seed| {
        let mut rng = derive_rng(seed, "fig3a-setcover");
        let n_buyers = (s / 2).max(2);
        let demands: Vec<(MicroserviceId, u64)> = (0..n_buyers)
            .map(|b| (MicroserviceId::new(1000 + b), rng.gen_range(1..=3u64)))
            .collect();
        let mut bids = Vec::new();
        for seller in 0..s {
            for bid_id in 0..j {
                let k = rng.gen_range(1..=3usize.min(n_buyers));
                let mut coverage = Vec::new();
                let mut chosen: Vec<usize> = Vec::new();
                while chosen.len() < k {
                    let b = rng.gen_range(0..n_buyers);
                    if !chosen.contains(&b) {
                        chosen.push(b);
                        coverage.push((MicroserviceId::new(1000 + b), rng.gen_range(1..=3u64)));
                    }
                }
                let total: u64 = coverage.iter().map(|&(_, a)| a).sum();
                let price = rng.gen_range(10.0..35.0) * total as f64 / 5.0;
                bids.push(
                    CoverBid::new(
                        MicroserviceId::new(seller),
                        BidId::new(bid_id),
                        coverage,
                        price,
                    )
                    .expect("valid bid"),
                );
            }
        }
        let inst = MultiBuyerWsp::new(demands, bids).expect("valid instance");
        let outcome = run_ssam_multi(&inst, &SsamConfig::default());
        if !outcome.fully_covered {
            return None;
        }
        let (ilp, _) = inst.to_ilp();
        let opts = IlpOptions {
            max_nodes: 20_000,
            ..IlpOptions::default()
        };
        match edge_lp::solve_ilp(&ilp, &opts) {
            Ok(sol) if sol.proven_optimal && sol.objective > 1e-9 => {
                Some(outcome.social_cost.value() / sol.objective)
            }
            _ => None,
        }
    });
    points
        .iter()
        .zip(per_point)
        .map(|(&(j, s), results)| {
            let ratios: Vec<f64> = results.into_iter().flatten().collect();
            Fig3aSetcoverRow {
                microservices: s,
                bids_per_seller: j,
                mean_ratio: mean(&ratios),
                samples: ratios.len(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 3(b): SSAM social cost / payment / optimal vs |S| and requests.
// ---------------------------------------------------------------------

/// One point of Figure 3(b).
#[derive(Debug, Clone, Serialize)]
pub struct Fig3bRow {
    /// Number of microservices `|S|`.
    pub microservices: usize,
    /// Request volume per round.
    pub requests: u64,
    /// Mean SSAM social cost.
    pub social_cost: f64,
    /// Mean total payment.
    pub total_payment: f64,
    /// Mean optimal social cost.
    pub optimal: f64,
}

/// Runs the Figure 3(b) sweep.
pub fn fig3b(seeds: u64) -> Vec<Fig3bRow> {
    let points: Vec<(u64, usize)> = [100u64, 200]
        .iter()
        .flat_map(|&req| [25usize, 35, 45, 55, 65, 75].iter().map(move |&s| (req, s)))
        .collect();
    let per_point = par_sweep(&points, seeds, |&(req, s), seed| {
        let params = PaperParams::default()
            .with_microservices(s)
            .with_requests(req);
        let mut rng = derive_rng(seed, "fig3b");
        let inst = single_round_instance(&params, &mut rng);
        let outcome = run_ssam(&inst, &SsamConfig::default()).expect("feasible");
        let opt = offline_optimum_round(&inst).expect("feasible");
        (
            outcome.social_cost.value(),
            outcome.total_payment.value(),
            opt,
        )
    });
    points
        .iter()
        .zip(per_point)
        .map(|(&(req, s), results)| Fig3bRow {
            microservices: s,
            requests: req,
            social_cost: mean(&results.iter().map(|r| r.0).collect::<Vec<_>>()),
            total_payment: mean(&results.iter().map(|r| r.1).collect::<Vec<_>>()),
            optimal: mean(&results.iter().map(|r| r.2).collect::<Vec<_>>()),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 4(a): per-winner payment vs actual price.
// ---------------------------------------------------------------------

/// One winning bid of Figure 4(a).
#[derive(Debug, Clone, Serialize)]
pub struct Fig4aRow {
    /// Winner index in selection order.
    pub winner: usize,
    /// The winner's asking price.
    pub price: f64,
    /// The critical-value payment it received.
    pub payment: f64,
}

/// Runs Figure 4(a): a single default-parameter auction, reporting each
/// winner's price next to its payment (individual rationality made
/// visible).
pub fn fig4a(seed: u64) -> Vec<Fig4aRow> {
    let params = PaperParams::default();
    let mut rng = derive_rng(seed, "fig4a");
    let inst = single_round_instance(&params, &mut rng);
    let outcome = run_ssam(&inst, &SsamConfig::default()).expect("feasible");
    outcome
        .winners
        .iter()
        .enumerate()
        .map(|(i, w)| Fig4aRow {
            winner: i,
            price: w.price.value(),
            payment: w.payment.value(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 4(b): SSAM running time.
// ---------------------------------------------------------------------

/// One point of Figure 4(b).
#[derive(Debug, Clone, Serialize)]
pub struct Fig4bRow {
    /// Number of microservices `|S|`.
    pub microservices: usize,
    /// Request volume per round.
    pub requests: u64,
    /// Mean wall-clock time of one SSAM run, in microseconds.
    pub mean_runtime_us: f64,
}

/// Runs the Figure 4(b) timing sweep (the paper reports < 100 ms and
/// roughly linear growth).
pub fn fig4b(seeds: u64) -> Vec<Fig4bRow> {
    let points: Vec<(u64, usize)> = [100u64, 200]
        .iter()
        .flat_map(|&req| [25usize, 35, 45, 55, 65, 75].iter().map(move |&s| (req, s)))
        .collect();
    let per_point = par_sweep(&points, seeds, |&(req, s), seed| {
        let params = PaperParams::default()
            .with_microservices(s)
            .with_requests(req);
        let mut rng = derive_rng(seed, "fig4b");
        let inst = single_round_instance(&params, &mut rng);
        let start = Instant::now();
        let _ = run_ssam(&inst, &SsamConfig::default()).expect("feasible");
        start.elapsed().as_secs_f64() * 1e6
    });
    points
        .iter()
        .zip(per_point)
        .map(|(&(req, s), times)| Fig4bRow {
            microservices: s,
            requests: req,
            mean_runtime_us: mean(&times),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 5(a): MSOA (+ variants) performance ratio.
// ---------------------------------------------------------------------

/// One point of Figure 5(a).
#[derive(Debug, Clone, Serialize)]
pub struct Fig5aRow {
    /// Variant name (`MSOA`, `MSOA-DA`, `MSOA-RC`, `MSOA-OA`).
    pub variant: String,
    /// Number of microservices `|S|`.
    pub microservices: usize,
    /// Request volume per round.
    pub requests: u64,
    /// Mean online/offline ratio (offline solved on the *true* demand
    /// stream with the original capacities).
    pub mean_ratio: f64,
    /// Mean count of rounds a variant failed to cover.
    pub mean_infeasible_rounds: f64,
}

/// Runs the Figure 5(a) sweep over the four MSOA variants.
pub fn fig5a(seeds: u64) -> Vec<Fig5aRow> {
    let variants = [
        MsoaVariant::Plain,
        MsoaVariant::DemandAware,
        MsoaVariant::RelaxedCapacity { factor: 2.0 },
        MsoaVariant::Optimized { factor: 2.0 },
    ];
    let points: Vec<(u64, usize)> = [100u64, 200]
        .iter()
        .flat_map(|&req| [25usize, 45, 65].iter().map(move |&s| (req, s)))
        .collect();
    // One instance batch per (point, seed), shared across variants so
    // the comparison is paired.
    let per_point = par_sweep(&points, seeds, |&(req, s), seed| {
        let params = PaperParams::default()
            .with_microservices(s)
            .with_requests(req);
        let mut rng = derive_rng(seed, "fig5a");
        let inst = multi_round_instance(&params, 0.25, &mut rng);
        let offline = offline_value(&inst, false);
        let mut per_variant = Vec::new();
        for v in variants {
            let out = run_variant(&inst, &MsoaConfig::default(), v).expect("valid instance");
            per_variant.push((
                v.to_string(),
                out.social_cost.value(),
                out.infeasible_rounds().len() as f64,
            ));
        }
        (offline, per_variant)
    });
    let mut rows = Vec::new();
    for (&(req, s), per_seed) in points.iter().zip(&per_point) {
        for (vi, v) in variants.iter().enumerate() {
            let mut ratios = Vec::new();
            let mut infeasible = Vec::new();
            for (offline, per_variant) in per_seed {
                if let Some(off) = offline {
                    if *off > 1e-9 {
                        ratios.push(per_variant[vi].1 / off);
                    }
                }
                infeasible.push(per_variant[vi].2);
            }
            rows.push(Fig5aRow {
                variant: v.to_string(),
                microservices: s,
                requests: req,
                mean_ratio: mean(&ratios),
                mean_infeasible_rounds: mean(&infeasible),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 6(a): MSOA ratio vs rounds T and bids-per-seller J.
// ---------------------------------------------------------------------

/// One point of Figure 6(a).
#[derive(Debug, Clone, Serialize)]
pub struct Fig6aRow {
    /// Number of auction rounds `T`.
    pub rounds: u64,
    /// Bids per seller `J`.
    pub bids_per_seller: usize,
    /// Mean online/offline ratio.
    pub mean_ratio: f64,
}

/// Runs the Figure 6(a) sweep.
pub fn fig6a(seeds: u64) -> Vec<Fig6aRow> {
    let points: Vec<(usize, u64)> = [1usize, 2, 4]
        .iter()
        .flat_map(|&j| [1u64, 3, 5, 7, 9, 11, 13, 15].iter().map(move |&t| (j, t)))
        .collect();
    let per_point = par_sweep(&points, seeds, |&(j, t), seed| {
        let params = PaperParams::default()
            .with_rounds(t)
            .with_bids_per_seller(j);
        let mut rng = derive_rng(seed, "fig6a");
        let inst = multi_round_instance(&params, 0.25, &mut rng);
        let out =
            run_variant(&inst, &MsoaConfig::default(), MsoaVariant::Plain).expect("valid instance");
        // Ratio against the estimated-demand stream MSOA served.
        offline_value(&inst, true)
            .filter(|off| *off > 1e-9)
            .map(|off| out.social_cost.value() / off)
    });
    points
        .iter()
        .zip(per_point)
        .map(|(&(j, t), results)| {
            let ratios: Vec<f64> = results.into_iter().flatten().collect();
            Fig6aRow {
                rounds: t,
                bids_per_seller: j,
                mean_ratio: mean(&ratios),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 6(b): MSOA social cost / payment / optimal vs |S| and requests.
// ---------------------------------------------------------------------

/// One point of Figure 6(b).
#[derive(Debug, Clone, Serialize)]
pub struct Fig6bRow {
    /// Number of microservices `|S|`.
    pub microservices: usize,
    /// Request volume per round.
    pub requests: u64,
    /// Mean MSOA social cost over the horizon.
    pub social_cost: f64,
    /// Mean total payment over the horizon.
    pub total_payment: f64,
    /// Mean offline optimal (or lower bound).
    pub optimal: f64,
}

/// Runs the Figure 6(b) sweep.
pub fn fig6b(seeds: u64) -> Vec<Fig6bRow> {
    let points: Vec<(u64, usize)> = [100u64, 200]
        .iter()
        .flat_map(|&req| [25usize, 35, 45, 55, 65, 75].iter().map(move |&s| (req, s)))
        .collect();
    let per_point = par_sweep(&points, seeds, |&(req, s), seed| {
        let params = PaperParams::default()
            .with_microservices(s)
            .with_requests(req);
        let mut rng = derive_rng(seed, "fig6b");
        let inst = multi_round_instance(&params, 0.25, &mut rng);
        let out =
            run_variant(&inst, &MsoaConfig::default(), MsoaVariant::Plain).expect("valid instance");
        let off = offline_value(&inst, true).unwrap_or(f64::NAN);
        (out.social_cost.value(), out.total_payment.value(), off)
    });
    points
        .iter()
        .zip(per_point)
        .map(|(&(req, s), results)| Fig6bRow {
            microservices: s,
            requests: req,
            social_cost: mean(&results.iter().map(|r| r.0).collect::<Vec<_>>()),
            total_payment: mean(&results.iter().map(|r| r.1).collect::<Vec<_>>()),
            optimal: mean(&results.iter().map(|r| r.2).collect::<Vec<_>>()),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablation: SSAM's greedy rule vs the baselines of §I.
// ---------------------------------------------------------------------

/// One point of the mechanism ablation.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Mechanism name.
    pub mechanism: String,
    /// Number of microservices `|S|`.
    pub microservices: usize,
    /// Mean social cost (NaN when the mechanism failed to cover).
    pub mean_social_cost: f64,
    /// Mean payment made by the platform.
    pub mean_payment: f64,
    /// Fraction of runs in which the demand was fully covered.
    pub coverage_rate: f64,
}

/// Compares SSAM against VCG (exact allocation, externality payments)
/// and the fixed-price, random-selection, and total-price-greedy
/// baselines (the DESIGN.md ablation of the marginal-contribution
/// ranking rule). The posted price is set to 120% of the instance's
/// mean unit ask — the "reasonable guess" a platform without an auction
/// would make.
pub fn ablation_mechanisms(seeds: u64) -> Vec<AblationRow> {
    use edge_auction::baselines::{run_fixed_price, run_price_greedy, run_random_selection};
    use edge_auction::vcg::run_vcg;

    #[derive(Default, Clone)]
    struct Acc {
        costs: Vec<f64>,
        payments: Vec<f64>,
        covered: usize,
        runs: usize,
    }

    let points = [15usize, 25, 50, 75];
    let per_point = par_sweep(&points, seeds, |&s, seed| {
        let params = PaperParams::default().with_microservices(s);
        let mut rng = derive_rng(seed, "ablation");
        let inst = single_round_instance(&params, &mut rng);
        let mean_unit: f64 = inst
            .bids()
            .map(edge_auction::bid::Bid::unit_price)
            .sum::<f64>()
            / inst.bids().count() as f64;

        let ssam = run_ssam(&inst, &SsamConfig::default()).expect("feasible");
        let vcg = run_vcg(&inst).expect("feasible");
        let fixed = run_fixed_price(&inst, mean_unit * 1.2);
        let random = run_random_selection(&inst, &mut rng);
        let greedy = run_price_greedy(&inst);
        [
            Some((ssam.social_cost.value(), ssam.total_payment.value(), true)),
            Some((vcg.social_cost.value(), vcg.total_payment.value(), true)),
            Some((
                fixed.social_cost.value(),
                fixed.total_payment.value(),
                fixed.satisfied,
            )),
            random
                .ok()
                .map(|r| (r.social_cost.value(), r.total_payment.value(), r.satisfied)),
            greedy
                .ok()
                .map(|r| (r.social_cost.value(), r.total_payment.value(), r.satisfied)),
        ]
    });

    let names = ["SSAM", "VCG", "fixed-price", "random", "price-greedy"];
    let mut rows = Vec::new();
    for (&s, per_seed) in points.iter().zip(&per_point) {
        for (mi, name) in names.iter().enumerate() {
            let mut acc = Acc::default();
            for run in per_seed {
                acc.runs += 1;
                if let Some((cost, pay, covered)) = run[mi] {
                    if covered {
                        acc.costs.push(cost);
                        acc.payments.push(pay);
                        acc.covered += 1;
                    }
                }
            }
            rows.push(AblationRow {
                mechanism: (*name).to_owned(),
                microservices: s,
                mean_social_cost: mean(&acc.costs),
                mean_payment: mean(&acc.payments),
                coverage_rate: acc.covered as f64 / acc.runs as f64,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Fault matrix: SLA violations and platform cost vs default probability,
// with and without the recovery policy.
// ---------------------------------------------------------------------

/// One arm of the fault matrix.
#[derive(Debug, Clone, Serialize)]
pub struct FaultMatrixRow {
    /// Per-(round, seller) probability of a delivery default.
    pub default_probability: f64,
    /// Whether the recovery policy (clawback + reliability + backfill)
    /// was active.
    pub recovery: bool,
    /// Mean fraction of positive-demand rounds with unserved demand.
    pub mean_sla_violation_rate: f64,
    /// Mean total the platform actually paid.
    pub mean_platform_cost: f64,
    /// Mean demand units that went unserved over the horizon.
    pub mean_shortfall_units: f64,
    /// Mean payment withheld from defaulting winners.
    pub mean_clawed_back: f64,
    /// Mean backfill re-auction attempts over the horizon.
    pub mean_backfill_attempts: f64,
}

/// Runs the fault matrix: sweeps the seller-default probability (crash
/// and sensor-dropout rates stay at their ambient defaults) and runs the
/// *same* seeded fault plan through MSOA twice — recovery off, recovery
/// on. Plans are drawn with common random numbers, so the two arms and
/// all probability levels are paired and the curves are monotone rather
/// than noisy.
pub fn fault_matrix(seeds: u64) -> Vec<FaultMatrixRow> {
    use edge_auction::recovery::{
        run_msoa_with_faults, FaultInjectionConfig, FaultPlan, RecoveryConfig,
    };

    let points = [0.0f64, 0.05, 0.1, 0.2, 0.4];
    let arms = [false, true];
    let per_point = par_sweep(&points, seeds, |&p, seed| {
        let params = PaperParams::default();
        let mut rng = derive_rng(seed, "fault-matrix");
        let inst = multi_round_instance(&params, 0.25, &mut rng);
        let injection = FaultInjectionConfig {
            default_probability: p,
            ..FaultInjectionConfig::default()
        };
        let plan = FaultPlan::seeded(seed, inst.num_rounds(), inst.sellers().len(), &injection);
        // α pinned: the fault figure must not inherit the derive-α
        // truthfulness caveat (and must not spam the derive warning).
        let config = MsoaConfig::pinned(inst.derive_alpha());
        arms.map(|enabled| {
            let recovery = if enabled {
                RecoveryConfig::default()
            } else {
                RecoveryConfig::disabled()
            };
            let out =
                run_msoa_with_faults(&inst, &config, &plan, &recovery).expect("valid instance");
            (
                out.sla_violation_rate(),
                out.platform_cost.value(),
                out.shortfall_units as f64,
                out.clawed_back.value(),
                out.backfill_attempts() as f64,
            )
        })
    });
    let mut rows = Vec::new();
    for (&p, per_seed) in points.iter().zip(&per_point) {
        for (ai, &recovery) in arms.iter().enumerate() {
            let pick = |f: fn(&(f64, f64, f64, f64, f64)) -> f64| -> f64 {
                mean(&per_seed.iter().map(|runs| f(&runs[ai])).collect::<Vec<_>>())
            };
            rows.push(FaultMatrixRow {
                default_probability: p,
                recovery,
                mean_sla_violation_rate: pick(|r| r.0),
                mean_platform_cost: pick(|r| r.1),
                mean_shortfall_units: pick(|r| r.2),
                mean_clawed_back: pick(|r| r.3),
                mean_backfill_attempts: pick(|r| r.4),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_common::assert_money_eq;

    #[test]
    fn fig3a_shape_ratio_grows_with_s_and_j() {
        let rows = fig3a(4);
        assert_eq!(rows.len(), 10);
        // Ratios are valid (>= 1) and certified.
        for r in &rows {
            assert!(r.mean_ratio >= 1.0 - 1e-9, "{r:?}");
            assert!(r.mean_ratio <= r.mean_certified_pi + 1e-6, "{r:?}");
        }
        // J = 2 at S = 25 should be at least as hard as J = 1 at S = 5.
        let small = rows
            .iter()
            .find(|r| r.microservices == 5 && r.bids_per_seller == 1)
            .unwrap();
        let large = rows
            .iter()
            .find(|r| r.microservices == 25 && r.bids_per_seller == 2)
            .unwrap();
        assert!(
            small.mean_ratio <= large.mean_ratio + 0.25,
            "small {} vs large {}",
            small.mean_ratio,
            large.mean_ratio
        );
    }

    #[test]
    fn fig3b_shape_orderings_hold() {
        let rows = fig3b(4);
        for r in &rows {
            assert!(r.total_payment >= r.social_cost - 1e-9, "{r:?}");
            assert!(r.social_cost >= r.optimal - 1e-9, "{r:?}");
        }
        // Higher request volume ⇒ higher social cost at equal S.
        for s in [25usize, 45, 65] {
            let lo = rows
                .iter()
                .find(|r| r.microservices == s && r.requests == 100)
                .unwrap();
            let hi = rows
                .iter()
                .find(|r| r.microservices == s && r.requests == 200)
                .unwrap();
            assert!(hi.social_cost > lo.social_cost, "S={s}");
        }
    }

    #[test]
    fn fig4a_individual_rationality_visible() {
        let rows = fig4a(1);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.payment >= r.price - 1e-9, "{r:?}");
        }
    }

    #[test]
    fn fig4b_is_fast() {
        let rows = fig4b(3);
        // The paper's envelope is < 100 ms; release builds sit two
        // orders of magnitude under it (see results/ for committed
        // sweeps). Debug test runs share the machine with the rest of
        // the suite, so only the loose envelope is asserted there.
        let envelope_us = if cfg!(debug_assertions) {
            2_000_000.0
        } else {
            100_000.0
        };
        for r in &rows {
            assert!(
                r.mean_runtime_us.is_finite() && r.mean_runtime_us > 0.0,
                "{r:?}"
            );
            assert!(r.mean_runtime_us < envelope_us, "{r:?}");
        }
    }

    #[test]
    fn fig5a_demand_aware_never_worse() {
        let rows = fig5a(3);
        let (s, req) = (25usize, 100u64);
        let plain = rows
            .iter()
            .find(|r| r.variant == "MSOA" && r.microservices == s && r.requests == req)
            .unwrap();
        let da = rows
            .iter()
            .find(|r| r.variant == "MSOA-DA" && r.microservices == s && r.requests == req)
            .unwrap();
        // DA estimates demand perfectly; with noisy estimates the
        // plain variant pays for the error on average.
        assert!(
            da.mean_ratio <= plain.mean_ratio * 1.25 + 0.3,
            "da {} vs plain {}",
            da.mean_ratio,
            plain.mean_ratio
        );
    }

    #[test]
    fn fig6a_covers_grid() {
        let rows = fig6a(2);
        assert_eq!(rows.len(), 3 * 8);
        assert!(rows
            .iter()
            .all(|r| r.mean_ratio.is_finite() && r.mean_ratio > 0.0));
    }

    #[test]
    fn ablation_ssam_wins_on_cost_among_coverers() {
        let rows = ablation_mechanisms(4);
        for s in [15usize, 50] {
            let get = |name: &str| {
                rows.iter()
                    .find(|r| r.mechanism == name && r.microservices == s)
                    .unwrap()
            };
            let ssam = get("SSAM");
            assert_money_eq!(ssam.coverage_rate, 1.0);
            for other in ["random", "price-greedy"] {
                let o = get(other);
                if o.coverage_rate > 0.0 {
                    assert!(
                        ssam.mean_social_cost <= o.mean_social_cost + 1e-6,
                        "S={s}: SSAM {} vs {other} {}",
                        ssam.mean_social_cost,
                        o.mean_social_cost
                    );
                }
            }
            // VCG allocates optimally: its cost lower-bounds SSAM's.
            let vcg = get("VCG");
            assert_money_eq!(vcg.coverage_rate, 1.0);
            assert!(vcg.mean_social_cost <= ssam.mean_social_cost + 1e-6);
        }
    }

    #[test]
    fn fault_matrix_recovery_beats_baseline() {
        let rows = fault_matrix(3);
        assert_eq!(rows.len(), 5 * 2);
        let get = |p: f64, recovery: bool| {
            rows.iter()
                .find(|r| r.default_probability == p && r.recovery == recovery)
                .unwrap()
        };
        for p in [0.0, 0.05, 0.1, 0.2, 0.4] {
            let base = get(p, false);
            let rec = get(p, true);
            // Recovery never serves less demand than the baseline.
            assert!(
                rec.mean_sla_violation_rate <= base.mean_sla_violation_rate + 1e-9,
                "p={p}: recovery {} vs baseline {}",
                rec.mean_sla_violation_rate,
                base.mean_sla_violation_rate
            );
            assert!(rec.mean_shortfall_units <= base.mean_shortfall_units + 1e-9);
            // The baseline never claws back or backfills.
            assert_money_eq!(base.mean_clawed_back, 0.0);
            assert_money_eq!(base.mean_backfill_attempts, 0.0);
        }
        // At the default fault level the improvement must be strict —
        // the acceptance criterion of the fault-injection milestone.
        let base = get(0.1, false);
        let rec = get(0.1, true);
        assert!(
            rec.mean_sla_violation_rate < base.mean_sla_violation_rate,
            "recovery {} not strictly below baseline {}",
            rec.mean_sla_violation_rate,
            base.mean_sla_violation_rate
        );
        // SLA violations grow with the default probability (common
        // random numbers make this monotone, not just in expectation).
        let b_lo = get(0.05, false).mean_sla_violation_rate;
        let b_hi = get(0.4, false).mean_sla_violation_rate;
        assert!(
            b_lo <= b_hi + 1e-9,
            "baseline not monotone: {b_lo} vs {b_hi}"
        );
    }

    #[test]
    fn fig6b_orderings_hold() {
        let rows = fig6b(2);
        for r in &rows {
            assert!(r.total_payment >= r.social_cost - 1e-9, "{r:?}");
            assert!(r.social_cost >= r.optimal - 1e-6, "{r:?}");
        }
    }
}
