//! Auction-instance generation from the paper's §V-A parameters.
//!
//! Two generation paths exist:
//!
//! * the *direct* path here, drawing bids, demands, capacities, and
//!   windows straight from [`PaperParams`] — what the figure runners use
//!   (fast, fully controlled);
//! * the *integrated* path ([`integrated_instance`]) that runs the
//!   [`edge_sim`] engine over a workload trace and feeds its metrics
//!   through the [`edge_demand`] estimator — what the examples and
//!   end-to-end tests use to show the whole pipeline of the paper.

use edge_auction::bid::{Bid, Seller};
use edge_auction::msoa::{MultiRoundInstance, RoundInput};
use edge_auction::wsp::WspInstance;
use edge_common::id::{BidId, MicroserviceId};
use edge_common::units::Resource;
use edge_demand::{DemandConfig, DemandEstimator};
use edge_sim::engine::{SimConfig, Simulation};
use edge_workload::params::PaperParams;
use edge_workload::trace::{RequestTrace, TraceConfig};
use rand::Rng;

/// Scales a drawn demand by the request-volume knob (the paper sweeps
/// 100 vs 200 requests; demand is proportional to load) and by the
/// microservice population (§II: the needy subset `Ŝ ⊂ S` grows with the
/// deployment, so "with the increase in the number of microservices, the
/// edge platform must satisfy more requests" — Fig. 3b's narrative).
/// The default population (25) is the scale-1 reference.
fn scale_demand(demand: u64, params: &PaperParams) -> u64 {
    let load = params.requests_per_round as f64 / 100.0;
    let population = params.num_microservices as f64 / 25.0;
    ((demand as f64) * load * population).round() as u64
}

/// Draws one round's bids: every seller submits `J` alternatives.
fn draw_bids<R: Rng + ?Sized>(
    params: &PaperParams,
    rng: &mut R,
    sellers: &[MicroserviceId],
) -> Vec<Bid> {
    let mut bids = Vec::with_capacity(sellers.len() * params.bids_per_seller);
    for &seller in sellers {
        for j in 0..params.bids_per_seller {
            let amount = params.draw_amount(rng);
            // The bid's price scales with the amount around the paper's
            // U[10,35] per-bid price so that unit prices stay in a
            // plausible band regardless of amount.
            let price = params.draw_price(rng) * amount as f64 / 5.0;
            bids.push(
                Bid::new(seller, BidId::new(j), amount, price)
                    .expect("drawn bids are valid by construction"),
            );
        }
    }
    bids
}

/// Generates a feasible single-round instance (`SSAM` input).
///
/// The demand is clamped to the drawn bids' coverable supply so the
/// instance is always feasible (the paper implicitly assumes
/// feasibility).
pub fn single_round_instance<R: Rng + ?Sized>(params: &PaperParams, rng: &mut R) -> WspInstance {
    let sellers: Vec<MicroserviceId> = (0..params.num_microservices)
        .map(MicroserviceId::new)
        .collect();
    let bids = draw_bids(params, rng, &sellers);
    let supply: u64 = {
        let mut best = std::collections::BTreeMap::new();
        for b in &bids {
            let e = best.entry(b.seller).or_insert(0u64);
            *e = (*e).max(b.amount);
        }
        best.values().sum()
    };
    let demand = scale_demand(params.draw_demand(rng), params)
        .min(supply)
        .max(1);
    WspInstance::new(demand, bids).expect("demand clamped to supply")
}

/// Generates a multi-round instance (`MSOA` input) with per-seller
/// capacities and availability windows.
///
/// Each round's *true* demand is drawn from the paper's range and scaled
/// by the request volume; the *estimated* demand the platform auctions
/// for is the true demand inflated by up to `estimation_noise`
/// (relative), modelling a §III estimator that over-provisions rather
/// than risk starving a tenant (the estimator's `ceil` quantization and
/// the platform's SLA incentive both bias upward). Demands are clamped
/// so that the window-feasible supply covers them (capacities may still
/// bite across rounds — that is the online tension MSOA manages).
pub fn multi_round_instance<R: Rng + ?Sized>(
    params: &PaperParams,
    estimation_noise: f64,
    rng: &mut R,
) -> MultiRoundInstance {
    assert!(
        (0.0..1.0).contains(&estimation_noise),
        "noise must lie in [0, 1)"
    );
    let sellers: Vec<Seller> = (0..params.num_microservices)
        .map(|s| {
            Seller::new(
                MicroserviceId::new(s),
                params.draw_capacity(rng),
                params.draw_window(rng),
            )
            .expect("drawn windows are ordered")
        })
        .collect();

    let rounds = (0..params.rounds)
        .map(|t| {
            let present: Vec<MicroserviceId> = sellers
                .iter()
                .filter(|s| s.available_at(t))
                .map(|s| s.id)
                .collect();
            let bids = draw_bids(params, rng, &present);
            let supply: u64 = {
                let mut best = std::collections::BTreeMap::new();
                for b in &bids {
                    let e = best.entry(b.seller).or_insert(0u64);
                    *e = (*e).max(b.amount);
                }
                best.values().sum()
            };
            // Keep headroom: demand at most half the round's coverable
            // supply, so capacity depletion — not raw supply — is the
            // binding constraint.
            let cap = (supply / 2).max(1);
            let true_demand = scale_demand(params.draw_demand(rng), params)
                .min(cap)
                .max(1);
            let noise = 1.0 + estimation_noise * rng.gen::<f64>();
            let estimated = ((true_demand as f64 * noise).round() as u64).clamp(1, cap);
            RoundInput::new(estimated, true_demand, bids)
        })
        .collect();

    MultiRoundInstance::new(sellers, rounds).expect("generated instances are valid")
}

/// Generates the scale-benchmark instance: `n` sellers far beyond the
/// paper's §V-A population, auctioned over `rounds` identical rounds.
///
/// The shape is deliberately regular — every seller always available,
/// ample capacity, the *same* bid list every round — so the benchmark
/// isolates the two hot paths under test: per-winner payment replays
/// (demand of several hundred units ⇒ hundreds of winners per round)
/// and the per-round filter-and-scale pass over every bid (repeated bid
/// lists, with only winners' ψ and χ changing between rounds).
pub fn scale_instance<R: Rng + ?Sized>(n: usize, rounds: u64, rng: &mut R) -> MultiRoundInstance {
    assert!(n > 0 && rounds > 0, "scale cells are non-empty");
    let sellers: Vec<Seller> = (0..n)
        .map(|s| {
            Seller::new(MicroserviceId::new(s), 64, (0, rounds - 1)).expect("window is ordered")
        })
        .collect();
    let mut bids = Vec::with_capacity(n * 2);
    for seller in &sellers {
        let alternatives = 1 + rng.gen_range(0..2usize);
        for j in 0..alternatives {
            let amount = rng.gen_range(1..=4u64);
            let price = rng.gen_range(10.0..35.0) * amount as f64 / 5.0;
            bids.push(Bid::new(seller.id, BidId::new(j), amount, price).expect("drawn bid valid"));
        }
    }
    let supply: u64 = {
        let mut best = std::collections::BTreeMap::new();
        for b in &bids {
            let e = best.entry(b.seller).or_insert(0u64);
            *e = (*e).max(b.amount);
        }
        best.values().sum()
    };
    let demand = (supply / 4).clamp(1, 512);
    let rounds = (0..rounds)
        .map(|_| RoundInput::new(demand, demand, bids.clone()))
        .collect();
    MultiRoundInstance::new(sellers, rounds).expect("scale instances are valid")
}

/// The integrated pipeline of the paper: run the edge-cloud simulator
/// over a §V-A workload, estimate each needy microservice's demand with
/// the §III estimator, and auction the aggregate shortfall among the
/// microservices holding spare resources.
///
/// Returns the multi-round instance derived from simulation observables.
pub fn integrated_instance<R: Rng + ?Sized>(
    params: &PaperParams,
    sim_config: SimConfig,
    rng: &mut R,
) -> MultiRoundInstance {
    let trace = RequestTrace::generate(
        TraceConfig {
            num_users: params.num_users,
            num_microservices: params.num_microservices,
            rounds: params.rounds,
            target_requests_per_round: Some(params.requests_per_round),
            ..TraceConfig::default()
        },
        rng,
    );
    let mut sim = Simulation::new(trace, sim_config);
    let estimator = DemandEstimator::new(DemandConfig::default());
    let hub = sim.metrics();

    let sellers: Vec<Seller> = (0..params.num_microservices)
        .map(|s| {
            Seller::new(
                MicroserviceId::new(s),
                params.draw_capacity(rng),
                (0, params.rounds.saturating_sub(1)),
            )
            .expect("window ordered")
        })
        .collect();

    let mut rounds = Vec::with_capacity(params.rounds as usize);
    while let Some(round) = sim.step() {
        let batch = hub.at_round(round);
        let estimates = estimator.estimate_round(&batch, round.index() + 1);

        // Sellers: microservices with spare allocation; each offers its
        // spare (rounded down to units) at a drawn price.
        let mut bids = Vec::new();
        for m in &batch {
            let spare = sim.spare_of(m.ms).unwrap_or(Resource::ZERO).value().floor() as u64;
            if spare >= 1 {
                for j in 0..params.bids_per_seller {
                    let amount = spare.min(1 + j as u64 * 2).max(1);
                    let price = params.draw_price(rng) * amount as f64 / 5.0;
                    bids.push(Bid::new(m.ms, BidId::new(j), amount, price).expect("valid"));
                }
            }
        }

        // Demand: the aggregate estimated shortfall of busy
        // microservices, clamped to the sellable supply.
        let supply: u64 = {
            let mut best = std::collections::BTreeMap::new();
            for b in &bids {
                let e = best.entry(b.seller).or_insert(0u64);
                *e = (*e).max(b.amount);
            }
            best.values().sum()
        };
        let raw_estimate: u64 = estimates.iter().map(|d| d.units()).sum();
        let true_backlog: u64 = batch.iter().map(|m| m.queued_work.ceil() as u64).sum();
        let estimated = raw_estimate.min(supply);
        let true_demand = true_backlog.min(supply);
        rounds.push(RoundInput::new(estimated, true_demand, bids));
    }

    MultiRoundInstance::new(sellers, rounds).expect("simulation produces valid rounds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_auction::msoa::{run_msoa, MsoaConfig};
    use edge_auction::ssam::{run_ssam, SsamConfig};
    use edge_common::rng::derive_rng;

    #[test]
    fn single_round_is_always_feasible() {
        let params = PaperParams::default();
        for seed in 0..20 {
            let mut rng = derive_rng(seed, "fig-scenario");
            let inst = single_round_instance(&params, &mut rng);
            assert!(
                run_ssam(&inst, &SsamConfig::default()).is_ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn single_round_demand_scales_with_requests() {
        let lo = PaperParams::default().with_requests(100);
        let hi = PaperParams::default().with_requests(200);
        let avg = |p: &PaperParams| -> f64 {
            (0..30)
                .map(|s| {
                    let mut rng = derive_rng(s, "scale");
                    single_round_instance(p, &mut rng).demand() as f64
                })
                .sum::<f64>()
                / 30.0
        };
        assert!(
            avg(&hi) > avg(&lo),
            "demand should grow with request volume"
        );
    }

    #[test]
    fn multi_round_runs_clean_under_default_params() {
        let params = PaperParams::default();
        let mut rng = derive_rng(7, "msoa-scenario");
        let inst = multi_round_instance(&params, 0.2, &mut rng);
        assert_eq!(inst.num_rounds(), params.rounds);
        let out = run_msoa(&inst, &MsoaConfig::default()).unwrap();
        assert!(out.social_cost.value() > 0.0);
    }

    #[test]
    fn estimation_noise_zero_means_exact_estimates() {
        let params = PaperParams::default();
        let mut rng = derive_rng(9, "noise");
        let inst = multi_round_instance(&params, 0.0, &mut rng);
        for r in inst.rounds() {
            assert_eq!(r.estimated_demand, r.true_demand);
        }
    }

    #[test]
    fn integrated_pipeline_produces_auctionable_rounds() {
        let params = PaperParams::default().with_microservices(12).with_rounds(6);
        let mut rng = derive_rng(11, "integrated");
        let inst = integrated_instance(
            &params,
            SimConfig {
                num_clouds: 3,
                cloud_capacity: 5.0,
            },
            &mut rng,
        );
        assert_eq!(inst.num_rounds(), 6);
        // The market should be active: some round has sellers and demand.
        assert!(inst.rounds().iter().any(|r| !r.bids.is_empty()));
        let out = run_msoa(&inst, &MsoaConfig::default()).unwrap();
        assert_eq!(out.rounds.len(), 6);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let params = PaperParams::default();
        let a = multi_round_instance(&params, 0.2, &mut derive_rng(3, "det"));
        let b = multi_round_instance(&params, 0.2, &mut derive_rng(3, "det"));
        assert_eq!(a, b);
    }
}
