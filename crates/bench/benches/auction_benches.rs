//! Criterion micro-benchmarks for the running-time figure (Fig. 4b) and
//! the online mechanism's per-round overhead.
//!
//! Run with `cargo bench -p edge-bench`. The paper reports SSAM staying
//! under 100 ms up to 75 microservices with linear growth; these benches
//! reproduce that measurement rigorously (warm-up, outlier rejection)
//! where the `fig4b` binary gives the quick table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edge_auction::bid::Bid;
use edge_auction::msoa::MsoaConfig;
use edge_auction::ssam::{run_ssam, run_ssam_reference, SsamConfig};
use edge_auction::variants::{run_variant, MsoaVariant};
use edge_auction::wsp::WspInstance;
use edge_bench::scenario::{multi_round_instance, single_round_instance};
use edge_common::id::{BidId, MicroserviceId};
use edge_common::rng::derive_rng;
use edge_workload::params::PaperParams;
use rand::Rng;

fn bench_ssam(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssam");
    for s in [25usize, 50, 75] {
        for req in [100u64, 200] {
            let params = PaperParams::default()
                .with_microservices(s)
                .with_requests(req);
            let mut rng = derive_rng(42, "bench-ssam");
            let inst = single_round_instance(&params, &mut rng);
            group.bench_with_input(
                BenchmarkId::new(format!("req{req}"), s),
                &inst,
                |b, inst| b.iter(|| run_ssam(inst, &SsamConfig::default()).unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_msoa(c: &mut Criterion) {
    let mut group = c.benchmark_group("msoa");
    group.sample_size(20);
    for s in [25usize, 50, 75] {
        let params = PaperParams::default().with_microservices(s);
        let mut rng = derive_rng(42, "bench-msoa");
        let inst = multi_round_instance(&params, 0.25, &mut rng);
        group.bench_with_input(BenchmarkId::new("T10", s), &inst, |b, inst| {
            b.iter(|| run_variant(inst, &MsoaConfig::default(), MsoaVariant::Plain).unwrap())
        });
    }
    group.finish();
}

fn bench_offline_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline_dp");
    for s in [25usize, 75] {
        let params = PaperParams::default().with_microservices(s);
        let mut rng = derive_rng(42, "bench-dp");
        let inst = single_round_instance(&params, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(s), &inst, |b, inst| {
            b.iter(|| inst.to_group_cover().solve_exact().unwrap())
        });
    }
    group.finish();
}

/// A wide single-round instance: `n` sellers × 2 alternative bids, with
/// a fixed small demand so the winner count (and hence the payment
/// replays both implementations share) stays constant while the
/// candidate population scales. This isolates the part the heap
/// rework changes: the reference re-scans all `n` sellers per selection
/// step (O(W·n)), the heap pops from a priority queue (O(n + W log n)).
fn wide_instance(n: usize) -> WspInstance {
    let mut rng = derive_rng(7, "bench-heap-vs-ref");
    let bids: Vec<Bid> = (0..n)
        .flat_map(|s| (0..2usize).map(move |j| (s, j)))
        .map(|(s, j)| {
            let amount = rng.gen_range(1u64..10);
            let unit: f64 = rng.gen_range(8.0..20.0);
            Bid::new(
                MicroserviceId::new(s),
                BidId::new(j),
                amount,
                unit * amount as f64,
            )
            .unwrap()
        })
        .collect();
    WspInstance::new(60, bids).unwrap()
}

/// Lane-arena SSAM vs the seed's scan reference at n ∈ {100, 1k, 10k}
/// sellers. The acceptance bar is the arena strictly faster at n = 10k.
fn bench_arena_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssam_arena_vs_reference");
    group.sample_size(10);
    for n in [100usize, 1_000, 10_000] {
        let inst = wide_instance(n);
        group.bench_with_input(BenchmarkId::new("arena", n), &inst, |b, inst| {
            b.iter(|| run_ssam(inst, &SsamConfig::default()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &inst, |b, inst| {
            b.iter(|| run_ssam_reference(inst, &SsamConfig::default()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ssam,
    bench_msoa,
    bench_offline_dp,
    bench_arena_vs_reference
);
criterion_main!(benches);
