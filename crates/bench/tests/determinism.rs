//! Worker-count determinism regression: the figure sweeps must produce
//! **byte-identical** summary tables (and JSON series) no matter how
//! many workers the sweep runs — `fork::fan_out` returns cells in input
//! order, and every runner derives its RNG from the (point, seed) pair,
//! never from thread identity. Each sweep sizes its own pool; the test
//! pins it through the thread-local `edge_common::fork::pinned` seam.
//!
//! `fig4b` is deliberately absent: it reports wall-clock timings, which
//! no amount of scheduling discipline makes reproducible.

use edge_bench::report;
use edge_common::fork::pinned;

/// Cheap-but-representative figures: single-round sweeps, a multi-round
/// sweep, the ablation (which exercises the per-seed RNG the most), and
/// the fault matrix (whose seeded fault plans and backfill re-auctions
/// must also be scheduling-independent).
const FIGURES: &[&str] = &["fig3a", "fig3b", "fig6a", "ablation", "fault-matrix"];

#[test]
fn tables_identical_at_1_and_4_threads() {
    for name in FIGURES {
        let serial = pinned(1, None, || report::render_figure(name, 2)).expect("known figure");
        let parallel4 = pinned(4, None, || report::render_figure(name, 2)).expect("known figure");
        let unpinned = report::render_figure(name, 2).expect("known figure");

        for (label, other) in [("4 workers", &parallel4), ("unpinned", &unpinned)] {
            assert_eq!(
                serial.table, other.table,
                "{name}: table diverged at {label}"
            );
            assert_eq!(
                serial.json, other.json,
                "{name}: JSON series diverged at {label}"
            );
        }
    }
}
