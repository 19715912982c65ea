//! Ambient deterministic span profiler — the workspace's one timing
//! source.
//!
//! A hierarchical timing layer with a hard split between what is
//! **deterministic** and what is **measured**:
//!
//! * Span *structure* — names, nesting, call counts, and per-span
//!   counters recorded with [`ctr`] — depends only on the workload, so
//!   two runs of the same instance produce the same tree whatever
//!   pricing pool each auction chose. [`SpanTree::flush_into`]
//!   writes this side into a collector's deterministic JSONL section
//!   (one `span` event per node, DFS order).
//! * Wall-clock durations and engine diagnostics recorded with [`diag`]
//!   / [`diag_set`] — lane widths, head-read totals, pricing-pool
//!   decisions — are machine-dependent. They land only in the
//!   `"section":"profile"` tail (one `span.profile` entry per node).
//!
//! The layer mirrors the ambient-install pattern of
//! `edge_bench::profile`: entry points call [`install`] once (or wrap
//! one measured run in [`collect`]), instrumented code calls [`enter`] /
//! [`ctr`] / [`diag`] without threading a handle through every
//! signature, and a disabled profiler costs one relaxed atomic load and
//! one thread-local read per call site. Each thread owns its own tree,
//! so spans are a *calling-thread* convention: worker threads inside the
//! pricing pool never open spans or bump counters — their results are
//! absorbed on the coordinating thread in deterministic order, which is
//! what keeps the tree identical at any thread count — and two threads
//! collecting at once never see each other's spans.
//!
//! Independently of tree collection, [`set_live`] feeds per-stage
//! duration summaries and engine gauges into the process
//! [`registry`](crate::registry) (`edge_profile_*` families) so a
//! `serve` / `federate` daemon can expose stage cost in flight.

use crate::collector::Collector;
use crate::event::Level;
use crate::registry::{global, Gauge, Summary};
use crate::value::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Mode bit: feed `edge_profile_*` registry families on span exit (on
/// every thread).
static LIVE_ON: AtomicBool = AtomicBool::new(false);
static LIVE: OnceLock<Live> = OnceLock::new();

thread_local! {
    /// This thread's span tree, when one is installed.
    static TREE: RefCell<Option<SpanTree>> = const { RefCell::new(None) };
    /// Mode bit: aggregate this thread's spans into [`TREE`].
    static TREE_ON: Cell<bool> = const { Cell::new(false) };
}

struct Live {
    open_spans: Arc<Gauge>,
    lanes: Arc<Gauge>,
    lane_occupancy: Arc<Gauge>,
    stages: Mutex<BTreeMap<&'static str, Arc<Summary>>>,
}

fn live() -> &'static Live {
    LIVE.get_or_init(|| {
        let r = global();
        Live {
            open_spans: r.gauge(
                "edge_profile_open_spans",
                "Profiler spans currently open on any thread",
                &[],
            ),
            lanes: r.gauge(
                "edge_profile_lanes",
                "Lanes in the most recently built selection arena",
                &[],
            ),
            lane_occupancy: r.gauge(
                "edge_profile_lane_occupancy",
                "Mean bids per lane in the most recently built arena",
                &[],
            ),
            stages: Mutex::new(BTreeMap::new()),
        }
    })
}

fn stage_summary(name: &'static str) -> Arc<Summary> {
    let handles = live();
    let mut stages = handles.stages.lock().expect("spans live lock");
    stages
        .entry(name)
        .or_insert_with(|| {
            global().summary(
                "edge_profile_stage_ns",
                "Wall-clock nanoseconds per profiler span, by stage",
                &[("stage", name)],
            )
        })
        .clone()
}

/// Registers every `edge_profile_*` family (with the pipeline's known
/// stage labels) so a fresh scrape exposes them at zero before the
/// first instrumented run.
pub fn preregister() {
    live();
    for stage in [
        "msoa",
        "round",
        "patch",
        "ssam",
        "selection",
        "arena.build",
        "merge",
        "pricing",
        "backfill",
        "service.apply",
        "fed.deliver",
    ] {
        stage_summary(stage);
    }
}

/// Starts collecting this thread's spans into a fresh ambient
/// [`SpanTree`], replacing any previous one. Only the installing
/// thread's spans are recorded: the tree is thread-local, which
/// *enforces* the calling-thread convention, so a worker pool running
/// instrumented code cannot perturb the structure.
pub fn install() {
    TREE.with(|tree| *tree.borrow_mut() = Some(SpanTree::new()));
    TREE_ON.with(|on| on.set(true));
}

/// Runs `f` on this thread's tree, if one is installed.
fn with_tree(f: impl FnOnce(&mut SpanTree)) {
    TREE.with(|tree| {
        if let Some(tree) = tree.borrow_mut().as_mut() {
            f(tree);
        }
    });
}

/// `true` when this thread's spans aggregate into its tree.
fn tree_on() -> bool {
    TREE_ON.with(Cell::get)
}

/// Stops tree collection on this thread and returns the aggregated
/// tree, if one was installed.
pub fn uninstall() -> Option<SpanTree> {
    TREE_ON.with(|on| on.set(false));
    TREE.with(|tree| tree.borrow_mut().take())
}

/// Runs `f` with a fresh tree collecting this thread's spans and
/// returns `f`'s result with that tree. Collections nest: the enclosing
/// tree (if any) — its nodes, its open-span stack and whether it was
/// collecting, suppressed or not — is put back untouched afterwards.
/// This is how a harness times one measured run inside a traced sweep.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, SpanTree) {
    let outer = TREE.with(|tree| tree.replace(Some(SpanTree::new())));
    let outer_on = TREE_ON.with(|on| on.replace(true));
    let result = f();
    let collected = TREE.with(|tree| tree.replace(outer));
    TREE_ON.with(|on| on.set(outer_on));
    // `f` may itself have uninstalled the tree; report an empty one.
    (result, collected.unwrap_or_else(SpanTree::new))
}

/// Enables or disables live `edge_profile_*` registry feeding
/// (independent of tree collection).
pub fn set_live(on: bool) {
    if on {
        live();
    }
    LIVE_ON.store(on, Ordering::SeqCst);
}

/// `true` when either tree collection (on this thread) or live feeding
/// is on (the instrumentation fast path).
pub fn is_enabled() -> bool {
    LIVE_ON.load(Ordering::Relaxed) || tree_on()
}

/// Opens a span named `name` under the currently open span (or at the
/// top level). Returns a guard that records the span's wall-clock
/// duration on drop. A no-op costing one atomic load and one
/// thread-local read when the profiler is fully disabled.
pub fn enter(name: &'static str) -> Span {
    let live_on = LIVE_ON.load(Ordering::Relaxed);
    let tree_on = tree_on();
    if !live_on && !tree_on {
        return Span { active: None };
    }
    let mut node = None;
    if tree_on {
        with_tree(|tree| node = Some(tree.enter(name)));
    }
    if live_on {
        live().open_spans.add(1.0);
    }
    Span {
        active: Some(Active {
            name,
            start: Instant::now(),
            node,
            live: live_on,
        }),
    }
}

/// Adds `delta` to the deterministic counter `key` on the currently
/// open span. Counters must be knob-invariant facts (workload shape,
/// proven-deterministic iteration counts); anything machine- or
/// knob-dependent belongs in [`diag`].
pub fn ctr(key: &'static str, delta: u64) {
    if !tree_on() {
        return;
    }
    with_tree(|tree| tree.add(key, delta, Side::Counter));
}

/// Adds `delta` to the profile-side diagnostic `key` on the currently
/// open span (exported only in the `"section":"profile"` tail).
pub fn diag(key: &'static str, delta: u64) {
    if !tree_on() {
        return;
    }
    with_tree(|tree| tree.add(key, delta, Side::Diag));
}

/// Sets (overwrites) the profile-side diagnostic `key` on the currently
/// open span — for last-decision facts like the adaptive pool size,
/// where accumulation would be meaningless.
pub fn diag_set(key: &'static str, value: u64) {
    if !tree_on() {
        return;
    }
    with_tree(|tree| tree.add(key, value, Side::DiagSet));
}

/// Attributes externally measured work to a child of the currently
/// open span (or the top level), as if it had been entered once per
/// sample: the aggregated node gains `samples_ns.len()` calls and the
/// summed nanoseconds. Live mode observes every sample into the
/// stage's `edge_profile_stage_ns` summary. This is how fork–join
/// harnesses that time cells on worker threads report through the
/// calling-thread span layer.
pub fn absorb(name: &'static str, samples_ns: &[u64]) {
    if samples_ns.is_empty() {
        return;
    }
    if tree_on() {
        with_tree(|tree| tree.absorb(name, samples_ns.len() as u64, samples_ns.iter().sum()));
    }
    if LIVE_ON.load(Ordering::Relaxed) {
        let summary = stage_summary(name);
        for &ns in samples_ns {
            summary.observe(ns);
        }
    }
}

/// Temporarily halts tree collection on this thread until the guard
/// drops; live feeding is unaffected. A fork–join harness wraps its
/// worker pool in this so a sweep's cells record the same (absent)
/// structure whether they run inline on the caller or on workers —
/// their measured time re-enters the tree via [`absorb`].
#[must_use]
pub fn suppress_tree() -> TreeSuppression {
    TreeSuppression {
        was_on: TREE_ON.with(|on| on.replace(false)),
    }
}

/// Guard returned by [`suppress_tree`]; restores collection on drop.
#[derive(Debug)]
pub struct TreeSuppression {
    was_on: bool,
}

impl Drop for TreeSuppression {
    fn drop(&mut self) {
        if self.was_on {
            TREE_ON.with(|on| on.set(true));
        }
    }
}

/// Publishes arena lane gauges (`edge_profile_lanes`,
/// `edge_profile_lane_occupancy`) when live feeding is on.
pub fn lane_gauges(lanes: u64, entries: u64) {
    if !LIVE_ON.load(Ordering::Relaxed) {
        return;
    }
    let handles = live();
    handles.lanes.set(lanes as f64);
    handles.lane_occupancy.set(if lanes > 0 {
        entries as f64 / lanes as f64
    } else {
        0.0
    });
}

/// RAII handle returned by [`enter`].
#[derive(Debug)]
pub struct Span {
    active: Option<Active>,
}

#[derive(Debug)]
struct Active {
    name: &'static str,
    start: Instant,
    node: Option<usize>,
    live: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let nanos = active.start.elapsed().as_nanos() as u64;
        if let Some(idx) = active.node {
            with_tree(|tree| tree.exit(idx, nanos));
        }
        if active.live {
            stage_summary(active.name).observe(nanos);
            live().open_spans.add(-1.0);
        }
    }
}

/// Which side of the determinism contract a key lands on.
enum Side {
    Counter,
    Diag,
    DiagSet,
}

/// One aggregated span node. Repeated `enter`s of the same name under
/// the same parent accumulate into one node (three MSOA rounds are one
/// `round` node with `calls = 3`).
#[derive(Debug, Clone)]
pub struct Node {
    name: &'static str,
    parent: usize,
    children: Vec<usize>,
    /// Times this span was entered.
    pub calls: u64,
    /// Deterministic counters, in first-touch order.
    pub counters: Vec<(&'static str, u64)>,
    /// Profile-side diagnostics, in first-touch order.
    pub diag: Vec<(&'static str, u64)>,
    /// Accumulated wall-clock nanoseconds (including children).
    pub total_ns: u64,
}

/// The aggregated span forest produced by [`uninstall`] or [`collect`].
///
/// Node 0 is a synthetic root that is never exported; top-level spans
/// are its children.
#[derive(Debug)]
pub struct SpanTree {
    nodes: Vec<Node>,
    stack: Vec<usize>,
}

/// What weights a folded-stack export ([`SpanTree::folded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldWeight {
    /// Self nanoseconds — real flamegraph weights, run-dependent.
    SelfNs,
    /// Call counts — structural weights, byte-identical across runs of
    /// the same workload.
    Calls,
}

impl SpanTree {
    fn new() -> Self {
        SpanTree {
            nodes: vec![Node {
                name: "",
                parent: 0,
                children: Vec::new(),
                calls: 0,
                counters: Vec::new(),
                diag: Vec::new(),
                total_ns: 0,
            }],
            stack: vec![0],
        }
    }

    /// Finds or creates the child of `parent` named `name`.
    fn child_of(&mut self, parent: usize, name: &'static str) -> usize {
        let existing = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        existing.unwrap_or_else(|| {
            let idx = self.nodes.len();
            self.nodes.push(Node {
                name,
                parent,
                children: Vec::new(),
                calls: 0,
                counters: Vec::new(),
                diag: Vec::new(),
                total_ns: 0,
            });
            self.nodes[parent].children.push(idx);
            idx
        })
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let parent = *self.stack.last().expect("span stack never empty");
        let idx = self.child_of(parent, name);
        self.nodes[idx].calls += 1;
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize, nanos: u64) {
        // A replacement tree installed between enter and drop may be
        // smaller than the index the guard captured.
        if idx >= self.nodes.len() {
            return;
        }
        self.nodes[idx].total_ns += nanos;
        // Guards drop in reverse entry order on one thread; tolerate a
        // mismatch (e.g. install() between enter and drop) by popping
        // only our own frame.
        if self.stack.last() == Some(&idx) {
            self.stack.pop();
        }
    }

    fn absorb(&mut self, name: &'static str, calls: u64, total_ns: u64) {
        let parent = *self.stack.last().expect("span stack never empty");
        let idx = self.child_of(parent, name);
        self.nodes[idx].calls += calls;
        self.nodes[idx].total_ns += total_ns;
    }

    fn add(&mut self, key: &'static str, delta: u64, side: Side) {
        let top = *self.stack.last().expect("span stack never empty");
        if top == 0 {
            return; // no open span: nowhere deterministic to attribute
        }
        let node = &mut self.nodes[top];
        let list = match side {
            Side::Counter => &mut node.counters,
            Side::Diag | Side::DiagSet => &mut node.diag,
        };
        match list.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => match side {
                Side::DiagSet => *v = delta,
                _ => *v += delta,
            },
            None => list.push((key, delta)),
        }
    }

    /// DFS pre-order over real nodes (the synthetic root excluded).
    fn dfs(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len().saturating_sub(1));
        let mut pending: Vec<usize> = self.nodes[0].children.iter().rev().copied().collect();
        while let Some(idx) = pending.pop() {
            order.push(idx);
            pending.extend(self.nodes[idx].children.iter().rev());
        }
        order
    }

    /// The dotted span path of node `idx` (root excluded).
    fn path(&self, idx: usize) -> String {
        let mut parts = Vec::new();
        let mut cur = idx;
        while cur != 0 {
            parts.push(self.nodes[cur].name);
            cur = self.nodes[cur].parent;
        }
        parts.reverse();
        parts.join(".")
    }

    /// Wall-clock nanoseconds spent in `idx` itself, excluding children.
    fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self.nodes[idx]
            .children
            .iter()
            .map(|&c| self.nodes[c].total_ns)
            .sum();
        self.nodes[idx].total_ns.saturating_sub(children)
    }

    /// Number of real (exported) spans.
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// `true` when no span was ever entered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattened views of every span in DFS order.
    pub fn views(&self) -> Vec<SpanView> {
        self.dfs()
            .into_iter()
            .map(|idx| SpanView {
                path: self.path(idx),
                name: self.nodes[idx].name,
                depth: {
                    let mut d = 0;
                    let mut cur = self.nodes[idx].parent;
                    while cur != 0 {
                        d += 1;
                        cur = self.nodes[cur].parent;
                    }
                    d
                },
                calls: self.nodes[idx].calls,
                total_ns: self.nodes[idx].total_ns,
                self_ns: self.self_ns(idx),
                counters: self.nodes[idx].counters.clone(),
                diag: self.nodes[idx].diag.clone(),
            })
            .collect()
    }

    /// Writes the tree into `collector`: one deterministic `span` event
    /// per node (path, calls, counters — byte-identical at any knob
    /// setting) and one `span.profile` tail entry per node (total/self
    /// nanoseconds plus diagnostics).
    pub fn flush_into(&self, collector: &Collector) {
        let order = self.dfs();
        for &idx in &order {
            let node = &self.nodes[idx];
            let mut fields = vec![
                ("path", Value::from(self.path(idx))),
                ("calls", Value::from(node.calls)),
            ];
            for &(k, v) in &node.counters {
                fields.push((k, Value::from(v)));
            }
            use crate::collector::Sink as _;
            collector.emit(Level::Info, "span", fields);
        }
        for &idx in &order {
            let node = &self.nodes[idx];
            let mut fields = vec![
                ("path", Value::from(self.path(idx))),
                ("total_ns", Value::from(node.total_ns)),
                ("self_ns", Value::from(self.self_ns(idx))),
            ];
            for &(k, v) in &node.diag {
                fields.push((k, Value::from(v)));
            }
            collector.record_profile("span.profile", fields);
        }
    }

    /// Flamegraph-compatible folded stacks: one `a;b;c weight` line per
    /// span in DFS order. With [`FoldWeight::Calls`] the output is
    /// byte-identical across runs of the same workload.
    pub fn folded(&self, weight: FoldWeight) -> String {
        let mut out = String::new();
        for idx in self.dfs() {
            let mut parts = Vec::new();
            let mut cur = idx;
            while cur != 0 {
                parts.push(self.nodes[cur].name);
                cur = self.nodes[cur].parent;
            }
            parts.reverse();
            let w = match weight {
                FoldWeight::SelfNs => self.self_ns(idx),
                FoldWeight::Calls => self.nodes[idx].calls,
            };
            out.push_str(&parts.join(";"));
            out.push(' ');
            out.push_str(&w.to_string());
            out.push('\n');
        }
        out
    }

    /// Fraction of top-level wall time attributed to named sub-stages:
    /// `1 − Σ self(top) / Σ total(top)`. `None` for an empty tree or
    /// one with zero recorded time.
    pub fn attributed(&self) -> Option<f64> {
        let roots = &self.nodes[0].children;
        let total: u64 = roots.iter().map(|&r| self.nodes[r].total_ns).sum();
        if total == 0 {
            return None;
        }
        let root_self: u64 = roots.iter().map(|&r| self.self_ns(r)).sum();
        Some(1.0 - root_self as f64 / total as f64)
    }

    /// Renders the ASCII waterfall: indentation mirrors nesting, with
    /// total/self times and percentages per span, the attribution line,
    /// and the per-span counter / diagnostic sections.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let grand: u64 = self.nodes[0]
            .children
            .iter()
            .map(|&r| self.nodes[r].total_ns)
            .sum();
        let grand = grand.max(1);
        out.push_str(&format!(
            "{:<44} {:>8} {:>12} {:>12} {:>7} {:>7}\n",
            "span", "calls", "total", "self", "total%", "self%"
        ));
        let order = self.dfs();
        for &idx in &order {
            let node = &self.nodes[idx];
            let mut depth = 0usize;
            let mut cur = node.parent;
            while cur != 0 {
                depth += 1;
                cur = self.nodes[cur].parent;
            }
            let label = format!("{}{}", "  ".repeat(depth), node.name);
            let self_ns = self.self_ns(idx);
            out.push_str(&format!(
                "{:<44} {:>8} {:>12} {:>12} {:>6.1}% {:>6.1}%\n",
                label,
                node.calls,
                format_ns(node.total_ns),
                format_ns(self_ns),
                100.0 * node.total_ns as f64 / grand as f64,
                100.0 * self_ns as f64 / grand as f64,
            ));
        }
        match self.attributed() {
            Some(frac) => out.push_str(&format!(
                "\nattributed: {:.1}% of {} inside named sub-stages\n",
                100.0 * frac,
                format_ns(grand)
            )),
            None => out.push_str("\nattributed: n/a (no spans recorded)\n"),
        }
        let with_counters: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| !self.nodes[i].counters.is_empty())
            .collect();
        if !with_counters.is_empty() {
            out.push_str("\ndeterministic counters\n");
            for idx in with_counters {
                let pairs = self.nodes[idx]
                    .counters
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push_str(&format!("  {:<42} {}\n", self.path(idx), pairs));
            }
        }
        let with_diag: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| !self.nodes[i].diag.is_empty())
            .collect();
        if !with_diag.is_empty() {
            out.push_str("\nengine diagnostics (profile section)\n");
            for idx in with_diag {
                let pairs = self.nodes[idx]
                    .diag
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push_str(&format!("  {:<42} {}\n", self.path(idx), pairs));
            }
        }
        out
    }
}

/// A flattened, export-friendly view of one span node.
#[derive(Debug, Clone)]
pub struct SpanView {
    /// Dotted path from the top level.
    pub path: String,
    /// Leaf name.
    pub name: &'static str,
    /// Nesting depth (top-level spans are 0).
    pub depth: usize,
    /// Times entered.
    pub calls: u64,
    /// Wall-clock nanoseconds including children.
    pub total_ns: u64,
    /// Wall-clock nanoseconds excluding children.
    pub self_ns: u64,
    /// Deterministic counters.
    pub counters: Vec<(&'static str, u64)>,
    /// Profile-side diagnostics.
    pub diag: Vec<(&'static str, u64)>,
}

/// Human duration, stable width-ish: ns under 10µs, then µs/ms/s.
fn format_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // Live feeding is process-global ambient state; serialize tests.
    static GUARD: StdMutex<()> = StdMutex::new(());

    fn reset() {
        let _ = uninstall();
        set_live(false);
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let _g = GUARD.lock().unwrap();
        reset();
        assert!(!is_enabled());
        let span = enter("x");
        ctr("k", 1);
        diag("d", 2);
        drop(span);
        assert!(uninstall().is_none());
    }

    #[test]
    fn repeated_spans_aggregate_into_one_node() {
        let _g = GUARD.lock().unwrap();
        reset();
        install();
        {
            let _run = enter("run");
            for _ in 0..3 {
                let _round = enter("round");
                ctr("winners", 2);
                diag("lanes", 4);
            }
        }
        let tree = uninstall().expect("tree installed");
        let views = tree.views();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].path, "run");
        assert_eq!(views[0].calls, 1);
        assert_eq!(views[1].path, "run.round");
        assert_eq!(views[1].calls, 3);
        assert_eq!(views[1].counters, vec![("winners", 6)]);
        assert_eq!(views[1].diag, vec![("lanes", 12)]);
    }

    #[test]
    fn diag_set_overwrites_instead_of_accumulating() {
        let _g = GUARD.lock().unwrap();
        reset();
        install();
        {
            let _s = enter("pricing");
            diag_set("pool_threads", 2);
            diag_set("pool_threads", 4);
        }
        let tree = uninstall().unwrap();
        assert_eq!(tree.views()[0].diag, vec![("pool_threads", 4)]);
    }

    #[test]
    fn flush_splits_counters_from_diagnostics() {
        let _g = GUARD.lock().unwrap();
        reset();
        install();
        {
            let _a = enter("a");
            ctr("scans", 7);
            diag("head_reads", 21);
            let _b = enter("b");
        }
        let tree = uninstall().unwrap();
        let collector = Collector::new();
        tree.flush_into(&collector);
        let det = collector.deterministic_jsonl();
        assert!(det.contains("\"event\":\"span\""), "{det}");
        assert!(det.contains("\"path\":\"a\""), "{det}");
        assert!(det.contains("\"path\":\"a.b\""), "{det}");
        assert!(det.contains("\"scans\":7"), "{det}");
        assert!(!det.contains("head_reads"), "{det}");
        assert!(!det.contains("_ns"), "durations must stay out: {det}");
        let full = collector.to_jsonl();
        assert!(full.contains("\"head_reads\":21"), "{full}");
        assert!(full.contains("span.profile"), "{full}");
    }

    #[test]
    fn folded_calls_weight_is_structural() {
        let _g = GUARD.lock().unwrap();
        reset();
        install();
        {
            let _a = enter("a");
            for _ in 0..2 {
                let _b = enter("b");
            }
        }
        let tree = uninstall().unwrap();
        assert_eq!(tree.folded(FoldWeight::Calls), "a 1\na;b 2\n");
        let ns = tree.folded(FoldWeight::SelfNs);
        assert!(ns.starts_with("a ") && ns.contains("\na;b "), "{ns}");
    }

    #[test]
    fn attribution_counts_time_under_named_stages() {
        let _g = GUARD.lock().unwrap();
        reset();
        install();
        {
            let _root = enter("root");
            let _child = enter("child");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let tree = uninstall().unwrap();
        let frac = tree.attributed().expect("timed spans");
        assert!(frac > 0.5, "child dominates: {frac}");
        let rendered = tree.render();
        assert!(rendered.contains("attributed:"), "{rendered}");
        assert!(rendered.contains("root"), "{rendered}");
        assert!(rendered.contains("  child"), "{rendered}");
    }

    #[test]
    fn worker_thread_spans_are_ignored() {
        let _g = GUARD.lock().unwrap();
        reset();
        install();
        {
            let _main = enter("main");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = enter("worker");
                    ctr("stray", 1);
                })
                .join()
                .unwrap();
            });
        }
        let tree = uninstall().unwrap();
        let views = tree.views();
        assert_eq!(views.len(), 1, "only the installing thread records");
        assert_eq!(views[0].path, "main");
        assert!(views[0].counters.is_empty());
    }

    #[test]
    fn absorb_aggregates_external_samples() {
        let _g = GUARD.lock().unwrap();
        reset();
        install();
        {
            let _s = enter("sweep");
            absorb("fig", &[1_000, 2_000, 3_000]);
            absorb("fig", &[4_000]);
        }
        let tree = uninstall().unwrap();
        let views = tree.views();
        assert_eq!(views[1].path, "sweep.fig");
        assert_eq!(views[1].calls, 4);
        assert_eq!(views[1].total_ns, 10_000);
    }

    #[test]
    fn suppression_hides_spans_until_dropped() {
        let _g = GUARD.lock().unwrap();
        reset();
        install();
        {
            let quiet = suppress_tree();
            let _hidden = enter("hidden");
            drop(quiet);
        }
        {
            let _seen = enter("seen");
        }
        let tree = uninstall().unwrap();
        let views = tree.views();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].path, "seen");
    }

    #[test]
    fn collect_leaves_the_enclosing_tree_as_it_was() {
        let _g = GUARD.lock().unwrap();
        reset();
        install();
        {
            let _outer = enter("outer");
            ctr("before", 1);
            let (answer, cell) = collect(|| {
                let _cell = enter("cell");
                ctr("work", 3);
                42
            });
            assert_eq!(answer, 42);
            let views = cell.views();
            assert_eq!(views.len(), 1, "a fresh tree sees only its own spans");
            assert_eq!(views[0].path, "cell");
            assert_eq!(views[0].counters, vec![("work", 3)]);
            // The outer stack is back: this lands on `outer`.
            ctr("after", 1);
            {
                let quiet = suppress_tree();
                let ((), hidden) = collect(|| {
                    let _cell = enter("cell");
                });
                assert_eq!(hidden.views().len(), 1, "collect records while suppressed");
                // The suppressed mode bit is back too.
                let skipped = enter("skipped");
                ctr("skipped", 1);
                drop(skipped);
                drop(quiet);
            }
            let _inner = enter("inner");
        }
        let tree = uninstall().expect("the outer tree survived both collections");
        let views = tree.views();
        assert_eq!(
            views.iter().map(|v| v.path.as_str()).collect::<Vec<_>>(),
            vec!["outer", "outer.inner"]
        );
        assert_eq!(views[0].calls, 1);
        assert_eq!(views[0].counters, vec![("before", 1), ("after", 1)]);
        assert!(!is_enabled(), "uninstall cleared the restored mode bit");
    }

    #[test]
    fn live_mode_feeds_registry_families() {
        let _g = GUARD.lock().unwrap();
        reset();
        preregister();
        set_live(true);
        {
            let _s = enter("msoa");
        }
        lane_gauges(8, 40);
        set_live(false);
        let text = global().render();
        assert!(text.contains("edge_profile_stage_ns"), "{text}");
        assert!(text.contains("edge_profile_open_spans"), "{text}");
        assert!(text.contains("edge_profile_lanes"), "{text}");
        assert!(text.contains("edge_profile_lane_occupancy"), "{text}");
    }
}
