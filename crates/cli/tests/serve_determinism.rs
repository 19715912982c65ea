//! Serve determinism: scraping never perturbs auction outcomes.
//!
//! The acceptance criterion for `edge-market serve` is that the HTTP
//! server is a pure observer — with the server enabled and `/metrics`
//! plus `/status` hammered mid-run, MSOA outcomes and the deterministic
//! trace section must be byte-identical to a server-off run, with the
//! pricing pool pinned at both 1 and 4 threads.
//!
//! The server-on run is timing-independent: instead of sleeping between
//! stages and hoping the scraper lands mid-run, the drive loop blocks in
//! a [`ServeState::set_stage_hook`] barrier after every stage until the
//! scraper has completed at least one *full* `/metrics` + `/status`
//! round trip strictly inside that inter-stage window. Every stage is
//! therefore provably scraped mid-run, with zero sleeps in the test.

use edge_auction::pricing::pinned;
use edge_market_cli::serve::{drive, start_http, ServeConfig, ServeState};
use edge_telemetry::Collector;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn config() -> ServeConfig {
    ServeConfig {
        seed: 7,
        microservices: 10,
        requests: 60,
        total_rounds: 6,
        stage_rounds: 3,
        // No inter-stage sleep: the server-on run synchronizes with the
        // scraper through a stage-hook barrier instead of wall-clock.
        interval_ms: 0,
        ..ServeConfig::default()
    }
}

/// The deterministic section: seq-numbered events only, no wall-clock.
fn deterministic_section(jsonl: &str) -> String {
    jsonl
        .lines()
        .filter(|l| l.starts_with("{\"seq\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// Runs the drive loop with no HTTP server; returns (digest, trace).
fn run_server_off(threads: usize) -> (String, String) {
    let collector = Collector::new();
    let state = ServeState::new();
    let summary =
        pinned(threads, None, || drive(&config(), &state, Some(&collector))).expect("drive");
    (
        summary.last_digest.expect("stages ran"),
        collector.deterministic_jsonl(),
    )
}

/// Counts completed `/metrics` + `/status` round trips; the stage hook
/// waits on the condvar until the count advances far enough.
#[derive(Default)]
struct Rendezvous {
    completed: Mutex<u64>,
    advanced: Condvar,
}

impl Rendezvous {
    /// Marks one full scrape round trip complete and wakes waiters.
    fn scrape_done(&self) {
        *self.completed.lock().unwrap() += 1;
        self.advanced.notify_all();
    }

    /// Blocks until two more round trips complete. A scrape already in
    /// flight at entry accounts for at most the first increment, so the
    /// second is a round trip that started — and finished — strictly
    /// inside this window.
    fn await_fresh_scrape(&self) {
        let mut done = self.completed.lock().unwrap();
        let target = *done + 2;
        while *done < target {
            done = self.advanced.wait(done).unwrap();
        }
    }
}

/// Runs the drive loop with the HTTP server up and a scraper thread
/// hammering `/metrics` and `/status`, with a barrier after every stage
/// guaranteeing at least one full scrape lands inside each inter-stage
/// window. Returns (digest, trace, stages barriered).
fn run_server_on(threads: usize) -> (String, String, u64) {
    let collector = Collector::new();
    let state = Arc::new(ServeState::new());
    let (addr, http) = start_http(Arc::clone(&state), 0).expect("bind");

    let rendezvous = Arc::new(Rendezvous::default());
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let rendezvous = Arc::clone(&rendezvous);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let metrics = get(addr, "/metrics");
                assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
                let status = get(addr, "/status");
                assert!(status.starts_with("HTTP/1.1 200"), "{status}");
                rendezvous.scrape_done();
            }
        })
    };

    let barriers = Arc::new(Mutex::new(0u64));
    {
        let rendezvous = Arc::clone(&rendezvous);
        let barriers = Arc::clone(&barriers);
        state.set_stage_hook(move |_stage| {
            rendezvous.await_fresh_scrape();
            *barriers.lock().unwrap() += 1;
        });
    }

    let summary =
        pinned(threads, None, || drive(&config(), &state, Some(&collector))).expect("drive");

    stop.store(true, Ordering::Relaxed);
    scraper.join().expect("scraper joins");
    state.request_shutdown();
    http.join().expect("http joins");
    let barriers = *barriers.lock().unwrap();
    (
        summary.last_digest.expect("stages ran"),
        collector.deterministic_jsonl(),
        barriers,
    )
}

#[test]
fn scraped_serve_is_byte_identical_to_server_off() {
    let expected_stages = config().total_rounds / config().stage_rounds;
    for threads in [1usize, 4] {
        let (digest_off, trace_off) = run_server_off(threads);
        let (digest_on, trace_on, barriers) = run_server_on(threads);

        assert_eq!(
            barriers, expected_stages,
            "every stage must rendezvous with a mid-run scrape at {threads} threads"
        );
        assert_eq!(
            digest_off, digest_on,
            "outcome digest diverged under scraping at {threads} threads"
        );

        let det_off = deterministic_section(&trace_off);
        let det_on = deterministic_section(&trace_on);
        assert!(
            !det_off.is_empty(),
            "serve recorded no deterministic events"
        );
        assert!(det_off.contains("\"stage\""), "{det_off}");
        assert_eq!(
            det_off, det_on,
            "deterministic trace section diverged under scraping at {threads} threads"
        );
    }

    // And across thread counts the outcomes themselves agree.
    let (digest_1, trace_1) = run_server_off(1);
    let (digest_4, trace_4) = run_server_off(4);
    assert_eq!(digest_1, digest_4, "digest diverged across thread counts");
    assert_eq!(
        deterministic_section(&trace_1),
        deterministic_section(&trace_4),
        "deterministic section diverged across thread counts"
    );
}
