//! Wire-protocol hardening: hostile inputs get structured rejections,
//! never panics, and never perturb the auction book; a full ingress
//! queue answers 429; and a drive loop fed over the wire writes a log
//! whose replay reproduces its outcome digest.

use edge_auction::service::{parse_log, AuctionService, ServiceEvent};
use edge_market_cli::serve::{
    drive_service, new_log_writer, stage_provider, IngressMsg, IngressReply, ServeConfig,
    ServeState, MAX_BODY_BYTES,
};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

/// Connects and writes one POST, overriding the Content-Length header
/// when `claimed_len` is given; returns the open stream (response not
/// yet read, so the caller can drain ingress before the server blocks).
fn post_raw(addr: SocketAddr, path: &str, body: &[u8], claimed_len: Option<usize>) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let len = claimed_len.unwrap_or(body.len());
    stream
        .write_all(
            format!("POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len}\r\n\r\n").as_bytes(),
        )
        .unwrap();
    stream.write_all(body).unwrap();
    stream.flush().unwrap();
    stream
}

/// Reads the response off `stream`; returns (status line, body).
fn read_response(mut stream: TcpStream) -> (String, String) {
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("full response");
    (
        head.lines().next().unwrap_or("").to_owned(),
        body.to_owned(),
    )
}

/// A POST the HTTP layer rejects before anything reaches the queue.
fn post_rejected_at_http(
    addr: SocketAddr,
    path: &str,
    body: &[u8],
    claimed: Option<usize>,
) -> (String, String) {
    read_response(post_raw(addr, path, body, claimed))
}

/// A POST that reaches the queue: the test plays the drive loop's part,
/// applying the event to `svc` and replying, then reads the response.
fn post_through_service<P: FnMut(u64, u64) -> edge_auction::msoa::MultiRoundInstance>(
    addr: SocketAddr,
    path: &str,
    body: &str,
    rx: &Receiver<IngressMsg>,
    svc: &mut AuctionService<P>,
) -> (String, String) {
    let stream = post_raw(addr, path, body.as_bytes(), None);
    let msg = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("event reaches the ingress queue");
    let reply = match svc.apply(&msg.event, None) {
        Ok(_) => IngressReply::Accepted {
            seq: svc.events_applied(),
            digest: svc.state_digest_hex(),
        },
        Err(e) => IngressReply::Rejected {
            code: e.code(),
            message: e.to_string(),
        },
    };
    msg.reply.try_send(reply).expect("http thread is waiting");
    read_response(stream)
}

#[test]
fn hostile_wire_inputs_are_rejected_structurally_and_leave_the_book_alone() {
    let state = Arc::new(ServeState::new());
    let (tx, rx) = sync_channel::<IngressMsg>(8);
    let (addr, http) =
        edge_market_cli::serve::start_http_with_ingest(Arc::clone(&state), 0, Some(tx))
            .expect("bind");
    let config = ServeConfig {
        seed: 5,
        microservices: 6,
        requests: 40,
        ..ServeConfig::default()
    };
    let mut svc = AuctionService::new(
        config.service_config(),
        stage_provider(config.service_config()),
    );

    // A benign bid is accepted and lands in the book.
    let (status, body) = post_through_service(
        addr,
        "/v1/bid",
        r#"{"seller":0,"bid":0,"amount":2,"price":5.5}"#,
        &rx,
        &mut svc,
    );
    assert!(status.contains("200"), "{status} {body}");
    assert!(body.contains("\"ok\":true"), "{body}");
    assert_eq!(svc.book_len(), 1);
    let book_before = svc.book_digest_hex();
    let state_before = svc.state_digest_hex();

    // HTTP-layer rejections: none of these may reach the queue.
    // (path, raw body, claimed Content-Length, wanted status, code)
    type HttpCase<'a> = (&'a str, &'a [u8], Option<usize>, &'a str, &'a str);
    let cases: Vec<HttpCase> = vec![
        (
            "/v1/bid",
            b"{}".as_slice(),
            Some(MAX_BODY_BYTES + 1),
            "413",
            "oversized_body",
        ),
        ("/v1/bid", &[0xff, 0xfe, 0x90], None, "400", "bad_utf8"),
        ("/v1/bid", b"not json at all", None, "400", "malformed"),
        ("/v1/bid", b"[1,2,3]", None, "400", "malformed"),
        ("/v1/bid", br#"{"seller":0}"#, None, "400", "malformed"),
        ("/v1/nonsense", b"{}", None, "400", "malformed"),
        ("/v2/bid", b"{}", None, "404", "unsupported_version"),
        (
            "/v999/round/close",
            b"{}",
            None,
            "404",
            "unsupported_version",
        ),
    ];
    for (path, body, claimed, want_status, want_code) in cases {
        let (status, reply) = post_rejected_at_http(addr, path, body, claimed);
        assert!(
            status.contains(want_status),
            "POST {path}: wanted {want_status}, got {status} {reply}"
        );
        assert!(
            reply.contains(&format!("\"ok\":false,\"error\":\"{want_code}\"")),
            "POST {path}: {reply}"
        );
        assert!(
            rx.try_recv().is_err(),
            "POST {path} leaked past the HTTP layer into the queue"
        );
    }

    // Admission-control rejections: they reach the service, which must
    // refuse them without touching the book or the state digest.
    let admission: Vec<(&str, &str, &str)> = vec![
        // Same (seller, bid) as the accepted entry above.
        (
            "/v1/bid",
            r#"{"seller":0,"bid":0,"amount":1,"price":2.0}"#,
            "duplicate_bid",
        ),
        (
            "/v1/bid",
            r#"{"seller":1,"bid":0,"amount":1,"price":-3.5}"#,
            "invalid_price",
        ),
        (
            "/v1/bid",
            r#"{"seller":999,"bid":0,"amount":1,"price":2.0}"#,
            "unknown_seller",
        ),
        (
            "/v1/bid",
            r#"{"seller":1,"bid":1,"amount":0,"price":2.0}"#,
            "zero_amount",
        ),
        ("/v1/demand", r#"{"units":0}"#, "zero_demand"),
        (
            "/v1/default",
            r#"{"seller":0,"delivered_fraction":1.5}"#,
            "invalid_fraction",
        ),
        (
            "/v1/bid/withdraw",
            r#"{"seller":0,"bid":77}"#,
            "unknown_bid",
        ),
    ];
    for (path, body, want_code) in admission {
        let (status, reply) = post_through_service(addr, path, body, &rx, &mut svc);
        assert!(status.contains("400"), "POST {path}: {status} {reply}");
        assert!(
            reply.contains(&format!("\"ok\":false,\"error\":\"{want_code}\"")),
            "POST {path}: {reply}"
        );
        assert_eq!(
            svc.book_digest_hex(),
            book_before,
            "POST {path} perturbed the book"
        );
        assert_eq!(
            svc.state_digest_hex(),
            state_before,
            "POST {path} perturbed the state digest"
        );
    }

    state.request_shutdown();
    http.join().expect("http joins");
}

#[test]
fn full_ingress_queue_answers_429_backpressure() {
    let state = Arc::new(ServeState::new());
    let (tx, rx) = sync_channel::<IngressMsg>(2);

    // Fill the queue to capacity before the server sees any traffic.
    let mut parked = Vec::new();
    for _ in 0..2 {
        let (reply, reply_rx) = sync_channel(1);
        tx.try_send(IngressMsg {
            event: ServiceEvent::RoundClosed,
            reply,
        })
        .expect("queue has room");
        parked.push(reply_rx);
    }

    let (addr, http) =
        edge_market_cli::serve::start_http_with_ingest(Arc::clone(&state), 0, Some(tx))
            .expect("bind");

    // With nobody draining, the next wire event must bounce immediately.
    let (status, body) = read_response(post_raw(addr, "/v1/demand", br#"{"units":3}"#, None));
    assert!(status.contains("429"), "{status} {body}");
    assert!(body.contains("\"error\":\"backpressure\""), "{body}");

    // Draining the queue restores service.
    while let Ok(msg) = rx.try_recv() {
        let _ = msg.reply.try_send(IngressReply::Rejected {
            code: "test_drain",
            message: "drained by the test".to_owned(),
        });
    }
    drop(parked);
    let config = ServeConfig {
        seed: 5,
        microservices: 6,
        requests: 40,
        ..ServeConfig::default()
    };
    let mut svc = AuctionService::new(
        config.service_config(),
        stage_provider(config.service_config()),
    );
    let (status, body) = post_through_service(addr, "/v1/demand", r#"{"units":3}"#, &rx, &mut svc);
    assert!(status.contains("200"), "{status} {body}");

    state.request_shutdown();
    http.join().expect("http joins");
}

#[test]
fn wire_fed_drive_loop_writes_a_log_that_replays_to_the_same_digest() {
    let config = ServeConfig {
        seed: 33,
        microservices: 6,
        requests: 40,
        total_rounds: 0, // run until shutdown
        stage_rounds: 1,
        interval_ms: 25,
        ..ServeConfig::default()
    };
    let path = std::env::temp_dir().join(format!(
        "edge-market-hardening-{}.jsonl",
        std::process::id()
    ));
    let path_str = path.to_str().expect("utf8 temp path").to_owned();

    let state = Arc::new(ServeState::new());
    let (tx, rx) = sync_channel::<IngressMsg>(16);
    let (addr, http) =
        edge_market_cli::serve::start_http_with_ingest(Arc::clone(&state), 0, Some(tx))
            .expect("bind");
    let drive = {
        let config = config.clone();
        let state = Arc::clone(&state);
        let path_str = path_str.clone();
        std::thread::spawn(move || {
            let mut log = Some(new_log_writer(&path_str, &config.service_config()).expect("log"));
            drive_service(&config, &state, None, Some(rx), &mut log).expect("drive")
        })
    };

    // Feed real bids over the wire while rounds close underneath.
    for (seller, price) in [(0u32, 4.0f64), (1, 6.5), (2, 3.25)] {
        let (status, body) = read_response(post_raw(
            addr,
            "/v1/bid",
            format!("{{\"seller\":{seller},\"bid\":9,\"amount\":2,\"price\":{price:?}}}")
                .as_bytes(),
            None,
        ));
        assert!(status.contains("200"), "{status} {body}");
        assert!(body.contains("\"ok\":true"), "{body}");
    }

    state.request_shutdown();
    let summary = drive.join().expect("drive joins");
    http.join().expect("http joins");

    // The log replays to the same outcome digest the live loop reported.
    let text = std::fs::read_to_string(&path).expect("log file");
    let parsed = parse_log(&text, false).expect("digest chain verifies");
    let wire_bids = parsed
        .records
        .iter()
        .filter(|r| matches!(r.event, ServiceEvent::BidSubmitted { .. }))
        .count();
    assert_eq!(wire_bids, 3, "all accepted wire bids were logged");

    let mut replayed = AuctionService::new(parsed.config, stage_provider(parsed.config));
    replayed.apply_all(&parsed.records, None).expect("replay");
    assert_eq!(replayed.events_applied(), summary.events);
    assert_eq!(replayed.rounds_closed(), summary.rounds);
    assert_eq!(replayed.last_outcome_digest_hex(), summary.last_digest);

    let _ = std::fs::remove_file(&path);
}

/// Sends a bare GET; returns (status line, body).
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    stream.flush().unwrap();
    read_response(stream)
}

#[test]
fn deeply_nested_body_is_malformed_and_the_server_lives_on() {
    let state = Arc::new(ServeState::new());
    let (tx, rx) = sync_channel::<IngressMsg>(8);
    let (addr, http) =
        edge_market_cli::serve::start_http_with_ingest(Arc::clone(&state), 0, Some(tx))
            .expect("bind");
    let config = ServeConfig {
        seed: 5,
        microservices: 6,
        requests: 40,
        ..ServeConfig::default()
    };
    let mut svc = AuctionService::new(
        config.service_config(),
        stage_provider(config.service_config()),
    );
    let (status, body) = post_through_service(
        addr,
        "/v1/bid",
        r#"{"seller":0,"bid":0,"amount":2,"price":5.5}"#,
        &rx,
        &mut svc,
    );
    assert!(status.contains("200"), "{status} {body}");
    let digests_before = (svc.book_digest_hex(), svc.state_digest_hex());

    // A maximal body of `[`: one nesting level per byte. The JSON reader
    // rejects it past 128 levels instead of overflowing the HTTP
    // thread's stack.
    let body = vec![b'['; MAX_BODY_BYTES];
    let (status, reply) = post_rejected_at_http(addr, "/v1/bid", &body, None);
    assert!(status.contains("400"), "{status} {reply}");
    assert!(
        reply.contains("\"ok\":false,\"error\":\"malformed\""),
        "{reply}"
    );
    assert!(rx.try_recv().is_err(), "the body reached the queue");

    let (status, body) = get(addr, "/healthz");
    assert!(status.contains("200"), "{status} {body}");
    assert_eq!(
        (svc.book_digest_hex(), svc.state_digest_hex()),
        digests_before
    );

    state.request_shutdown();
    http.join().expect("http joins");
}

#[test]
fn demand_past_an_unbounded_cap_is_refused_and_the_server_lives_on() {
    let state = Arc::new(ServeState::new());
    let (tx, rx) = sync_channel::<IngressMsg>(8);
    let (addr, http) =
        edge_market_cli::serve::start_http_with_ingest(Arc::clone(&state), 0, Some(tx))
            .expect("bind");
    let config = ServeConfig {
        seed: 5,
        microservices: 6,
        requests: 40,
        demand_cap: u64::MAX,
        ..ServeConfig::default()
    };
    let mut svc = AuctionService::new(
        config.service_config(),
        stage_provider(config.service_config()),
    );
    let (status, body) = post_through_service(
        addr,
        "/v1/demand",
        &format!(r#"{{"units":{}}}"#, u64::MAX),
        &rx,
        &mut svc,
    );
    assert!(status.contains("200"), "{status} {body}");
    let digests_before = (svc.book_digest_hex(), svc.state_digest_hex());

    // The pending sum would pass `u64::MAX`: a rejection, not a wrap.
    let (status, reply) = post_through_service(addr, "/v1/demand", r#"{"units":1}"#, &rx, &mut svc);
    assert!(status.contains(" 4"), "{status} {reply}");
    assert!(
        reply.contains("\"ok\":false,\"error\":\"demand_over_cap\""),
        "{reply}"
    );
    let (status, body) = get(addr, "/healthz");
    assert!(status.contains("200"), "{status} {body}");
    assert_eq!(
        (svc.book_digest_hex(), svc.state_digest_hex()),
        digests_before
    );

    state.request_shutdown();
    http.join().expect("http joins");
}
