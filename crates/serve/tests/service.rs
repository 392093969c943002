//! End-to-end daemon tests: concurrent submissions over one shared
//! executor, byte-identity with the batch path, typed rejections,
//! backpressure, the scrape endpoint, and graceful drain.

#![allow(
    clippy::disallowed_types,
    reason = "the tests drive eaao-serve's sockets as its clients do"
)]

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use eaao_campaign::engine::Campaign;
use eaao_campaign::runner::RunRecord;
use eaao_campaign::spec::CampaignSpec;
use eaao_serve::client::{Client, ClientError};
use eaao_serve::proto::{read_frame, write_frame, ClientFrame, ServerFrame};
use eaao_serve::server::{ServeConfig, Server};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("eaao-serve-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(root: &Path) -> ServeConfig {
    ServeConfig {
        out_root: root.join("serve"),
        metrics_addr: Some("127.0.0.1:0".to_owned()),
        jobs: 4,
        ..ServeConfig::default()
    }
}

/// `key → content_hash` for every line of a `results.jsonl`.
fn hashes_on_disk(dir: &Path) -> BTreeMap<String, u64> {
    std::fs::read_to_string(dir.join("results.jsonl"))
        .expect("batch results exist")
        .lines()
        .map(|line| {
            let record: RunRecord = serde_json::from_str(line).expect("record parses");
            (record.key.clone(), record.content_hash())
        })
        .collect()
}

#[test]
fn concurrent_submissions_match_the_batch_path_byte_for_byte() {
    let root = scratch("identity");
    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr();
    let specs = [
        r#"{"name":"alpha","experiments":["fig6"],"regions":["us-west1"],"seeds":3,"quick":true}"#,
        r#"{"name":"beta","experiments":["attack-naive"],"regions":["us-east1"],"seeds":3,"seed":7,"quick":true}"#,
    ];

    // Two clients submit concurrently; their runs multiplex over the
    // daemon's one shared executor.
    let workers: Vec<_> = specs
        .iter()
        .map(|spec| {
            let spec = (*spec).to_owned();
            std::thread::spawn(move || {
                let client = Client::connect(addr).expect("client connects");
                let mut streamed = Vec::new();
                let outcome = client
                    .submit(&spec, None, |record| streamed.push(record))
                    .expect("submission succeeds");
                (outcome, streamed)
            })
        })
        .collect();
    let results: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();

    for (spec_json, (outcome, streamed)) in specs.iter().zip(&results) {
        assert!(outcome.complete, "campaign incomplete: {outcome:?}");
        assert_eq!(streamed.len() as u64, outcome.total);
        // Batch reference run of the identical spec.
        let spec = CampaignSpec::from_json(spec_json).expect("spec parses");
        let batch_dir = root.join("batch").join(spec.name.clone());
        Campaign::new(spec, &batch_dir)
            .jobs(2)
            .run()
            .expect("batch run");
        let batch = hashes_on_disk(&batch_dir);
        let served: BTreeMap<String, u64> = streamed
            .iter()
            .map(|record| {
                let parsed: RunRecord =
                    serde_json::from_str(&record.json).expect("streamed record parses");
                (parsed.key.clone(), parsed.content_hash())
            })
            .collect();
        // content_hash covers every field except wall_ms — this is
        // byte-identity modulo the one sanctioned nondeterminism.
        assert_eq!(served, batch, "served records diverge from batch");
    }

    // The scrape endpoint serves both service counters and the merged
    // per-campaign metrics.
    let metrics_addr = server.metrics_addr().expect("metrics enabled");
    let mut scrape = String::new();
    TcpStream::connect(metrics_addr)
        .expect("scrape connects")
        .read_to_string(&mut scrape)
        .expect("scrape reads");
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "scrape: {scrape}");
    let streamed: u64 = results.iter().map(|(outcome, _)| outcome.total).sum();
    assert!(scrape.contains("eaao_serve_campaigns_completed 2"));
    assert!(
        scrape.contains(&format!("eaao_serve_records_streamed {streamed}")),
        "scrape: {scrape}"
    );
    assert!(scrape.contains("campaign=\"c0001\""));

    Client::connect(addr)
        .expect("shutdown client connects")
        .shutdown()
        .expect("shutdown acknowledged");
    server.wait().expect("drain completes");
}

#[test]
fn scrape_clients_that_send_a_request_get_the_whole_page() {
    let root = scratch("scrape-request");
    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr();
    let spec = r#"{"name":"scraped","experiments":["fig6"],"seeds":1,"quick":true}"#;
    let outcome = Client::connect(addr)
        .expect("client connects")
        .submit(spec, None, |_| {})
        .expect("submission succeeds");
    assert!(outcome.complete, "campaign incomplete: {outcome:?}");

    // HTTP clients send their request before reading. Half send it at
    // once and half after a pause, so some requests land before the page
    // is written and some after; every one must read the whole page
    // rather than a connection reset.
    let metrics_addr = server.metrics_addr().expect("metrics enabled");
    let clients: Vec<_> = (0..20)
        .map(|i| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(metrics_addr).expect("scrape connects");
                if i % 2 == 1 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                stream
                    .write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
                    .expect("request sends");
                let mut page = String::new();
                stream.read_to_string(&mut page).map(|_| page)
            })
        })
        .collect();
    for (i, client) in clients.into_iter().enumerate() {
        let page = client
            .join()
            .expect("scrape client thread")
            .unwrap_or_else(|err| panic!("client {i} lost the page: {err}"));
        assert!(page.starts_with("HTTP/1.1 200 OK"), "client {i}: {page}");
        assert!(page.contains("campaign=\"c0001\""), "client {i}: {page}");
    }

    Client::connect(addr)
        .expect("shutdown client connects")
        .shutdown()
        .expect("shutdown acknowledged");
    server.wait().expect("drain completes");
}

#[test]
fn a_version_mismatch_is_rejected_in_the_handshake() {
    let root = scratch("version");
    let server = Server::start(config(&root)).expect("server starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    write_frame(&mut stream, &ClientFrame::Hello { version: 999 }).expect("writes");
    let reply: ServerFrame = read_frame(&mut stream).expect("reads").expect("one frame");
    match reply {
        ServerFrame::Rejected { reason, detail } => {
            assert_eq!(reason, "version");
            assert!(detail.contains("999"), "detail: {detail}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    server.shutdown();
    server.wait().expect("drain completes");
}

#[test]
fn a_full_admission_queue_answers_busy() {
    let root = scratch("busy");
    let server = Server::start(ServeConfig {
        max_pending: 0,
        ..config(&root)
    })
    .expect("server starts");
    let client = Client::connect(server.addr()).expect("connects");
    let spec = r#"{"name":"x","experiments":["fig6"],"quick":true}"#;
    let error = client
        .submit(spec, None, |_| {})
        .expect_err("queue is full");
    match error {
        ClientError::Busy { queued, capacity } => {
            assert_eq!((queued, capacity), (0, 0));
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    server.shutdown();
    server.wait().expect("drain completes");
}

#[test]
fn a_bad_spec_and_a_bad_out_name_are_typed_rejections() {
    let root = scratch("rejects");
    let server = Server::start(config(&root)).expect("server starts");
    let cases = [
        (
            r#"{"name":"x","experiments":["figNaN"],"quick":true}"#,
            None,
            "spec",
        ),
        ("{not json", None, "spec"),
        (
            r#"{"experiments":["fig6"],"region":["us-west1"],"sedes":3}"#,
            None,
            "spec",
        ),
        (
            r#"{"name":"x","experiments":["fig6"],"quick":true}"#,
            Some("../escape"),
            "spec",
        ),
    ];
    for (spec, out, want) in cases {
        let client = Client::connect(server.addr()).expect("connects");
        let error = client.submit(spec, out, |_| {}).expect_err("rejected");
        match error {
            ClientError::Rejected { reason, .. } => assert_eq!(reason, want, "spec: {spec}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
    }
    server.shutdown();
    server.wait().expect("drain completes");
}

#[test]
fn a_directory_with_a_live_writer_rejects_new_submissions() {
    let root = scratch("dir-busy");
    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr();
    // The holder submits by raw frames so its admission is awaited, not
    // raced: once Accepted is read, the "shared" directory is pinned in
    // the live-writer registry and stays pinned until the whole 128-run
    // campaign completes — orders of magnitude longer than the prober's
    // loopback connect + submit below.
    let holder = r#"{"name":"holder","experiments":["fig6"],"seeds":128,"quick":true}"#;
    let mut stream = TcpStream::connect(addr).expect("connects");
    write_frame(&mut stream, &ClientFrame::Hello { version: 1 }).expect("hello");
    let _welcome: ServerFrame = read_frame(&mut stream).expect("reads").expect("welcome");
    write_frame(
        &mut stream,
        &ClientFrame::Submit {
            spec: holder.to_owned(),
            out: Some("shared".to_owned()),
        },
    )
    .expect("submit");
    let accepted: ServerFrame = read_frame(&mut stream).expect("reads").expect("accepted");
    let ServerFrame::Accepted { total, .. } = accepted else {
        panic!("expected Accepted, got {accepted:?}");
    };

    // Collide with the live writer.
    let prober = Client::connect(addr).expect("connects");
    match prober
        .submit(holder, Some("shared"), |_| {})
        .expect_err("dir is busy")
    {
        ClientError::Rejected { reason, .. } => assert_eq!(reason, "dir-busy"),
        other => panic!("expected Rejected(dir-busy), got {other:?}"),
    }

    // The rejection did not disturb the holder: its stream still
    // delivers every record and a complete Done.
    let mut records = 0u64;
    loop {
        let frame: ServerFrame = read_frame(&mut stream).expect("reads").expect("frame");
        match frame {
            ServerFrame::Record { .. } => records += 1,
            ServerFrame::Done { complete, .. } => {
                assert!(complete);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(records, total);
    server.shutdown();
    server.wait().expect("drain completes");
}

#[test]
fn a_completed_directory_is_not_silently_destroyed_by_reuse() {
    let root = scratch("dir-exists");
    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr();
    let spec = r#"{"name":"keep","experiments":["fig6"],"seeds":2,"quick":true}"#;
    let first = Client::connect(addr)
        .expect("connects")
        .submit(spec, Some("keep"), |_| {})
        .expect("first submission completes");
    assert!(first.complete);
    let dir = root.join("serve").join("keep");
    let before = hashes_on_disk(&dir);

    // Reusing the name would have the engine wipe the directory and
    // start clean; the server must refuse instead.
    let error = Client::connect(addr)
        .expect("connects")
        .submit(spec, Some("keep"), |_| {})
        .expect_err("reuse is refused");
    match error {
        ClientError::Rejected { reason, .. } => assert_eq!(reason, "dir-exists"),
        other => panic!("expected Rejected(dir-exists), got {other:?}"),
    }
    assert_eq!(hashes_on_disk(&dir), before, "prior output was disturbed");
    server.shutdown();
    server.wait().expect("drain completes");
}

#[test]
fn an_abandoned_client_does_not_stall_its_campaign() {
    let root = scratch("abandoned");
    let server = Server::start(ServeConfig {
        outbound_capacity: 1,
        slow_consumer_ms: 100,
        ..config(&root)
    })
    .expect("server starts");
    let addr = server.addr();
    let spec = r#"{"name":"ghost","experiments":["fig6"],"seeds":4,"quick":true}"#;
    let campaign_dir = {
        let mut stream = TcpStream::connect(addr).expect("connects");
        write_frame(&mut stream, &ClientFrame::Hello { version: 1 }).expect("hello");
        let _welcome: ServerFrame = read_frame(&mut stream).expect("reads").expect("welcome");
        write_frame(
            &mut stream,
            &ClientFrame::Submit {
                spec: spec.to_owned(),
                out: None,
            },
        )
        .expect("submit");
        let accepted: ServerFrame = read_frame(&mut stream).expect("reads").expect("accepted");
        let ServerFrame::Accepted { campaign, .. } = accepted else {
            panic!("expected Accepted, got {accepted:?}");
        };
        root.join("serve").join(format!("{campaign}-ghost"))
        // The stream drops here: the client vanishes mid-campaign.
    };
    // The campaign must still run to completion on disk.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !campaign_dir.join("campaign.json").exists() {
        assert!(
            Instant::now() < deadline,
            "campaign never finalized after its client vanished"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(hashes_on_disk(&campaign_dir).len(), 4);
    server.shutdown();
    server.wait().expect("drain completes");
}

#[test]
fn shutdown_drains_in_flight_campaigns_and_rejects_new_ones() {
    let root = scratch("drain");
    let server = Server::start(config(&root)).expect("server starts");
    let addr = server.addr();
    let spec = r#"{"name":"inflight","experiments":["fig6"],"seeds":8,"quick":true}"#;

    // Submit by hand so the shutdown can land between Accepted and the
    // record stream — the campaign is then provably in flight.
    let mut stream = TcpStream::connect(addr).expect("connects");
    write_frame(&mut stream, &ClientFrame::Hello { version: 1 }).expect("hello");
    let _welcome: ServerFrame = read_frame(&mut stream).expect("reads").expect("welcome");
    write_frame(
        &mut stream,
        &ClientFrame::Submit {
            spec: spec.to_owned(),
            out: None,
        },
    )
    .expect("submit");
    let accepted: ServerFrame = read_frame(&mut stream).expect("reads").expect("accepted");
    let ServerFrame::Accepted { total, .. } = accepted else {
        panic!("expected Accepted, got {accepted:?}");
    };

    Client::connect(addr)
        .expect("shutdown client connects")
        .shutdown()
        .expect("shutdown acknowledged");

    // New submissions are refused while draining.
    let late = Client::connect(addr).expect("late client connects");
    match late.submit(spec, None, |_| {}).expect_err("draining") {
        ClientError::Rejected { reason, .. } => assert_eq!(reason, "draining"),
        other => panic!("expected Rejected(draining), got {other:?}"),
    }

    // The in-flight campaign still streams every record and finishes.
    let mut records = 0u64;
    loop {
        let frame: ServerFrame = read_frame(&mut stream).expect("reads").expect("frame");
        match frame {
            ServerFrame::Record { .. } => records += 1,
            ServerFrame::Done { complete, .. } => {
                assert!(complete);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(records, total);
    server.wait().expect("drain completes");
}
