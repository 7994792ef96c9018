//! End-to-end test of `rsg-serve`: boot a real server on an ephemeral
//! port from CLI-trained models, hit it concurrently — a well-formed
//! request, one already past its deadline, one with a malformed DAG —
//! and prove the served spec is **byte-identical** to what the
//! equivalent `rsg spec` CLI invocation prints for the same DAG and
//! model file.

use rsg::obs::json::{escape, Json};
use rsg::serve::{ModelRegistry, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

fn cli(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    rsg_cli::run(&argv, &mut out).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    String::from_utf8(out).unwrap()
}

/// Trains a model and generates a DAG into a fresh temp dir, returning
/// (model dir, dag path).
fn fixture() -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join("rsg-serve-e2e");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("size_model.tsv");
    cli(&["train", "--grid", "tiny", "--out", model.to_str().unwrap()]);
    let dag = dir.join("wf.dag");
    cli(&[
        "gen",
        "random",
        "--size",
        "120",
        "--ccr",
        "0.2",
        "--seed",
        "7",
        "--out",
        dag.to_str().unwrap(),
    ]);
    (dir, dag)
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn served_spec_is_byte_identical_to_the_cli_and_errors_are_typed() {
    let (dir, dag_path) = fixture();
    let dag_text = std::fs::read_to_string(&dag_path).unwrap();

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        ..ServeConfig::default()
    };
    let registry = ModelRegistry::load(&dir).expect("registry loads CLI-trained model");
    let mut server = Server::spawn(&cfg, registry).expect("server boots");
    let addr = server.addr();

    // Liveness first.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");

    // Three concurrent requests with different fates: a good one, one
    // whose deadline is already spent, and one with an unparseable DAG.
    let good_body = format!("{{\"dag\": {}}}", escape(&dag_text));
    let dead_body = format!("{{\"dag\": {}, \"deadline_s\": 0.0}}", escape(&dag_text));
    let bad_body = "{\"dag\": \"rsg-dag v1\\ntask zero\\nend\\n\"}".to_string();
    let (good, dead, bad) = std::thread::scope(|scope| {
        let g = scope.spawn(|| request(addr, "POST", "/spec", &good_body));
        let d = scope.spawn(|| request(addr, "POST", "/spec", &dead_body));
        let b = scope.spawn(|| request(addr, "POST", "/spec", &bad_body));
        (g.join().unwrap(), d.join().unwrap(), b.join().unwrap())
    });

    assert_eq!(good.0, 200, "{}", good.1);
    assert_eq!(dead.0, 504, "{}", dead.1);
    let dead_json = Json::parse(&dead.1).unwrap();
    assert_eq!(
        dead_json
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("deadline"),
        "{}",
        dead.1
    );
    assert_eq!(bad.0, 400, "{}", bad.1);
    assert!(bad.1.contains("PARSE004"), "{}", bad.1);

    // Byte-identity: reassemble the CLI's `spec --lang all` output from
    // the served summary and renderings; it must match exactly.
    let model_path = dir.join("size_model.tsv");
    let cli_out = cli(&[
        "spec",
        "--model",
        model_path.to_str().unwrap(),
        dag_path.to_str().unwrap(),
        "--lang",
        "all",
    ]);
    let served = Json::parse(&good.1).unwrap();
    let summary = served.get("summary").and_then(Json::as_str).unwrap();
    let renders = served.get("renderings").expect("renderings");
    let vgdl = renders.get("vgdl").and_then(Json::as_str).unwrap();
    let classad = renders.get("classad").and_then(Json::as_str).unwrap();
    let sword = renders.get("sword").and_then(Json::as_str).unwrap();
    let reconstructed = format!(
        "{summary}\n\n--- vgDL ---\n{vgdl}\n\n--- ClassAd ---\n{classad}\n\n--- SWORD ---\n{sword}"
    );
    assert_eq!(
        reconstructed, cli_out,
        "served /spec diverged from the `rsg spec` CLI output"
    );

    // /metrics saw the traffic and stayed parseable JSON.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let m = Json::parse(&metrics).unwrap();
    let spec_count = m
        .get("counters")
        .and_then(|c| c.get("serve.requests.spec"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(spec_count >= 3.0, "{metrics}");

    server.shutdown();
}
