//! `docs/API.md` must not drift from the server: every `curl` example
//! in the document is parsed out of its code fence and replayed
//! verbatim against a live `rsg-serve` instance, and the `# => NNN`
//! trailer on each command is asserted against the real status code.

use rsg::obs::json::Json;
use rsg::serve::{ModelRegistry, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;

/// One replayable example: method, path, body, expected status.
#[derive(Debug)]
struct CurlExample {
    line_no: usize,
    method: String,
    path: String,
    body: String,
    expect: u16,
}

/// Extracts every `curl … # => NNN` line from the document's code
/// fences. The parser understands exactly the subset the doc uses:
/// `-s`, `-X POST`, a single-quoted `-d '…'` body, and a
/// `http://127.0.0.1:7878/<path>` URL.
fn parse_examples(doc: &str) -> Vec<CurlExample> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (i, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        let trimmed = line.trim();
        if !in_fence || !trimmed.starts_with("curl ") {
            continue;
        }
        let (cmd, annotation) = trimmed
            .rsplit_once('#')
            .unwrap_or_else(|| panic!("API.md line {}: curl example without # => NNN", i + 1));
        let expect: u16 = annotation
            .trim()
            .strip_prefix("=>")
            .map(str::trim)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                panic!(
                    "API.md line {}: bad status annotation '{annotation}'",
                    i + 1
                )
            });
        let method = if cmd.contains("-X POST") {
            "POST"
        } else {
            "GET"
        };
        let url_start = cmd
            .find("http://")
            .unwrap_or_else(|| panic!("API.md line {}: no URL", i + 1));
        let url: String = cmd[url_start..]
            .chars()
            .take_while(|c| !c.is_whitespace() && *c != '\'')
            .collect();
        let path = url.splitn(4, '/').nth(3).map_or_else(
            || panic!("API.md line {}: URL {url} has no path", i + 1),
            |p| format!("/{p}"),
        );
        let body = match cmd.find("-d '") {
            Some(d) => {
                let rest = &cmd[d + 4..];
                let end = rest
                    .rfind('\'')
                    .unwrap_or_else(|| panic!("API.md line {}: unterminated -d quote", i + 1));
                rest[..end].to_string()
            }
            None => String::new(),
        };
        out.push(CurlExample {
            line_no: i + 1,
            method: method.to_string(),
            path,
            body,
            expect,
        });
    }
    out
}

fn request(addr: SocketAddr, ex: &CurlExample) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "{} {} HTTP/1.1\r\nHost: docs\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        ex.method,
        ex.path,
        ex.body.len(),
        ex.body
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
fn every_curl_example_in_api_md_replays_with_its_documented_status() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("docs/API.md")).expect("docs/API.md");
    let mut examples = parse_examples(&doc);
    assert!(
        examples.len() >= 6,
        "expected at least one example per endpoint, found {examples:?}"
    );
    let endpoints: Vec<&str> = examples.iter().map(|e| e.path.as_str()).collect();
    for required in [
        "/healthz",
        "/readyz",
        "/spec",
        "/predict",
        "/lint",
        "/metrics",
        "/admin/reload",
        "/admin/platform",
        "/admin/drain",
    ] {
        assert!(
            endpoints.contains(&required),
            "API.md has no curl example for {required}"
        );
    }

    // `/admin/drain` shuts the daemon down, so it must replay last —
    // regardless of where the doc places its section.
    examples.sort_by_key(|e| e.path == "/admin/drain");

    // The examples run against the shipped pre-trained model, exactly
    // as the doc's `--models models --admin-addr …` invocation would.
    let registry =
        ModelRegistry::load(&root.join("models")).expect("shipped models/ directory loads");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        admin_addr: Some("127.0.0.1:0".to_string()),
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::spawn(&cfg, registry).expect("server boots");
    let admin = server.admin_addr().expect("admin listener bound");
    for ex in &examples {
        // The doc uses port 7878 for serving and 7879 for admin; the
        // replay routes by path instead of trusting the example port.
        let addr = if ex.path.starts_with("/admin/") {
            admin
        } else {
            server.addr()
        };
        let (status, body) = request(addr, ex);
        assert_eq!(
            status, ex.expect,
            "API.md line {}: {} {} answered {status}, doc says {} — body: {body}",
            ex.line_no, ex.method, ex.path, ex.expect
        );
        assert!(
            Json::parse(&body).is_ok(),
            "API.md line {}: response body is not valid JSON: {body}",
            ex.line_no
        );
    }
    // The drain example just ran: the daemon must now wind itself
    // down without any call to shutdown().
    server.join();
}
