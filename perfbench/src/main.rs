//! The repository benchmark: one command that runs a workload of one
//! of the three paths — `train`, `spec-light`, `spec-dag-live` —
//! checks every output, and prints every metric by name and unit.
//!
//! ```text
//! rsg-perfbench --workload NAME --seed N --seconds S --trace 0|1 --rsg PATH
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced.
//! `--trace 1` is a separate run that replays the same generated inputs
//! through each layer's public functions, recording spans from the
//! benchmark's side of every call, and prints the per-layer metrics.
//! The last line of standard output is the result object; the line
//! before it is a report that adds the machine stamp, the sample count
//! behind every number, the check results and the metrics under the
//! names `perfbench/MAP.md` uses. Spans of a traced run are written to
//! `.bench_trace/` when the run ends.

mod client;
mod inputs;
mod replay;
mod serve;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// The end-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists
/// them. Each workload gives them its own operation: one cold sweep +
/// fit on `train`, one `/spec` answer on the serve workloads.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them;
/// a layer a workload never calls reads 0 there.
const PER_LAYER: [(&str, &str); 42] = [
    ("dag.generate_s", "s"),
    ("sched.evaluations", "count"),
    ("sched.ops", "count"),
    ("sched.evaluate_s", "s"),
    ("sched.us_per_evaluation", "us"),
    ("core.knee.refine_evals", "count"),
    ("core.knee.self_s", "s"),
    ("core.knee.memo_hit_ratio", "1"),
    ("core.planefit.fit_s", "s"),
    ("train.unattributed_s", "s"),
    ("train.sched_share", "1"),
    ("train.parallel_efficiency", "1"),
    ("serve.connects_per_req", "1"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.handler_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.transport_share", "1"),
    ("serve.rejected", "count"),
    ("obs.json_parse_ms", "ms"),
    ("analyze.lint_ms", "ms"),
    ("analyze.delta_lint_ms", "ms"),
    ("dag.parse_ms", "ms"),
    ("dag.stats_ms", "ms"),
    ("core.specgen_ms", "ms"),
    ("select.render_ms", "ms"),
    ("select.find_ms", "ms"),
    ("select.attempts_per_bind", "1"),
    ("core.alternative_ms", "ms"),
    ("core.negotiate_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("handlers.unattributed_ms", "ms"),
    ("handlers.lint_parse_share", "1"),
    ("push.apply_p50_ms", "ms"),
    ("push.apply_p90_ms", "ms"),
    ("push.cells_recomputed", "count"),
    ("push.recompute_ratio", "1"),
    ("push.full_resweep_ms", "ms"),
    ("delta.p50_ms", "ms"),
    ("delta.p90_ms", "ms"),
    ("delta.gen_late_ms", "ms"),
    ("trace.overhead_ratio", "1"),
];

/// Command-line options of one benchmark run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `rsg` binary the serve workloads spawn.
    pub rsg: PathBuf,
}

impl Opts {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One reported number: value, unit and the samples behind it.
#[derive(Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything a workload run produces.
#[derive(Default)]
pub struct Outcome {
    /// Metrics by the names `BENCHMARK.json` lists (the result line).
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Metrics under the per-path names of `MAP.md` (report line only).
    pub detail: BTreeMap<&'static str, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations; any entry makes the run incorrect.
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.detail.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records a failed check; it counts as one failed operation.
    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 20 {
            eprintln!("perfbench: check failed: {what}");
        }
        self.violations.push(what);
        self.failed += 1;
    }
}

/// Nearest-rank percentile of `samples` (sorted in place): an
/// observed value, never an interpolation.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time (user + system) a process has used, seconds. Time the
/// hypervisor stole from the machine is not charged to the process, so
/// this stays steady where wall time on a shared host does not.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in USER_HZ (100/s) ticks.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

/// The machine's CPU time stolen by the hypervisor and its total CPU
/// time so far, in jiffies, from `/proc/stat`.
fn steal_jiffies() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0.0), f.iter().take(8).sum())
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{a}'"))?;
        let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, val);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let workload = get("workload")?.to_string();
    if !["train", "spec-light", "spec-dag-live"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (train|spec-light|spec-dag-live)"
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0 && s.is_finite())
        .ok_or("--seconds must be a positive number")?;
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not '{t}'")),
    };
    let rsg = PathBuf::from(flags.get("rsg").copied().unwrap_or("target/release/rsg"));
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        rsg,
    })
}

/// Output of a short command, trimmed, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// FNV-1a digest of the sources the measured program is built from, so
/// a result from a checkout without git history still names its code.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("models"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn stamp_json(opts: &Opts) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"git_rev\": {}, \"source_digest\": {}, \"rustc\": {}, \"nproc\": {nproc}, \
         \"cpu\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        esc(&command_line("git", &["rev-parse", "HEAD"])),
        esc(&source_digest()),
        esc(&command_line("rustc", &["--version"])),
        esc(&cpu),
        esc(&opts.workload),
        opts.seed,
        opts.seconds,
        opts.trace
    )
}

fn esc(s: &str) -> String {
    rsg_obs::json::escape(s)
}

fn metrics_json(m: &BTreeMap<&'static str, Metric>, with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, (name, v)) in m.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if v.value.is_finite() { v.value } else { 0.0 };
        let _ = write!(
            out,
            "{}: {{\"value\": {value:?}, \"unit\": {}",
            esc(name),
            esc(v.unit)
        );
        if with_samples {
            let _ = write!(out, ", \"samples\": {}", v.samples);
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--train-worker") {
        std::process::exit(train::worker(&args[1..]));
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let steal_before = steal_jiffies();
    let result = match opts.workload.as_str() {
        "train" => train::run(&opts),
        _ => serve::run(&opts),
    };
    let steal_after = steal_jiffies();
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.detail("fail_ratio", fail_ratio, "1", out.attempted as usize);
    let stolen = (steal_after.0 - steal_before.0) / (steal_after.1 - steal_before.1).max(1.0);
    out.detail("host.steal_share", stolen, "1", 1);
    let correct = out.violations.is_empty();
    // The result line carries exactly the listed metrics (0 for a layer
    // this workload never calls); everything else goes to the report.
    let listed: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = BTreeMap::new();
    let mut detail = out.detail;
    for (name, m) in out.metrics {
        if listed.iter().any(|(n, _)| *n == name) {
            metrics.insert(name, m);
        } else {
            detail.insert(name, m);
        }
    }
    for &(name, unit) in listed {
        let m = metrics.entry(name).or_insert(Metric {
            value: 0.0,
            unit,
            samples: 0,
        });
        assert_eq!(m.unit, unit, "{name} reported in the wrong unit");
        detail.insert(name, *m);
    }
    println!(
        "{{\"report\": {{\"stamp\": {}, \"attempted\": {}, \"failed\": {}, \"violations\": {}, \
         \"metrics\": {}}}}}",
        stamp_json(&opts),
        out.attempted,
        out.failed,
        out.violations.len(),
        metrics_json(&detail, true)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&metrics, false)
    );
    if !correct {
        std::process::exit(1);
    }
}
