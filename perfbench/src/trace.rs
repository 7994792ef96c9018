//! In-memory span recording around the benchmark's calls into each
//! layer. A span has a name, start, end, parent and the id of the
//! request or cell it belongs to. A layer's self time is its span's
//! duration minus the part covered by its direct children. Spans are
//! kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: u64,
}

/// A span recorder; a disabled one records nothing and costs one
/// branch per call, which is how the untraced replay measures the
/// tracing overhead.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let idx = self.stack.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, id);
        let v = f();
        self.exit();
        v
    }

    /// Self time per span name, seconds, with the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += own as f64 / 1e9;
            e.1 += 1;
        }
        out
    }

    /// Every span as `(name, id, duration in seconds)`.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, u64, f64)> + '_ {
        self.spans
            .iter()
            .map(|s| (s.name, s.id, (s.end_ns - s.start_ns) as f64 / 1e9))
    }

    /// Writes every span as TSV (`name start_ns end_ns parent id`) to
    /// `.bench_trace/<file>`; a failure is reported, not fatal.
    pub fn write_out(&self, file: &str) {
        if !self.on {
            return;
        }
        let mut text = String::from("name\tstart_ns\tend_ns\tparent\tid\n");
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        let dir = std::path::Path::new(".bench_trace");
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(file), text));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write spans to .bench_trace/{file}: {e}");
        }
    }
}
