//! Spans around the benchmark's calls into each engine layer.
//!
//! A [`Tracer`] belongs to one thread. While it is on, every
//! [`Tracer::span`] records a name, start, end, parent span and request
//! id in memory; nothing is written until the run ends. The traced run
//! alternates blocks of operations with tracing on and off, so the cost of
//! tracing itself is measured on the same run ([`Blocks`]).
//!
//! The file format is one tab-separated span per line:
//! `req id parent name start_ns end_ns` (parent 0 = a root span).

use std::collections::HashMap;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::report::{self, Report};

/// Operations per block of the traced run: odd blocks are traced, even
/// ones are not.
pub const BLOCK: u64 = 64;

pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    req: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for thread number `thread`; all tracers of a run share
    /// `epoch`, so their spans sit on one time line.
    pub fn new(epoch: Instant, thread: u64, on: bool) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            next: 1,
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start a new request: spans until the next call share its id.
    pub fn request(&mut self, req: u64) {
        self.req = (self.thread << 48) | req;
    }

    /// Run `f` inside a span named `name` (just runs it while off).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = (self.thread << 48) | self.next;
        self.next += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans.push(Span {
            req: self.req,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Closed-loop time spent in traced and untraced blocks of a run.
#[derive(Default, Clone, Copy)]
pub struct Blocks {
    traced_ops: u64,
    traced_s: f64,
    plain_ops: u64,
    plain_s: f64,
}

impl Blocks {
    /// Whether operation `i` of a thread falls in a traced block.
    pub fn traced(trace_run: bool, i: u64) -> bool {
        trace_run && (i / BLOCK) % 2 == 1
    }

    pub fn add(&mut self, traced: bool, ops: u64, secs: f64) {
        if traced {
            self.traced_ops += ops;
            self.traced_s += secs;
        } else {
            self.plain_ops += ops;
            self.plain_s += secs;
        }
    }

    pub fn merge(&mut self, other: Blocks) {
        self.traced_ops += other.traced_ops;
        self.traced_s += other.traced_s;
        self.plain_ops += other.plain_ops;
        self.plain_s += other.plain_s;
    }

    /// `1 − traced rate ÷ untraced rate`.
    pub fn overhead_frac(&self) -> f64 {
        let traced = report::ratio(self.traced_ops as f64, self.traced_s);
        let plain = report::ratio(self.plain_ops as f64, self.plain_s);
        1.0 - report::ratio(traced, plain)
    }
}

pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

pub fn read(path: &Path) -> std::io::Result<Vec<Span>> {
    let bad = |line: &str| std::io::Error::other(format!("bad span line `{line}`"));
    let file = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut spans = Vec::new();
    for line in file.lines() {
        let line = line?;
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 6 {
            return Err(bad(&line));
        }
        let num = |i: usize| f[i].parse::<u64>().map_err(|_| bad(&line));
        spans.push(Span {
            req: num(0)?,
            id: num(1)?,
            parent: num(2)?,
            name: f[3].to_string(),
            start_ns: num(4)?,
            end_ns: num(5)?,
        });
    }
    Ok(spans)
}

/// Per-name durations and self times of a span file.
pub struct Analysis {
    dur: HashMap<String, Vec<f64>>,
    self_us: HashMap<String, Vec<f64>>,
    by_req: HashMap<u64, Vec<usize>>,
    spans: Vec<Span>,
}

impl Analysis {
    /// A span's self time is its duration minus the part of it that its
    /// children cover.
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut dur: HashMap<String, Vec<f64>> = HashMap::new();
        let mut self_us: HashMap<String, Vec<f64>> = HashMap::new();
        let mut by_req: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            let total = s.end_ns - s.start_ns;
            dur.entry(s.name.clone()).or_default().push(s.dur_us());
            self_us
                .entry(s.name.clone())
                .or_default()
                .push(total.saturating_sub(covered) as f64 / 1e3);
            by_req.entry(s.req).or_default().push(i);
        }
        Analysis {
            dur,
            self_us,
            by_req,
            spans,
        }
    }

    /// Median duration of the spans named `name`, with their count.
    pub fn p50(&self, name: &str) -> Option<(f64, usize)> {
        let v = self.dur.get(name)?;
        let mut v = v.clone();
        Some((report::median(&mut v), v.len()))
    }

    /// Median, over the requests holding a span of every name in
    /// `terms`, of the sum of `sign × duration`.
    pub fn p50_combo(&self, terms: &[(&str, f64)]) -> Option<(f64, usize)> {
        let mut values = Vec::new();
        for idx in self.by_req.values() {
            let mut total = 0.0;
            let all = terms.iter().all(|&(name, sign)| {
                idx.iter()
                    .map(|&i| &self.spans[i])
                    .find(|s| s.name == name)
                    .map(|s| total += sign * s.dur_us())
                    .is_some()
            });
            if all {
                values.push(total);
            }
        }
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        Some((report::median(&mut values), n))
    }

    /// Summed duration of the spans named `name`.
    pub fn sum_us(&self, name: &str) -> Option<f64> {
        self.dur.get(name).map(|v| v.iter().sum())
    }

    /// Put `metric` = median duration of span `name`, if any was recorded.
    pub fn put_p50(&self, r: &mut Report, metric: &str, name: &str) {
        if let Some((v, n)) = self.p50(name) {
            r.put_n(metric.to_string(), "us", v, n);
        }
    }

    /// One note line per span name: count, median duration, median self
    /// time.
    pub fn notes(&self, r: &mut Report) {
        let mut names: Vec<&String> = self.dur.keys().collect();
        names.sort();
        for name in names {
            let mut d = self.dur[name].clone();
            let mut s = self.self_us[name].clone();
            let n = d.len();
            r.note(format!(
                "span {name:<28} n={n:<8} p50_us={:<12.2} self_p50_us={:.2}",
                report::median(&mut d),
                report::median(&mut s)
            ));
        }
    }
}

/// Write the spans of all threads to the run's trace file, read the file
/// back, and analyse it: the per-layer numbers come from the file.
pub fn finish(workload: &str, spans: Vec<Span>, r: &mut Report) -> std::io::Result<Analysis> {
    let path = crate::out_dir().join(format!("trace-{workload}.tsv"));
    write(&path, &spans)?;
    drop(spans);
    let analysis = Analysis::new(read(&path)?);
    r.note(format!("trace file {}", path.display()));
    analysis.notes(r);
    Ok(analysis)
}

/// Per-layer metrics every workload takes from its span file: trigger
/// creation, bulk load, statement parse, generation, and UPDATE execution.
pub fn put_common(a: &Analysis, r: &mut Report, loaded_rows: usize) {
    a.put_p50(r, "xquery.parse_trigger_us", "xquery.parse_trigger");
    a.put_p50(r, "core.create_trigger_us", "core.create_trigger");
    a.put_p50(r, "relational.parse_us", "relational.parse");
    a.put_p50(r, "bench.gen_us", "bench.gen");
    if let Some((v, n)) = a.p50_combo(&[("core.update", 1.0), ("relational.parse", -1.0)]) {
        r.put_n("core.update_exec_us", "us", v, n);
    }
    if let Some(load_us) = a.sum_us("relational.load") {
        r.put(
            "relational.load_rows_per_s",
            "rows/s",
            report::ratio(loaded_rows as f64, load_us / 1e6),
        );
    }
}
