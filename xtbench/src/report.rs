//! Metric collection, percentiles, and the two output forms: one
//! human-readable line per metric, then the final JSON line.

/// End-to-end metrics of the untraced run (`--trace 0`): the ones every
/// workload measures. They must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "ops_per_s",
    "update_p50_us",
    "update_p99_us",
    "peak_rss_mb",
];

/// Per-layer metrics of the traced run (`--trace 1`) that every workload
/// measures. They must match `per_layer` in `BENCHMARK.json`. Layer
/// metrics that only some workloads have (snapshot, select, checkpoint,
/// open and wire timings) are printed on the human-readable lines only.
pub const PER_LAYER: &[&str] = &[
    "host.calib_us",
    "bench.gen_us",
    "trace.overhead_frac",
    "xquery.parse_trigger_us",
    "core.create_trigger_us",
    "core.translations",
    "core.compile_cache_hits",
    "core.sql_triggers",
    "relational.load_rows_per_s",
    "relational.parse_us",
    "core.update_exec_us",
    "relational.index_probes_per_op",
    "relational.rows_scanned_per_op",
    "relational.sql_fired_per_update",
    "relational.build_cache_hits_per_op",
    "core.action_rows_per_update",
    "relational.rows_returned_per_select",
    "core.latch_conflicts_per_write",
    "core.latch_waits_per_write",
    "core.latch_shared_per_write",
    "core.latch_exclusive_per_write",
    "storage.fsyncs_per_commit",
    "storage.commits_per_fsync",
    "storage.checkpoints_per_kstmt",
    "storage.wal_bytes_per_stmt",
    "storage.disk_bytes",
    "storage.pages_evicted",
    "server.stmts_per_pipelined_batch",
    "server.backpressure_stalls",
    "server.frames_rejected",
];

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Option<usize>,
}

/// The metrics one run measured, in the order they were recorded.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// Record a metric (a later value of the same name replaces it).
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.put_metric(name.into(), unit, value, None);
    }

    /// Record a percentile with the sample count it was taken over.
    pub fn put_n(&mut self, name: impl Into<String>, unit: &'static str, value: f64, n: usize) {
        self.put_metric(name.into(), unit, value, Some(n));
    }

    /// Median and p99 of `samples` (microseconds) as `<prefix>_p50_us`
    /// and `<prefix>_p99_us`.
    pub fn put_latency(&mut self, prefix: &str, samples: &mut [f64]) {
        // Medians of ten consecutive chunks, in issue order: a phase of the
        // host that changes its speed mid-run shows as a step here.
        let chunk = samples.len().div_ceil(10).max(1);
        let windows: Vec<String> = samples
            .chunks(chunk)
            .map(|c| format!("{:.0}", median(&mut c.to_vec())))
            .collect();
        self.note(format!("{prefix}_us window medians {}", windows.join(" ")));
        sort(samples);
        let n = samples.len();
        self.put_n(
            format!("{prefix}_p50_us"),
            "us",
            percentile(samples, 0.50),
            n,
        );
        self.put_n(
            format!("{prefix}_p99_us"),
            "us",
            percentile(samples, 0.99),
            n,
        );
        let deciles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| format!("p{}={:.0}", q * 100.0, percentile(samples, q)))
            .collect();
        self.note(format!("{prefix}_us {}", deciles.join(" ")));
    }

    fn put_metric(&mut self, name: String, unit: &'static str, value: f64, samples: Option<usize>) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// A free-form line printed after the metrics.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn print_human(&self, workload: &str) {
        println!("== xtbench {workload} ==");
        for m in &self.metrics {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            println!("metric {:<40} {:>16.4} {}{n}", m.name, m.value, m.unit);
        }
        for line in &self.notes {
            println!("note {line}");
        }
    }

    /// The result line: the end-to-end metrics for an untraced run, the
    /// per-layer ones for a traced run. Fails naming any that is missing
    /// or not a finite number.
    pub fn json_line(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        traced: bool,
    ) -> Result<String, String> {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        let mut missing = Vec::new();
        for &name in names {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.value.is_finite() => fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )),
                _ => missing.push(name),
            }
        }
        if !missing.is_empty() {
            return Err(missing.join(", "));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        ))
    }
}

pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of sorted samples (0 for none).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    sort(v);
    percentile(v, 0.5)
}

/// `num / den`, or 0 when nothing was counted in the denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
