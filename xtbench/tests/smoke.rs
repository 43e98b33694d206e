//! The benchmark's own correctness: every workload in its tiny `--smoke`
//! size, untraced and traced, passes its output checks and prints every
//! metric `BENCHMARK.json` declares, with its unit, plus the
//! workload-specific metrics on the human-readable lines.

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// The file keeps one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let rest = &line[at..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body[..end]
        .lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_xtbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run xtbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, always: &[&str], traced: &[&str]) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let stdout = run(workload, trace);
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{last}");
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "no {section} metrics declared");
        for (name, unit) in &metrics {
            let field = format!("\"{name}\": {{\"value\": ");
            let at = last
                .find(&field)
                .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
            let unit_field = format!("\"unit\": \"{unit}\"}}");
            assert!(
                last[at..].starts_with(&field) && last[at..].contains(&unit_field),
                "{workload}: {name} lacks unit {unit}"
            );
        }
        assert_eq!(
            last.matches("\"unit\"").count(),
            metrics.len(),
            "{workload}: the result line has exactly the {section} metrics"
        );
        let layers = if trace == 1 { traced } else { &[][..] };
        for name in ["failed_frac"].iter().chain(always).chain(layers) {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.split_whitespace().nth(1) == Some(name)),
                "{workload}: no metric line for {name}"
            );
        }
    }
}

#[test]
fn view_fire_smoke() {
    check("view-fire", &[], &[]);
}

#[test]
fn snapshot_oltp_smoke() {
    check(
        "snapshot-oltp",
        &["select_p50_us", "select_p99_us"],
        &["core.snapshot_us", "relational.select_us"],
    );
}

#[test]
fn wire_durable_smoke() {
    check(
        "wire-durable",
        &[
            "select_p50_us",
            "select_p99_us",
            "ingest_rows_per_s",
            "restart_ms",
            "space_amp",
            "storage.checkpoint_ms",
            "storage.open_ms",
            "storage.recovery_ms",
        ],
        &[
            "core.snapshot_us",
            "relational.select_us",
            "server.update_overhead_us",
            "server.select_overhead_us",
            "server.pipeline_burst_us",
        ],
    );
}
