//! The benchmark's calls into the engine, each wrapped in the span of the
//! layer it enters, plus the counter-delta metrics shared by all
//! workloads.

use quark_core::relational::sql::{self, Statement};
use quark_core::relational::{Row, Stats};
use quark_core::{Session, StatementResult};

use crate::report::{ratio, Report};
use crate::trace::Tracer;
use crate::Outcome;

pub fn stats(s: &Session) -> Stats {
    s.quark().stats()
}

/// `CREATE TRIGGER` through the session. Traced, the trigger text is
/// first parsed on its own by the XQuery frontend, so the parse share of
/// trigger creation shows as its own span.
pub fn create_trigger(s: &Session, t: &mut Tracer, text: &str) -> Result<(), String> {
    if t.is_on() {
        t.span("xquery.parse_trigger", |_| {
            quark_xquery::parse_trigger(text)
        })
        .map_err(|e| format!("{text}: {e}"))?;
    }
    t.span("core.create_trigger", |_| s.execute(text))
        .map_err(|e| format!("{text}: {e}"))?;
    Ok(())
}

/// A data-change statement; returns the rows it affected. Traced, the
/// statement is first parsed on its own, so `Session::execute` minus the
/// parse is the execution share (DML, latching, trigger firing, logging).
pub fn write(s: &Session, t: &mut Tracer, text: &str) -> Result<usize, String> {
    if t.is_on() {
        t.span("relational.parse", |_| sql::parse(text))
            .map_err(|e| format!("{text}: {e}"))?;
    }
    match t.span("core.update", |_| s.execute(text)) {
        Ok(StatementResult::RowsAffected(n)) => Ok(n),
        Ok(other) => Err(format!("{text}: unexpected result {other:?}")),
        Err(e) => Err(format!("{text}: {e}")),
    }
}

/// A `SELECT`. Traced, it runs as the three public calls
/// `Session::execute` makes for it: parse, snapshot, select.
pub fn select(s: &Session, t: &mut Tracer, text: &str) -> Result<Vec<Row>, String> {
    let err = |e: &dyn std::fmt::Display| format!("{text}: {e}");
    if !t.is_on() {
        return match s.execute(text) {
            Ok(StatementResult::Rows { rows, .. }) => Ok(rows),
            Ok(other) => Err(format!("{text}: unexpected result {other:?}")),
            Err(e) => Err(err(&e)),
        };
    }
    let stmt = t
        .span("relational.parse", |_| sql::parse(text))
        .map_err(|e| err(&e))?;
    let Statement::Select {
        table,
        columns,
        filter,
    } = stmt
    else {
        return Err(format!("{text}: not a SELECT"));
    };
    let snap = t.span("core.snapshot", |_| s.snapshot());
    let out = t
        .span("relational.select", |_| {
            sql::select(snap.database(), &table, &columns, filter.as_ref())
        })
        .map_err(|e| err(&e))?;
    match out {
        sql::SqlOutcome::Rows { rows, .. } => Ok(rows),
        other => Err(format!("{text}: unexpected outcome {other:?}")),
    }
}

/// Output check shared by all corpora: the static analysis of the
/// installed trigger program reports no soundness error.
pub fn check_analysis(s: &Session, out: &mut Outcome) {
    match s.execute("ANALYZE TRIGGERS") {
        Ok(StatementResult::Analysis(a)) => out.check(a.errors == 0, || {
            format!(
                "ANALYZE TRIGGERS: {} soundness errors\n{}",
                a.errors, a.text
            )
        }),
        other => out.check(false, || format!("ANALYZE TRIGGERS returned {other:?}")),
    }
}

/// Trigger-translation getters after set-up.
pub fn put_setup_counters(s: &Session, r: &mut Report) {
    let q = s.quark();
    r.put("core.translations", "count", q.translations() as f64);
    r.put(
        "core.compile_cache_hits",
        "count",
        q.compile_cache_hits() as f64,
    );
    r.put("core.sql_triggers", "count", q.sql_trigger_count() as f64);
}

/// What the measured loop issued, for the per-operation ratios.
#[derive(Default, Clone, Copy)]
pub struct Issued {
    /// Operations of every type (a pipelined burst counts each row).
    pub ops: u64,
    /// Keyed UPDATEs.
    pub updates: u64,
    /// Data-change statements of every kind.
    pub writes: u64,
    /// SELECTs and the rows they returned.
    pub selects: u64,
    pub select_rows: u64,
    /// Rows the trigger actions added.
    pub action_rows: u64,
}

impl Issued {
    pub fn merge(&mut self, o: Issued) {
        self.ops += o.ops;
        self.updates += o.updates;
        self.writes += o.writes;
        self.selects += o.selects;
        self.select_rows += o.select_rows;
        self.action_rows += o.action_rows;
    }
}

/// Counter deltas over the measured loop, divided by what it issued.
pub fn put_counters(r: &mut Report, a: &Stats, b: &Stats, n: &Issued) {
    let d = |f: fn(&Stats) -> u64| (f(b) - f(a)) as f64;
    let ops = n.ops as f64;
    let updates = n.updates as f64;
    let writes = n.writes as f64;
    let commits = d(|s| s.statements);
    r.put(
        "relational.index_probes_per_op",
        "count",
        ratio(d(|s| s.index_probes), ops),
    );
    r.put(
        "relational.rows_scanned_per_op",
        "count",
        ratio(d(|s| s.rows_scanned), ops),
    );
    r.put(
        "relational.build_cache_hits_per_op",
        "count",
        ratio(d(|s| s.build_cache_hits), ops),
    );
    r.put(
        "relational.sql_fired_per_update",
        "count",
        ratio(d(|s| s.triggers_fired), updates),
    );
    r.put(
        "core.action_rows_per_update",
        "count",
        ratio(n.action_rows as f64, updates),
    );
    r.put(
        "relational.rows_returned_per_select",
        "count",
        ratio(n.select_rows as f64, n.selects as f64),
    );
    r.put(
        "core.latch_conflicts_per_write",
        "count",
        ratio(d(|s| s.latch_conflicts), writes),
    );
    r.put(
        "core.latch_waits_per_write",
        "count",
        ratio(d(|s| s.latch_waits), writes),
    );
    r.put(
        "core.latch_shared_per_write",
        "count",
        ratio(d(|s| s.latch_shared_acquisitions), writes),
    );
    r.put(
        "core.latch_exclusive_per_write",
        "count",
        ratio(d(|s| s.latch_exclusive_acquisitions), writes),
    );
    r.put(
        "storage.fsyncs_per_commit",
        "count",
        ratio(d(|s| s.wal_fsyncs), commits),
    );
    r.put(
        "storage.commits_per_fsync",
        "count",
        ratio(commits, d(|s| s.group_commit_batches)),
    );
    r.put(
        "storage.checkpoints_per_kstmt",
        "count",
        ratio(1000.0 * d(|s| s.checkpoints), commits),
    );
    r.put(
        "storage.wal_bytes_per_stmt",
        "B",
        ratio(d(|s| s.wal_bytes_written), commits),
    );
    r.put("storage.pages_evicted", "count", d(|s| s.pages_evicted));
    r.put(
        "server.stmts_per_pipelined_batch",
        "count",
        ratio(d(|s| s.batched_statements), d(|s| s.pipelined_batches)),
    );
    r.put(
        "server.backpressure_stalls",
        "count",
        d(|s| s.backpressure_stalls),
    );
    r.put("server.frames_rejected", "count", d(|s| s.frames_rejected));
}
