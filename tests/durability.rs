//! Durability & recovery: crash-and-reopen round trips through the
//! `quark-storage` engine, checked differentially against an in-memory
//! session executing the byte-identical statement stream.
//!
//! The contract under test (see README "Durability & recovery"): a
//! recovered system is identical to the crashed one *at its last
//! committed statement boundary* — tables, views, trigger groups and the
//! compile cache all come back, trigger groups re-arm with **zero**
//! re-translations, and a torn or corrupt WAL tail costs exactly the
//! statements whose commit records it destroyed, never more.
//!
//! Dropping a durable session without `close()` is crash-equivalent (no
//! final checkpoint runs), so `drop` + reopen simulates `kill -9` for
//! everything above the OS page cache.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use common::{all_modes, Log};
use proptest::prelude::*;
use quark_core::relational::{Database, Value};
use quark_core::storage::SyncMode;
use quark_core::{Mode, Session, SessionPool, StatementResult};

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::AtomicU64;
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("quark-durability-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The Figure-2 schema and data, as statements (both the durable session
/// and the in-memory oracle execute exactly this text).
const SETUP: &[&str] = &[
    "CREATE TABLE product (pid TEXT PRIMARY KEY, pname TEXT, mfr TEXT)",
    "CREATE TABLE vendor (vid TEXT, pid TEXT, price DOUBLE, \
     PRIMARY KEY (vid, pid))",
    "INSERT INTO product VALUES ('P1', 'CRT 15', 'Samsung'), \
     ('P2', 'LCD 19', 'LG'), ('P3', 'OLED 42', 'LG')",
    "INSERT INTO vendor VALUES ('Amazon', 'P1', 100.0), \
     ('Bestbuy', 'P1', 120.0), ('Amazon', 'P2', 250.0), \
     ('Buy.com', 'P2', 240.0), ('Bestbuy', 'P3', 899.0)",
];

/// The paper's Figure-3 view, through the XQuery frontend.
const CATALOG_VIEW: &str = r#"
    create view catalog as {
      <catalog>{
        for $prodname in distinct(view("default")/product/row/pname)
        let $products := view("default")/product/row[./pname = $prodname]
        let $vendors := view("default")/vendor/row[./pid = $products/pid]
        where count($vendors) >= 2
        return <product name={$prodname}>
          { for $vendor in $vendors return <vendor>{$vendor/*}</vendor> }
        </product>
      }</catalog>
    }"#;

const TRIGGERS: &[&str] = &[
    "CREATE TRIGGER NotifyP1 AFTER Update ON view('catalog')/product \
     WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)",
    "CREATE TRIGGER NotifyGone AFTER Delete ON view('catalog')/product \
     DO notify(OLD_NODE)",
];

/// Register the recording `notify` action **with a declared (empty) write
/// set**, so trigger-bearing DML stays on the footprint-latched path —
/// the path whose commit point is the WAL. Action closures are
/// process-local and must be re-registered after every reopen.
fn arm(session: &Session, log: &Log) {
    let sink = log.clone();
    session
        .register_action_with_writes("notify", Vec::<String>::new(), move |_db, call| {
            sink.0
                .lock()
                .unwrap()
                .push((call.trigger.clone(), call.params.clone()));
            Ok(())
        })
        .expect("register notify");
}

/// Full setup on a fresh session: schema, data, view, action, triggers.
fn install(session: &Session, log: &Log) {
    for s in SETUP {
        session.execute(s).expect("setup");
    }
    session.execute(CATALOG_VIEW).expect("create view");
    arm(session, log);
    for t in TRIGGERS {
        session.execute(t).expect("create trigger");
    }
}

/// Canonical observable state: both base tables (primary-key order) and
/// the materialized view anchor (canonical key order).
fn dump(session: &Session) -> Vec<StatementResult> {
    [
        "SELECT * FROM product",
        "SELECT * FROM vendor",
        "MATERIALIZE view('catalog')/product",
    ]
    .iter()
    .map(|s| session.execute(s).expect("dump"))
    .collect()
}

/// Rendered firings, comparable across systems. Sorted: relative order
/// *across distinct triggers* on one statement is not a contract (the
/// differential-oracle suite compares sets for the same reason), and a
/// recovered system re-arms triggers in signature order, not creation
/// order.
fn firings(log: &Log) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = log
        .take()
        .into_iter()
        .map(|(t, params)| (t, params.iter().map(|p| p.to_string()).collect()))
        .collect();
    out.sort();
    out
}

fn open(dir: &Path, mode: Mode, sync: SyncMode) -> Session {
    quark_xquery::open_session_with(dir, mode, sync).expect("open durable session")
}

/// Warm restart: everything comes back — tables, the view, both triggers,
/// the compile cache — and nothing is re-translated.
#[test]
fn warm_restart_recovers_everything_without_retranslation() {
    for mode in all_modes() {
        let dir = tmp_dir("warm");
        let log = Log::default();
        let session = open(&dir, mode, SyncMode::Always);
        install(&session, &log);
        session
            .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
            .expect("update");
        assert_eq!(log.len(), 1, "{mode:?}: trigger fires before restart");
        assert!(
            session.quark().translations() > 0,
            "{mode:?}: cold open must translate"
        );
        let before = dump(&session);
        session.close().expect("clean close");

        let log = Log::default();
        let session = open(&dir, mode, SyncMode::Always);
        assert_eq!(
            session.quark().translations(),
            0,
            "{mode:?}: warm restart must not re-translate"
        );
        arm(&session, &log);
        assert_eq!(dump(&session), before, "{mode:?}: recovered state differs");

        // The re-armed trigger still fires on the same shape of change.
        session
            .execute("UPDATE vendor SET price = 60.0 WHERE vid = 'Amazon' AND pid = 'P1'")
            .expect("post-restart update");
        assert_eq!(log.len(), 1, "{mode:?}: re-armed trigger must fire");

        // The compile cache came back warm too: a structurally identical
        // new trigger costs zero translations.
        session
            .execute(
                "CREATE TRIGGER NotifyP3 AFTER Update ON view('catalog')/product \
                 WHERE OLD_NODE/@name = 'OLED 42' DO notify(NEW_NODE)",
            )
            .expect("new trigger");
        assert_eq!(
            session.quark().translations(),
            0,
            "{mode:?}: persisted compile cache must absorb the new trigger"
        );
        session.close().expect("close");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash (drop without `close`) after a committed statement stream: the
/// recovered system is differentially identical to an in-memory session
/// that executed the same text — in every translation mode.
#[test]
fn crashed_session_recovers_to_last_committed_boundary() {
    let stream = [
        "UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'",
        "INSERT INTO vendor VALUES ('Circuitcity', 'P3', 850.0)",
        "DELETE FROM vendor WHERE vid = 'Bestbuy' AND pid = 'P1'",
        "UPDATE product SET pname = 'CRT 17' WHERE pid = 'P1'",
        "INSERT INTO product VALUES ('P4', 'Plasma 50', 'LG')",
    ];
    for mode in all_modes() {
        let dir = tmp_dir("crash");
        let oracle = quark_xquery::session(Database::new(), mode);
        let oracle_log = Log::default();
        install(&oracle, &oracle_log);

        let log = Log::default();
        let session = open(&dir, mode, SyncMode::Always);
        install(&session, &log);
        for s in &stream {
            let a = session.execute(s).expect("durable");
            let b = oracle.execute(s).expect("oracle");
            assert_eq!(a, b, "{mode:?}: result mismatch on `{s}`");
        }
        assert_eq!(firings(&log), firings(&oracle_log), "{mode:?}: firings");
        drop(session); // crash: no close, no final checkpoint

        let session = open(&dir, mode, SyncMode::Always);
        assert_eq!(
            dump(&session),
            dump(&oracle),
            "{mode:?}: recovered state differs from committed stream"
        );
        assert_eq!(session.quark().translations(), 0, "{mode:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A panic in the middle of a trigger cascade: the panicking statement
/// never reaches its commit record, so recovery lands exactly on the
/// boundary *before* it — partial in-memory effects are not durable.
#[test]
fn mid_cascade_panic_loses_only_the_panicking_statement() {
    let dir = tmp_dir("panic");
    let panic_flag = Arc::new(AtomicBool::new(false));
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    for s in SETUP {
        session.execute(s).expect("setup");
    }
    session.execute(CATALOG_VIEW).expect("view");
    let flag = Arc::clone(&panic_flag);
    session
        .register_action_with_writes("notify", Vec::<String>::new(), move |_db, _call| {
            if flag.load(Ordering::SeqCst) {
                panic!("injected mid-cascade crash");
            }
            Ok(())
        })
        .expect("register");
    session.execute(TRIGGERS[0]).expect("trigger");

    // One committed boundary...
    session
        .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
        .expect("committed update");
    let committed = dump(&session);

    // ...then a statement whose cascade dies half-way through.
    panic_flag.store(true, Ordering::SeqCst);
    let victim = session.fork();
    let crashed = thread::spawn(move || {
        victim
            .execute("UPDATE vendor SET price = 50.0 WHERE vid = 'Amazon' AND pid = 'P1'")
            .expect("unreachable: cascade panics first");
    })
    .join();
    assert!(crashed.is_err(), "injected panic must propagate");
    drop(session); // crash the process state too: no checkpoint

    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    assert_eq!(
        dump(&session),
        committed,
        "recovery must land on the boundary before the panicking statement"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A multi-row `INSERT` whose last row collides with its first is all or
/// nothing: no row stays live, nothing reaches the WAL, the trigger its
/// first row would fire stays silent, and a crash recovers no row of it.
#[test]
fn failed_multi_row_insert_leaves_nothing_live_or_recovered() {
    let dir = tmp_dir("insert");
    let log = Log::default();
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    install(&session, &log);
    let before = dump(&session);
    let wal_before = session.quark().stats().wal_bytes_written;
    // Alone, ('Newegg', 'P1') would add a vendor to 'CRT 15' and fire
    // NotifyP1.
    let err = session
        .execute(
            "INSERT INTO vendor VALUES ('Newegg', 'P1', 1.0), \
             ('Circuitcity', 'P3', 850.0), ('Newegg', 'P1', 2.0)",
        )
        .expect_err("duplicate key");
    assert!(err.to_string().contains("duplicate"), "{err}");
    assert_eq!(dump(&session), before, "no row stays live");
    assert!(log.is_empty(), "no trigger fired");
    assert_eq!(
        session.quark().stats().wal_bytes_written,
        wal_before,
        "nothing logged"
    );
    drop(session); // crash

    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    assert_eq!(dump(&session), before, "no row recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

fn newest_wal_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .expect("wal dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

/// A way of damaging the WAL tail in place.
type Mutilation = fn(&mut Vec<u8>);

/// A torn (truncated) or corrupt (bit-flipped) WAL tail costs exactly the
/// statement whose records it destroyed; everything before it survives,
/// and the recovered system keeps accepting writes.
#[test]
fn torn_or_corrupt_wal_tail_discards_only_the_damaged_statement() {
    let mutilations: [(&str, Mutilation); 2] = [
        ("torn", |data| {
            let n = data.len() - 5;
            data.truncate(n);
        }),
        ("corrupt", |data| {
            let n = data.len() - 1;
            data[n] ^= 0x40;
        }),
    ];
    let updates = [
        "UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'",
        "UPDATE vendor SET price = 76.0 WHERE vid = 'Bestbuy' AND pid = 'P1'",
        "UPDATE vendor SET price = 77.0 WHERE vid = 'Amazon' AND pid = 'P2'",
    ];
    for (tag, mutilate) in mutilations {
        let dir = tmp_dir(tag);
        let log = Log::default();
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        install(&session, &log);
        // Three latched statements land in the WAL after the last
        // checkpoint (trigger DDL checkpoints and truncates the log).
        for s in &updates {
            session.execute(s).expect("update");
        }
        drop(session); // crash

        let seg = newest_wal_segment(&dir);
        let mut data = std::fs::read(&seg).expect("read segment");
        mutilate(&mut data);
        std::fs::write(&seg, &data).expect("write back");

        // Oracle: the same stream minus the destroyed final statement.
        let oracle = quark_xquery::session(Database::new(), Mode::Grouped);
        install(&oracle, &Log::default());
        for s in &updates[..updates.len() - 1] {
            oracle.execute(s).expect("oracle update");
        }

        let log = Log::default();
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        arm(&session, &log);
        assert_eq!(
            dump(&session),
            dump(&oracle),
            "{tag}: recovery must keep every undamaged statement"
        );

        // The recovered log accepts and persists new commits.
        session.execute(updates[2]).expect("re-apply");
        oracle.execute(updates[2]).expect("oracle re-apply");
        session.close().expect("close");
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        assert_eq!(dump(&session), dump(&oracle), "{tag}: post-recovery write");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `STATS` through the front door: sorted counter rows, including the
/// storage counters — and, with `SyncMode::Always`, proof that commits
/// actually fsync.
#[test]
fn stats_statement_reports_storage_counters() {
    let dir = tmp_dir("stats");
    let log = Log::default();
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    install(&session, &log);
    session
        .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
        .expect("update");

    let StatementResult::Rows { columns, rows } = session.execute("STATS").expect("stats") else {
        panic!("STATS must return rows");
    };
    assert_eq!(columns, ["counter", "value"]);
    let names: Vec<String> = rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.to_string(),
            other => panic!("counter name must be a string, got {other:?}"),
        })
        .collect();
    assert!(
        names.windows(2).all(|w| w[0] < w[1]),
        "counters must be sorted: {names:?}"
    );
    let get = |name: &str| -> i64 {
        let i = names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("missing counter `{name}` in {names:?}"));
        match rows[i][1] {
            Value::Int(v) => v,
            ref other => panic!("counter value must be an int, got {other:?}"),
        }
    };
    assert!(get("statements") > 0);
    assert!(get("triggers_fired") > 0);
    assert!(get("checkpoints") > 0, "DDL commits checkpoint");
    assert!(
        get("wal_bytes_written") > 0,
        "latched DML commits to the WAL"
    );
    assert!(get("wal_fsyncs") > 0, "SyncMode::Always must fsync commits");
    assert!(
        get("group_commit_batches") > 0,
        "every durable commit rides some fsync batch"
    );
    assert!(
        get("latch_exclusive_acquisitions") > 0,
        "latched DML takes its write set exclusive"
    );
    assert!(
        get("latch_shared_acquisitions") > 0,
        "the trigger cascade latches its read set shared"
    );
    let _ = get("pages_evicted"); // present even when the pool never fills
    session.close().expect("close");

    // Reopen: recovery time is measured and surfaced.
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    let StatementResult::Rows { rows, .. } = session.execute("STATS").expect("stats") else {
        panic!("STATS must return rows");
    };
    assert!(
        rows.iter().any(|r| r[0] == Value::str("recovery_ms")),
        "recovery_ms must be reported"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group commit at the session layer: concurrent `SyncMode::Always`
/// writers on disjoint tables have their commit records coalesced into
/// shared fsyncs — strictly fewer fsyncs than committed statements — and
/// every acknowledged statement still survives a crash. The `Always`
/// contract is untouched (no ack before its commit record is durable);
/// only the fsync *count* changes.
#[test]
fn concurrent_always_writers_share_fsyncs_and_recover() {
    const WRITERS: usize = 4;
    const STATEMENTS: usize = 50;
    let dir = tmp_dir("group-commit");
    {
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        for t in 0..WRITERS {
            session
                .execute(&format!(
                    "CREATE TABLE gc{t} (id INT PRIMARY KEY, payload TEXT)"
                ))
                .expect("create shard table");
        }
        let fsyncs_before = session.quark().stats().wal_fsyncs;
        let pool = SessionPool::new(session);
        let barrier = Arc::new(Barrier::new(WRITERS));
        let threads: Vec<_> = (0..WRITERS)
            .map(|t| {
                let session = pool.session();
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    for i in 0..STATEMENTS {
                        session
                            .execute(&format!("INSERT INTO gc{t} VALUES ({i}, 'p{i}')"))
                            .expect("durable insert");
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().expect("writer thread");
        }
        let session = pool.session();
        let stats = session.quark().stats();
        let committed = (WRITERS * STATEMENTS) as u64;
        assert!(
            stats.wal_fsyncs - fsyncs_before < committed,
            "group commit must coalesce: {} fsyncs for {committed} commits",
            stats.wal_fsyncs - fsyncs_before
        );
        assert!(
            stats.group_commit_batches >= 1,
            "at least one commit batch must be recorded: {stats:?}"
        );
        assert!(
            stats.group_commit_batches <= stats.wal_fsyncs,
            "every batch costs exactly one fsync: {stats:?}"
        );
        // Crash: drop every handle without `close()`.
    }

    // Recovery: every acknowledged statement is on disk.
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    for t in 0..WRITERS {
        let StatementResult::Rows { rows, .. } = session
            .execute(&format!("SELECT id FROM gc{t}"))
            .expect("select after recovery")
        else {
            panic!("expected rows");
        };
        assert_eq!(
            rows.len(),
            STATEMENTS,
            "table gc{t} lost acknowledged inserts across the crash"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- randomized recovery at every statement boundary --------------------

const VIDS: [&str; 3] = ["Amazon", "Bestbuy", "Buy.com"];
const PIDS: [&str; 3] = ["P1", "P2", "P3"];
const NAMES: [&str; 4] = ["CRT 15", "LCD 19", "OLED 42", "Plasma 50"];

/// A randomized, always-applicable operation (a subset of the
/// differential-oracle alphabet).
#[derive(Debug, Clone)]
enum Op {
    /// Set vendor (vid, pid) to price — insert or update as needed.
    SetVendor(usize, usize, u32),
    /// Remove vendor (vid, pid) if present.
    DropVendor(usize, usize),
    /// Rename product pid (cycling through a name pool).
    Rename(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..3usize, 0..3usize, 1..400u32).prop_map(|(v, p, c)| Op::SetVendor(v, p, c)),
        (0..3usize, 0..3usize).prop_map(|(v, p)| Op::DropVendor(v, p)),
        (0..3usize, 0..4usize).prop_map(|(p, n)| Op::Rename(p, n)),
    ]
}

/// Render an op as one SQL statement, decided against the current oracle
/// state (identical to the durable session's state at this point).
fn statement_for(db: &Database, op: &Op) -> String {
    match op {
        Op::SetVendor(v, p, cents) => {
            let (vid, pid) = (VIDS[*v], PIDS[*p]);
            let price = *cents as f64 / 2.0;
            let key = [Value::str(vid), Value::str(pid)];
            if db.table("vendor").expect("vendor").get(&key).is_some() {
                format!(
                    "UPDATE vendor SET price = {price:?} \
                     WHERE vid = '{vid}' AND pid = '{pid}'"
                )
            } else {
                format!("INSERT INTO vendor VALUES ('{vid}', '{pid}', {price:?})")
            }
        }
        Op::DropVendor(v, p) => format!(
            "DELETE FROM vendor WHERE vid = '{}' AND pid = '{}'",
            VIDS[*v], PIDS[*p]
        ),
        Op::Rename(p, n) => format!(
            "UPDATE product SET pname = '{}' WHERE pid = '{}'",
            NAMES[*n], PIDS[*p]
        ),
    }
}

proptest! {
    // Deterministic in CI; sweep PROPTEST_SEED manually for wider hunts.
    #![proptest_config(ProptestConfig {
        cases: 6,
        rng_seed: Some(0x1cde_2005_0007),
        ..ProptestConfig::default()
    })]

    /// Crash-and-recover after **every** statement of a random stream, in
    /// every translation mode: each recovered prefix is differentially
    /// identical to the in-memory oracle, firings included, and the
    /// recovered session keeps executing the rest of the stream.
    #[test]
    fn recovery_lands_on_every_statement_boundary(
        ops in proptest::collection::vec(op_strategy(), 1..7)
    ) {
        for mode in all_modes() {
            let dir = tmp_dir("prop");
            let oracle = quark_xquery::session(Database::new(), mode);
            let oracle_log = Log::default();
            install(&oracle, &oracle_log);

            let mut log = Log::default();
            let mut session = open(&dir, mode, SyncMode::Never);
            install(&session, &log);

            for op in &ops {
                let stmt = statement_for(&oracle.database(), op);
                let a = session.execute(&stmt).expect("durable");
                let b = oracle.execute(&stmt).expect("oracle");
                prop_assert_eq!(a, b, "{:?}: result mismatch on `{}`", mode, &stmt);
                prop_assert_eq!(firings(&log), firings(&oracle_log),
                    "{:?}: firings diverge on `{}`", mode, &stmt);

                // Crash here and recover: this boundary must be durable
                // (no fsync needed for an in-process crash — the bytes
                // reached the OS).
                drop(session);
                session = open(&dir, mode, SyncMode::Never);
                prop_assert_eq!(session.quark().translations(), 0);
                log = Log::default();
                arm(&session, &log);
                prop_assert_eq!(dump(&session), dump(&oracle),
                    "{:?}: recovered prefix differs after `{}`", mode, &stmt);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
