//! `wire-durable`: the only workload that runs the server and storage
//! layers. The README Figure-3 catalog view over a durable session with
//! `SyncMode::Always` is served by `quark-server` (2 workers) to 2 client
//! connections: 58 % keyed vendor UPDATEs, 30 % keyed product SELECTs,
//! 10 % pipelined 16-row INSERT bursts, and 2 % UPDATEs of a small table
//! whose trigger action is opaque, so those statements take the global
//! path with a full checkpoint. After the loop, crash/reopen cycles
//! measure warm restart and check that every acknowledged write survived.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use quark_core::relational::Value;
use quark_core::storage::SyncMode;
use quark_core::{Mode, Session, SessionPool};
use quark_server::{Client, Server, ServerConfig, WireResult};

use crate::engine::{self, Issued};
use crate::report::{self, ratio};
use crate::rng::{Deck, Rng};
use crate::trace::{self, Analysis, Blocks, Span, Tracer};
use crate::{Args, Outcome};

const CLIENTS: usize = 2;
const VENDORS: u64 = 5;
const BURST: usize = 16;
/// Rows of the small table with the opaque trigger, per client.
const FLAGS_PER_CLIENT: u64 = 4;

struct Size {
    products: u64,
    /// `notify` triggers; product p belongs to the element named
    /// `N{p % triggers}`, which exactly one trigger watches.
    triggers: u64,
    setups: usize,
    /// Client operations per second of `--seconds`, both clients together.
    rate: u64,
    /// Crash/reopen cycles after the loop; `restart_ms` is their median.
    cycles: usize,
    /// UPDATEs logged between reopening and the next crash.
    wal_growth: u64,
}

const FULL: Size = Size {
    products: 2000,
    triggers: 200,
    setups: 7,
    rate: 400,
    cycles: 7,
    wal_growth: 400,
};

const SMOKE: Size = Size {
    products: 100,
    triggers: 10,
    setups: 2,
    rate: 40,
    cycles: 2,
    wal_growth: 20,
};

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

/// The same shape over the small `fgroup`/`flag` tables.
const FLAGS_VIEW: &str = r#"
    create view flags as {
      <flags>{
        for $gname in distinct(view("default")/fgroup/row/name)
        let $groups := view("default")/fgroup/row[./name = $gname]
        let $flags := view("default")/flag/row[./gid = $groups/gid]
        where count($flags) >= 2
        return <group name={$gname}>
          { for $f in $flags return <flag>{$f/*}</flag> }
        </group>
      }</flags>
    }"#;

/// A data directory removed when dropped, on success and error alike.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Action-call counters, shared by every registration of the actions.
#[derive(Default)]
struct Calls {
    notify: AtomicU64,
    audit: AtomicU64,
}

/// Register the corpus's actions: `notify` declares its (empty) write set
/// and stays on the latched path; `audit` is opaque.
fn register_actions(s: &Session, calls: &Arc<Calls>) -> Result<(), String> {
    let c = Arc::clone(calls);
    s.register_action_with_writes("notify", Vec::<String>::new(), move |_, _| {
        c.notify.fetch_add(1, Ordering::Relaxed);
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    let c = Arc::clone(calls);
    s.register_action("audit", move |_, _| {
        c.audit.fetch_add(1, Ordering::Relaxed);
        Ok(())
    })
    .map_err(|e| e.to_string())
}

fn open(dir: &Path) -> Result<Session, String> {
    quark_xquery::open_session_with(dir, Mode::Grouped, SyncMode::Always).map_err(|e| e.to_string())
}

fn build(size: &Size, dir: &Path, calls: &Arc<Calls>, t: &mut Tracer) -> Result<Session, String> {
    let _ = std::fs::remove_dir_all(dir);
    let session = open(dir)?;
    let exec = |text: &str| {
        session
            .execute(text)
            .map(drop)
            .map_err(|e| format!("{text}: {e}"))
    };
    exec("CREATE TABLE product (pid TEXT PRIMARY KEY, pname TEXT, mfr TEXT)")?;
    exec("CREATE TABLE vendor (vid TEXT, pid TEXT, price DOUBLE, PRIMARY KEY (vid, pid))")?;
    exec("CREATE INDEX ON product (pname)")?;
    exec("CREATE INDEX ON vendor (pid)")?;
    exec("CREATE TABLE fgroup (gid TEXT PRIMARY KEY, name TEXT)")?;
    exec("CREATE TABLE flag (fid TEXT PRIMARY KEY, gid TEXT, val DOUBLE)")?;
    for c in 0..CLIENTS {
        exec(&format!(
            "CREATE TABLE ingest{c} (id INT PRIMARY KEY, payload TEXT)"
        ))?;
    }
    let products = (0..size.products)
        .map(|p| {
            vec![
                Value::str(format!("P{p}")),
                Value::str(format!("N{}", p % size.triggers)),
                Value::str(format!("M{}", p % 7)),
            ]
        })
        .collect();
    let vendors = (0..size.products)
        .flat_map(|p| {
            (0..VENDORS).map(move |v| {
                vec![
                    Value::str(format!("V{v}")),
                    Value::str(format!("P{p}")),
                    Value::Double(10.0 + v as f64),
                ]
            })
        })
        .collect();
    let flags = (0..CLIENTS as u64 * FLAGS_PER_CLIENT)
        .map(|f| {
            vec![
                Value::str(format!("F{f}")),
                Value::str("g0"),
                Value::Double(0.0),
            ]
        })
        .collect();
    for (table, rows) in [
        ("product", products),
        ("vendor", vendors),
        ("flag", flags),
        ("fgroup", vec![vec![Value::str("g0"), Value::str("G0")]]),
    ] {
        t.span("relational.load", |_| {
            session.database_mut().load(table, rows)
        })
        .map_err(|e| format!("load {table}: {e}"))?;
    }
    exec(CATALOG_VIEW)?;
    exec(FLAGS_VIEW)?;
    register_actions(&session, calls)?;
    for k in 0..size.triggers {
        engine::create_trigger(
            &session,
            t,
            &format!(
                "CREATE TRIGGER T{k} AFTER Update ON view('catalog')/product \
                 WHERE OLD_NODE/@name = 'N{k}' DO notify(NEW_NODE)"
            ),
        )?;
    }
    engine::create_trigger(
        &session,
        t,
        "CREATE TRIGGER FlagAudit AFTER Update ON view('flags')/group \
         WHERE OLD_NODE/@name = 'G0' DO audit(NEW_NODE)",
    )?;
    Ok(session)
}

/// Last acknowledged value of every written key, per table.
#[derive(Default)]
struct Acks {
    /// (vendor, product) → price.
    vendor: HashMap<(u64, u64), f64>,
    /// flag number → value.
    flag: HashMap<u64, f64>,
    /// Acknowledged rows per ingest table.
    ingest: [u64; CLIENTS],
}

/// What one client thread measured.
#[derive(Default)]
struct ClientRun {
    update_us: Vec<f64>,
    select_us: Vec<f64>,
    burst_us: Vec<f64>,
    blocks: Blocks,
    issued: Issued,
    /// Statements after the warm-up.
    timed_ops: u64,
    failed: u64,
    flag_updates: u64,
    acks: Acks,
    spans: Vec<Span>,
}

#[derive(Clone, Copy)]
enum Kind {
    Vendor,
    Select,
    Burst,
    Flag,
}

/// Per 50 operations: 58 % vendor UPDATEs, 30 % SELECTs, 10 % bursts,
/// 2 % flag UPDATEs.
const MIX: [(Kind, usize); 4] = [
    (Kind::Vendor, 29),
    (Kind::Select, 15),
    (Kind::Burst, 5),
    (Kind::Flag, 1),
];

/// One client operation, generated before it is timed.
enum Op {
    /// Keyed vendor UPDATE: product, vendor, new price.
    Vendor(u64, u64, f64),
    /// Keyed product SELECT.
    Select(u64),
    /// Pipelined INSERT burst into the client's ingest table.
    Burst(Vec<String>),
    /// UPDATE of a row of the small table behind the opaque trigger.
    Flag(u64, f64),
}

fn vendor_update(p: u64, v: u64, price: f64) -> String {
    format!("UPDATE vendor SET price = {price:?} WHERE vid = 'V{v}' AND pid = 'P{p}'")
}

fn product_select(p: u64) -> String {
    format!("SELECT pname FROM product WHERE pid = 'P{p}'")
}

/// Client `me`'s statement stream. Client `me` writes only its own
/// products, flags and ingest rows, so the last acknowledged value of
/// every key is well defined.
struct Gen {
    rng: Rng,
    mix: Deck<Kind>,
    me: u64,
    products: u64,
    seq: u64,
    next_row: u64,
}

impl Gen {
    fn own_product(&mut self) -> u64 {
        self.rng.below(self.products / CLIENTS as u64) * CLIENTS as u64 + self.me
    }

    /// A price no other statement of the run writes.
    fn price(&mut self) -> f64 {
        self.seq += 1;
        1000.0 + (self.seq * CLIENTS as u64 + self.me) as f64 * 0.25
    }

    fn vendor(&mut self) -> Op {
        let p = self.own_product();
        let v = self.rng.below(VENDORS);
        Op::Vendor(p, v, self.price())
    }

    fn select(&mut self) -> Op {
        Op::Select(self.rng.below(self.products))
    }

    fn next(&mut self) -> Op {
        match self.mix.deal(&mut self.rng) {
            Kind::Vendor => self.vendor(),
            Kind::Select => self.select(),
            Kind::Burst => self.burst(),
            Kind::Flag => {
                let f = self.rng.below(FLAGS_PER_CLIENT) + self.me * FLAGS_PER_CLIENT;
                Op::Flag(f, self.price())
            }
        }
    }

    fn burst(&mut self) -> Op {
        let me = self.me;
        let first = self.next_row;
        self.next_row += BURST as u64;
        Op::Burst(
            (first..self.next_row)
                .map(|id| {
                    let tag = self.rng.next_u64();
                    format!("INSERT INTO ingest{me} VALUES ({id}, 'payload-{me}-{id}-{tag:016x}')")
                })
                .collect(),
        )
    }
}

/// Run `op` over the wire; returns the statements it counts for.
fn wire_op(
    op: &Op,
    conn: &mut Client,
    t: &mut Tracer,
    me: usize,
    size: &Size,
    out: &mut ClientRun,
) -> u64 {
    let started = Instant::now();
    let us = |out: &mut Vec<f64>| out.push(started.elapsed().as_secs_f64() * 1e6);
    match op {
        &Op::Vendor(p, v, x) => {
            let text = vendor_update(p, v, x);
            let res = t.span("server.update", |_| conn.execute(&text));
            us(&mut out.update_us);
            out.issued.updates += 1;
            out.issued.writes += 1;
            match res {
                Ok(WireResult::RowsAffected(1)) => {
                    out.acks.vendor.insert((v, p), x);
                }
                other => out.fail(&text, &other),
            }
            1
        }
        &Op::Select(p) => {
            let text = product_select(p);
            let res = t.span("server.select", |_| conn.execute(&text));
            us(&mut out.select_us);
            out.issued.selects += 1;
            match res {
                Ok(WireResult::Rows { rows, .. }) if one_name(&rows, p, size) => {
                    out.issued.select_rows += 1;
                }
                other => out.fail(&text, &other),
            }
            1
        }
        Op::Burst(texts) => {
            let res = t.span("server.pipelined", |_| {
                conn.execute_pipelined(texts.iter().map(String::as_str))
            });
            us(&mut out.burst_us);
            out.issued.writes += BURST as u64;
            match res {
                Ok(results) => {
                    for r in results {
                        if matches!(r, Ok(WireResult::RowsAffected(1))) {
                            out.acks.ingest[me] += 1;
                        } else {
                            out.fail("ingest burst", &r);
                        }
                    }
                }
                Err(e) => {
                    out.failed += BURST as u64 - 1;
                    out.fail("ingest burst", &e);
                }
            }
            BURST as u64
        }
        &Op::Flag(f, x) => {
            let text = format!("UPDATE flag SET val = {x:?} WHERE fid = 'F{f}'");
            let res = t.span("server.update_global", |_| conn.execute(&text));
            us(&mut out.update_us);
            out.issued.updates += 1;
            out.issued.writes += 1;
            out.flag_updates += 1;
            match res {
                Ok(WireResult::RowsAffected(1)) => {
                    out.acks.flag.insert(f, x);
                }
                other => out.fail(&text, &other),
            }
            1
        }
    }
}

/// Run a vendor UPDATE or product SELECT in process, on a session of the
/// served pool.
fn local_op(op: &Op, s: &Session, t: &mut Tracer, size: &Size, out: &mut ClientRun) {
    match op {
        &Op::Vendor(p, v, x) => {
            let text = vendor_update(p, v, x);
            out.issued.updates += 1;
            out.issued.writes += 1;
            match engine::write(s, t, &text) {
                Ok(1) => {
                    out.acks.vendor.insert((v, p), x);
                }
                other => out.fail(&text, &other),
            }
        }
        &Op::Select(p) => {
            out.issued.selects += 1;
            match engine::select(s, t, &product_select(p)) {
                Ok(rows) if one_name(&rows, p, size) => out.issued.select_rows += 1,
                other => out.fail(&product_select(p), &other),
            }
        }
        Op::Burst(_) | Op::Flag(..) => unreachable!("probes are UPDATEs and SELECTs"),
    }
}

/// Whether a product SELECT returned exactly the row it should.
fn one_name(rows: &[quark_core::relational::Row], p: u64, size: &Size) -> bool {
    rows.len() == 1
        && rows[0].len() == 1
        && rows[0][0] == Value::str(format!("N{}", p % size.triggers))
}

impl ClientRun {
    fn fail(&mut self, what: &str, got: &dyn std::fmt::Debug) {
        self.failed += 1;
        eprintln!("{what}: {got:?}");
    }
}

#[allow(clippy::too_many_arguments)]
fn client(
    addr: std::net::SocketAddr,
    local: Session,
    me: usize,
    ops: u64,
    size: &Size,
    args: &Args,
    epoch: Instant,
    barrier: &Barrier,
) -> Result<ClientRun, String> {
    let mut out = ClientRun::default();
    let mut conn = match Client::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            // Release the timing thread at the barrier; the run then fails.
            barrier.wait();
            return Err(format!("connect: {e}"));
        }
    };
    let mut t = Tracer::new(epoch, me as u64 + 1, false);
    let mut gen = Gen {
        rng: Rng::new(args.seed, 10 + me as u64),
        mix: Deck::new(&MIX),
        me: me as u64,
        products: size.products,
        seq: 0,
        next_row: 0,
    };
    let warm = crate::warmup(ops);
    for i in 0..warm + ops {
        if i == warm {
            out.update_us.clear();
            out.select_us.clear();
            out.burst_us.clear();
            barrier.wait();
        }
        let timed = i >= warm;
        let traced = timed && Blocks::traced(args.trace, i - warm);
        t.set_on(traced);
        t.request(i);
        let started = Instant::now();
        let mut statements = t.span("op", |t| {
            let op = t.span("bench.gen", |_| gen.next());
            wire_op(&op, &mut conn, t, me, size, &mut out)
        });

        // The traced run adds a probe every fourth operation, in traced and
        // untraced blocks alike: the same statement type over the wire and
        // in process, back to back in alternating order, so the wire's
        // share can be told from the engine's time.
        if args.trace && timed && i % 4 == 0 {
            t.request(ops + i);
            t.span("probe", |t| {
                // Two statements of one type: repeating one UPDATE would
                // make the second a no-op that fires nothing.
                let (wire, here) = if i % 8 == 0 {
                    (gen.vendor(), gen.vendor())
                } else {
                    (gen.select(), gen.select())
                };
                if i % 16 < 8 {
                    wire_op(&wire, &mut conn, t, me, size, &mut out);
                    local_op(&here, &local, t, size, &mut out);
                } else {
                    local_op(&here, &local, t, size, &mut out);
                    wire_op(&wire, &mut conn, t, me, size, &mut out);
                }
            });
            statements += 2;
        }
        out.issued.ops += statements;
        if timed {
            out.timed_ops += statements;
            out.blocks
                .add(traced, statements, started.elapsed().as_secs_f64());
        }
    }
    out.spans = t.into_spans();
    Ok(out)
}

/// Bytes of all files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// User payload: 8 bytes per number, the length of every string, over
/// every row of the user tables.
fn payload_bytes(s: &Session) -> u64 {
    let db = s.database();
    let mut tables = vec!["product", "vendor", "fgroup", "flag"];
    let ingest: Vec<String> = (0..CLIENTS).map(|c| format!("ingest{c}")).collect();
    tables.extend(ingest.iter().map(String::as_str));
    tables
        .iter()
        .filter_map(|t| db.table(t).ok())
        .map(|t| {
            t.iter()
                .flat_map(|row| row.iter())
                .map(|v| match v {
                    Value::Str(s) => s.len() as u64,
                    _ => 8,
                })
                .sum::<u64>()
        })
        .sum()
}

/// Every acknowledged write reads back from `s`.
fn verify(s: &Session, acks: &Acks, out: &mut Outcome, when: &str) {
    let db = s.database();
    let mut lost = 0usize;
    if let Ok(t) = db.table("vendor") {
        let mut live: HashMap<(u64, u64), f64> = HashMap::new();
        for row in t.iter() {
            if let (Value::Str(v), Value::Str(p), Value::Double(x)) = (&row[0], &row[1], &row[2]) {
                if let (Ok(v), Ok(p)) = (v[1..].parse(), p[1..].parse()) {
                    live.insert((v, p), *x);
                }
            }
        }
        lost += acks
            .vendor
            .iter()
            .filter(|(k, x)| live.get(k) != Some(x))
            .count();
    }
    if let Ok(t) = db.table("flag") {
        for row in t.iter() {
            if let (Value::Str(f), Value::Double(x)) = (&row[0], &row[2]) {
                if let Some(want) = f[1..].parse().ok().and_then(|f: u64| acks.flag.get(&f)) {
                    lost += usize::from(want != x);
                }
            }
        }
    }
    for c in 0..CLIENTS {
        let n = db
            .table(&format!("ingest{c}"))
            .map_or(0, |t| t.len() as u64);
        lost += usize::from(n != acks.ingest[c]);
    }
    out.check(lost == 0, || {
        format!("{when}: {lost} acknowledged writes did not read back")
    });
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let size = if args.smoke { &SMOKE } else { &FULL };
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0, false);
    let calls = Arc::new(Calls::default());
    let base = crate::out_dir().join(format!("wire-durable-{}", std::process::id()));
    std::fs::create_dir_all(&base).map_err(|e| format!("{}: {e}", base.display()))?;
    let _cleanup = DataDir(base.clone());

    // Each set-up pass builds a fresh database in its own directory.
    let (pre, post) = crate::setup_passes(args, size.setups);
    let mut setup_times = Vec::new();
    let mut setup = |n: usize, t: &mut Tracer| -> Result<(Session, DataDir), String> {
        let dir = DataDir(base.join(format!("db{n}")));
        let start = Instant::now();
        let session = build(size, &dir.0, &calls, t)?;
        setup_times.push(start.elapsed().as_secs_f64());
        Ok((session, dir))
    };
    let mut built = None;
    for n in 0..pre {
        drop(built.take());
        t.set_on(args.trace);
        built = Some(setup(n, &mut t)?);
    }
    t.set_on(false);
    let (session, dir) = built.expect("at least one set-up");
    engine::put_setup_counters(&session, &mut out.report);
    engine::check_analysis(&session, &mut out);

    // The measured loop: two client connections over the wire.
    let total = if args.smoke {
        200
    } else {
        size.rate * args.seconds
    };
    let per_client = total / CLIENTS as u64;
    let notify_before = calls.notify.load(Ordering::Relaxed);
    let audit_before = calls.audit.load(Ordering::Relaxed);
    let before = engine::stats(&session);
    let server = Server::start(
        SessionPool::new(session),
        "127.0.0.1:0",
        ServerConfig {
            workers: CLIENTS,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    let barrier = Barrier::new(CLIENTS + 1);
    let (runs, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|me| {
                let local = server.session();
                let barrier = &barrier;
                scope.spawn(move || client(addr, local, me, per_client, size, args, epoch, barrier))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<Result<ClientRun, String>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, start.elapsed().as_secs_f64())
    });
    let live = server.session();
    let after = engine::stats(&live);
    drop(live);
    let session = server.shutdown().into_session();

    let mut all = ClientRun::default();
    for run in runs {
        let c = run?;
        all.update_us.extend(c.update_us);
        all.select_us.extend(c.select_us);
        all.burst_us.extend(c.burst_us);
        all.blocks.merge(c.blocks);
        all.issued.merge(c.issued);
        all.timed_ops += c.timed_ops;
        all.failed += c.failed;
        all.flag_updates += c.flag_updates;
        all.acks.vendor.extend(c.acks.vendor);
        all.acks.flag.extend(c.acks.flag);
        for k in 0..CLIENTS {
            all.acks.ingest[k] += c.acks.ingest[k];
        }
        all.spans.extend(c.spans);
    }
    let notified = calls.notify.load(Ordering::Relaxed) - notify_before;
    let audited = calls.audit.load(Ordering::Relaxed) - audit_before;
    let vendor_updates = all.issued.updates - all.flag_updates;
    out.check(notified == vendor_updates, || {
        format!("notify ran {notified} times for {vendor_updates} vendor UPDATEs")
    });
    out.check(audited == all.flag_updates, || {
        format!(
            "audit ran {audited} times for {} flag UPDATEs",
            all.flag_updates
        )
    });
    verify(&session, &all.acks, &mut out, "after the loop");

    let mut checkpoint_ms: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let res = session.quark().checkpoint();
            out.check(res.is_ok(), || format!("checkpoint: {res:?}"));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // Crash/reopen cycles: a fixed number of logged UPDATEs since the last
    // checkpoint, a drop without `close`, then a timed reopen.
    let mut rng = Rng::new(args.seed, 3);
    let mut session = Some(session);
    let mut restart_ms = Vec::new();
    let mut open_ms = Vec::new();
    let mut recovery_ms = Vec::new();
    let mut evicted = Vec::new();
    let mut cycle_writes = 0u64;
    for cycle in 0..size.cycles {
        let s = session.take().expect("session open between cycles");
        for k in 0..size.wal_growth {
            let (prod, v) = (rng.below(size.products), rng.below(VENDORS));
            let x = 5000.0 + (cycle as u64 * size.wal_growth + k) as f64 * 0.25;
            match s.execute(&vendor_update(prod, v, x)) {
                Ok(r) if r.rows_affected() == Some(1) => {
                    all.acks.vendor.insert((v, prod), x);
                }
                other => {
                    out.failed += 1;
                    eprintln!("crash-cycle UPDATE: {other:?}");
                }
            }
            cycle_writes += 1;
        }
        drop(s); // crash: no close, no final checkpoint
        let start = Instant::now();
        let s = open(&dir.0)?;
        open_ms.push(start.elapsed().as_secs_f64() * 1e3);
        register_actions(&s, &calls)?;
        restart_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let q = s.quark();
        out.check(q.translations() == 0, || {
            format!("reopen {cycle}: {} re-translations", q.translations())
        });
        let st = q.stats();
        recovery_ms.push(st.recovery_ms as f64);
        evicted.push(st.pages_evicted as f64);
        drop(q);
        verify(&s, &all.acks, &mut out, &format!("reopen {cycle}"));
        session = Some(s);
    }
    let session = session.expect("session open after the cycles");
    let disk = dir_bytes(&dir.0);
    let payload = payload_bytes(&session);
    drop(session);
    drop(dir);
    for n in pre..pre + post {
        drop(setup(n, &mut t)?);
    }

    out.attempted = all.issued.ops + cycle_writes;
    out.failed += all.failed;
    let r = &mut out.report;
    r.put_n(
        "setup_s",
        "s",
        report::median(&mut setup_times),
        setup_times.len(),
    );
    r.put("ops_per_s", "ops/s", all.timed_ops as f64 / elapsed);
    r.put_latency("update", &mut all.update_us);
    r.put_latency("select", &mut all.select_us);
    report::sort(&mut all.burst_us);
    r.put_n(
        "ingest_rows_per_s",
        "rows/s",
        ratio(BURST as f64, report::percentile(&all.burst_us, 0.5) / 1e6),
        all.burst_us.len(),
    );
    r.put_n(
        "restart_ms",
        "ms",
        report::median(&mut restart_ms),
        restart_ms.len(),
    );
    r.put("space_amp", "ratio", ratio(disk as f64, payload as f64));
    all.issued.action_rows = notified + audited;
    engine::put_counters(r, &before, &after, &all.issued);
    r.put("storage.disk_bytes", "B", disk as f64);
    r.put(
        "storage.pages_evicted",
        "count",
        report::median(&mut evicted),
    );
    r.put_n(
        "storage.checkpoint_ms",
        "ms",
        report::median(&mut checkpoint_ms),
        3,
    );
    r.put_n(
        "storage.open_ms",
        "ms",
        report::median(&mut open_ms),
        size.cycles,
    );
    r.put_n(
        "storage.recovery_ms",
        "ms",
        report::median(&mut recovery_ms),
        size.cycles,
    );
    r.note(format!(
        "corpus products={} vendors/product={VENDORS} triggers={}+1 ops={} \
         flag_updates={} cycles={} wal_growth={} disk_bytes={disk} payload_bytes={payload}",
        size.products,
        size.triggers,
        all.issued.ops,
        all.flag_updates,
        size.cycles,
        size.wal_growth
    ));

    if args.trace {
        let mut spans = t.into_spans();
        spans.append(&mut all.spans);
        let a = trace::finish("wire-durable", spans, r).map_err(|e| e.to_string())?;
        let loaded = size.products * (1 + VENDORS) + CLIENTS as u64 * FLAGS_PER_CLIENT + 1;
        trace::put_common(&a, r, loaded as usize);
        put_wire_layers(&a, r);
        r.put(
            "trace.overhead_frac",
            "fraction",
            all.blocks.overhead_frac(),
        );
    }
    Ok(out)
}

fn put_wire_layers(a: &Analysis, r: &mut report::Report) {
    a.put_p50(r, "core.snapshot_us", "core.snapshot");
    a.put_p50(r, "relational.select_us", "relational.select");
    a.put_p50(r, "server.pipeline_burst_us", "server.pipelined");
    // Per probe: the wire statement minus the same statement type in
    // process (`Session::execute` for an UPDATE; parse + snapshot +
    // select for a SELECT).
    let pairs = [
        (
            "server.update_overhead_us",
            a.p50_combo(&[("server.update", 1.0), ("core.update", -1.0)]),
        ),
        (
            "server.select_overhead_us",
            a.p50_combo(&[
                ("server.select", 1.0),
                ("relational.parse", -1.0),
                ("core.snapshot", -1.0),
                ("relational.select", -1.0),
            ]),
        ),
    ];
    for (metric, v) in pairs {
        if let Some((v, n)) = v {
            r.put_n(metric, "us", v, n);
        }
    }
}
