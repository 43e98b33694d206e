//! `snapshot-oltp`: writes beside reads. Two sessions on two threads each
//! own one shard of the shared-hub shape: 50 % keyed SELECTs and 45 %
//! keyed UPDATEs on their own shard, 5 % UPDATEs on the other shard so the
//! latch manager sees real conflicts. Every keyed SELECT full-scans its
//! shard, and every UPDATE after a read copies the table; trigger firing
//! is a small share.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use quark_core::relational::{Database, Value};
use quark_core::{Mode, Session};
use quark_xquery::{LevelSpec, TopBinding, ViewSpec};

use crate::engine::{self, Issued};
use crate::report;
use crate::rng::{Deck, Rng};
use crate::trace::{self, Blocks, Span, Tracer};
use crate::{Args, Outcome};

const SHARDS: usize = 2;

struct Size {
    /// Rows per shard table.
    rows: usize,
    /// Triggers per shard, all watching the hot hub row.
    triggers: usize,
    setups: usize,
    /// Operations per second of `--seconds`, both threads together.
    rate: u64,
}

const FULL: Size = Size {
    rows: 10_000,
    triggers: 8,
    setups: 25,
    rate: 450,
};

const SMOKE: Size = Size {
    rows: 300,
    triggers: 2,
    setups: 2,
    rate: 30,
};

struct Corpus {
    session: Session,
    /// Rows per shard.
    rows: u64,
    hub_rows: u64,
    /// The hub row the triggers watch; shard rows under it fire them.
    hot: u64,
    setup_s: f64,
    loaded_rows: usize,
}

fn build(size: &Size, seed: u64, t: &mut Tracer) -> Result<Corpus, String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let start = Instant::now();
    let session = quark_xquery::session(Database::new(), Mode::Grouped);
    let hub_rows = (size.rows / 64).max(4);
    let hot = Rng::new(seed, 1).below(hub_rows as u64);
    session
        .execute("CREATE TABLE hub (id INT PRIMARY KEY, name TEXT, price DOUBLE)")
        .map_err(|x| e(&x))?;
    let rows = (0..hub_rows)
        .map(|k| {
            vec![
                Value::Int(k as i64),
                Value::str(format!("hub_{k}")),
                Value::Double(10.0),
            ]
        })
        .collect();
    t.span("relational.load", |_| {
        session.database_mut().load("hub", rows)
    })
    .map_err(|x| e(&x))?;

    for h in 0..SHARDS {
        session
            .execute(&format!(
                "CREATE TABLE m{h} (id INT PRIMARY KEY, parent INT, name TEXT, price DOUBLE)"
            ))
            .map_err(|x| e(&x))?;
        session
            .execute(&format!("CREATE INDEX ON m{h} (parent)"))
            .map_err(|x| e(&x))?;
        let rows = (0..size.rows)
            .map(|k| {
                vec![
                    Value::Int(k as i64),
                    Value::Int((k % hub_rows) as i64),
                    Value::str(format!("row_{h}_{k}")),
                    Value::Double(100.0),
                ]
            })
            .collect();
        t.span("relational.load", |_| {
            session.database_mut().load(&format!("m{h}"), rows)
        })
        .map_err(|x| e(&x))?;

        // Shard h's view: hub rows on top, its own rows below. An UPDATE
        // on m{h} reads `hub` and writes m{h} and audit{h}, so the shards
        // overlap only on a read table.
        let view = ViewSpec {
            name: format!("sr{h}"),
            root_element: "doc".into(),
            binding: TopBinding::Rows,
            top: LevelSpec {
                element: "e0".into(),
                table: "hub".into(),
                parent_fk: None,
                attrs: vec![("name".into(), "name".into())],
                scalars: vec![],
                child_count: None,
                child: Some(Box::new(LevelSpec {
                    element: "e1".into(),
                    table: format!("m{h}"),
                    parent_fk: Some("parent".into()),
                    attrs: vec![("name".into(), "name".into())],
                    scalars: vec![("*".into(), "*".into())],
                    child_count: None,
                    child: None,
                })),
            },
        }
        .build(&session.database())
        .map_err(|x| e(&x))?;
        session.quark_mut().register_view(view);

        session
            .execute(&format!(
                "CREATE TABLE audit{h} (seq INT PRIMARY KEY, content TEXT)"
            ))
            .map_err(|x| e(&x))?;
        let seq = Arc::new(AtomicI64::new(0));
        let audit = format!("audit{h}");
        let target = audit.clone();
        session
            .register_action_with_writes(audit.clone(), [audit.clone()], move |db, call| {
                let k = seq.fetch_add(1, Ordering::Relaxed);
                let content = match &call.params[0] {
                    Value::Xml(x) => x.to_xml(),
                    other => other.to_string(),
                };
                db.insert_row(&target, vec![Value::Int(k), Value::str(content)])
            })
            .map_err(|x| e(&x))?;
        for i in 0..size.triggers {
            engine::create_trigger(
                &session,
                t,
                &format!(
                    "create trigger sr{h}_t{i} after update on view('sr{h}')/e0 \
                     where OLD_NODE/@name = 'hub_{hot}' do audit{h}(NEW_NODE)"
                ),
            )?;
        }
    }
    Ok(Corpus {
        session,
        rows: size.rows as u64,
        hub_rows: hub_rows as u64,
        hot,
        setup_s: start.elapsed().as_secs_f64(),
        loaded_rows: hub_rows + SHARDS * size.rows,
    })
}

fn audit_rows(s: &Session, h: usize) -> usize {
    s.database()
        .table(&format!("audit{h}"))
        .map_or(0, |t| t.len())
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Select,
    /// UPDATE on the thread's own shard.
    Own,
    /// UPDATE on the other thread's shard.
    Other,
}

/// Per 20 operations: 50 % SELECTs, 45 % own-shard and 5 % other-shard
/// UPDATEs.
const MIX: [(Kind, usize); 3] = [(Kind::Select, 10), (Kind::Own, 9), (Kind::Other, 1)];

/// What one client thread measured.
#[derive(Default)]
struct Client {
    update_us: Vec<f64>,
    select_us: Vec<f64>,
    blocks: Blocks,
    issued: Issued,
    /// Operations after the warm-up.
    timed_ops: u64,
    failed: u64,
    /// UPDATEs per shard that hit a row under the hot hub row.
    firing: [u64; SHARDS],
    spans: Vec<Span>,
}

fn client(
    c: &Corpus,
    session: Session,
    me: usize,
    ops: u64,
    args: &Args,
    epoch: Instant,
    barrier: &Barrier,
) -> Client {
    let mut out = Client::default();
    let mut t = Tracer::new(epoch, me as u64 + 1, false);
    let mut rng = Rng::new(args.seed, 10 + me as u64);
    let mut mix = Deck::new(&MIX);
    let warm = crate::warmup(ops);
    for i in 0..warm + ops {
        if i == warm {
            barrier.wait();
        }
        let timed = i >= warm;
        let traced = timed && Blocks::traced(args.trace, i - warm);
        t.set_on(traced);
        t.request(i);
        let started = Instant::now();
        t.span("op", |t| {
            let (shard, key, text, is_select) = t.span("bench.gen", |_| {
                let kind = mix.deal(&mut rng);
                let key = rng.below(c.rows);
                if kind == Kind::Select {
                    let text = format!("SELECT name FROM m{me} WHERE id = {key}");
                    (me, key, text, true)
                } else {
                    let shard = if kind == Kind::Own { me } else { 1 - me };
                    // Prices are unique across threads and operations, so
                    // every UPDATE changes its row.
                    let price = 1000.0 + (i * SHARDS as u64 + me as u64) as f64 * 0.25;
                    let text = format!("UPDATE m{shard} SET price = {price:?} WHERE id = {key}");
                    (shard, key, text, false)
                }
            });
            let op = Instant::now();
            if is_select {
                let res = engine::select(&session, t, &text);
                if timed {
                    out.select_us.push(op.elapsed().as_secs_f64() * 1e6);
                }
                out.issued.selects += 1;
                let want = Value::str(format!("row_{shard}_{key}"));
                match res {
                    Ok(rows) if rows.len() == 1 && rows[0].len() == 1 && rows[0][0] == want => {
                        out.issued.select_rows += 1;
                    }
                    Ok(rows) => {
                        out.failed += 1;
                        eprintln!("{text}: returned {rows:?}, expected one row {want}");
                    }
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("{e}");
                    }
                }
            } else {
                let res = engine::write(&session, t, &text);
                if timed {
                    out.update_us.push(op.elapsed().as_secs_f64() * 1e6);
                }
                out.issued.updates += 1;
                out.issued.writes += 1;
                if key % c.hub_rows == c.hot {
                    out.firing[shard] += 1;
                }
                if res != Ok(1) {
                    out.failed += 1;
                    eprintln!("{text}: {res:?}, expected 1 row");
                }
            }
        });
        out.issued.ops += 1;
        if timed {
            out.timed_ops += 1;
            out.blocks.add(traced, 1, started.elapsed().as_secs_f64());
        }
    }
    out.spans = t.into_spans();
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let size = if args.smoke { &SMOKE } else { &FULL };
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0, false);

    let (pre, post) = crate::setup_passes(args, size.setups);
    let mut setup_times = Vec::new();
    let mut corpus = None;
    for _ in 0..pre {
        drop(corpus.take());
        t.set_on(args.trace);
        let c = build(size, args.seed, &mut t)?;
        setup_times.push(c.setup_s);
        corpus = Some(c);
    }
    t.set_on(false);
    let corpus = corpus.expect("at least one set-up");
    let s = &corpus.session;
    engine::put_setup_counters(s, &mut out.report);
    engine::check_analysis(s, &mut out);

    let total = if args.smoke {
        400
    } else {
        size.rate * args.seconds
    };
    let per_thread = total / SHARDS as u64;
    let audit_before: Vec<usize> = (0..SHARDS).map(|h| audit_rows(s, h)).collect();
    let before = engine::stats(s);
    let barrier = Barrier::new(SHARDS + 1);
    let (clients, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|me| {
                let session = s.fork();
                let (corpus, barrier) = (&corpus, &barrier);
                scope.spawn(move || client(corpus, session, me, per_thread, args, epoch, barrier))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let clients: Vec<Client> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (clients, start.elapsed().as_secs_f64())
    });
    let after = engine::stats(s);

    let mut all = Client::default();
    for c in clients {
        all.update_us.extend(c.update_us);
        all.select_us.extend(c.select_us);
        all.blocks.merge(c.blocks);
        all.issued.merge(c.issued);
        all.timed_ops += c.timed_ops;
        all.failed += c.failed;
        for h in 0..SHARDS {
            all.firing[h] += c.firing[h];
        }
        all.spans.extend(c.spans);
    }
    out.attempted = all.issued.ops;
    out.failed = all.failed;
    for (h, before) in audit_before.into_iter().enumerate() {
        let added = audit_rows(s, h) - before;
        all.issued.action_rows += added as u64;
        let expected = all.firing[h] as usize * size.triggers;
        out.check(added == expected, || {
            format!(
                "audit{h} rows added {added}, expected {expected} ({} firing UPDATEs)",
                all.firing[h]
            )
        });
    }

    let loaded_rows = corpus.loaded_rows;
    drop(corpus);
    for _ in 0..post {
        setup_times.push(build(size, args.seed, &mut t)?.setup_s);
    }

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
    engine::put_counters(r, &before, &after, &all.issued);
    r.put("storage.disk_bytes", "B", 0.0);
    r.note(format!(
        "corpus shards={SHARDS} rows={} triggers/shard={} ops={} firing_updates={:?}",
        size.rows, size.triggers, all.issued.ops, all.firing
    ));

    if args.trace {
        let mut spans = t.into_spans();
        spans.append(&mut all.spans);
        let a = trace::finish("snapshot-oltp", spans, r).map_err(|e| e.to_string())?;
        trace::put_common(&a, r, loaded_rows);
        a.put_p50(r, "core.snapshot_us", "core.snapshot");
        a.put_p50(r, "relational.select_us", "relational.select");
        r.put(
            "trace.overhead_frac",
            "fraction",
            all.blocks.overhead_frac(),
        );
    }
    Ok(out)
}
