//! `view-fire`: the paper's §6 measurement loop. Single-row keyed UPDATEs
//! on hot leaves of the Table 2 hierarchy (depth 3, fanout 64) fire
//! GROUPED XML triggers whose action inserts the Appendix G digest, so
//! trigger firing dominates the statement. One session, no SELECTs, no
//! WAL, no server.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use quark_core::relational::expr::BinOp;
use quark_core::relational::{Database, Value};
use quark_core::{Mode, Session};
use quark_xquery::{LevelSpec, TopBinding, ViewSpec};

use crate::engine::{self, Issued};
use crate::report;
use crate::rng::Rng;
use crate::trace::{self, Blocks, Tracer};
use crate::{Args, Outcome};

struct Size {
    /// Leaf-table rows.
    leaves: usize,
    /// Leaves under one top-level element.
    fanout: usize,
    /// Branching of the two lower levels (product = `fanout`).
    branching: [usize; 2],
    triggers: usize,
    /// Triggers watching the hot element: each UPDATE fires this many.
    satisfied: usize,
    /// Corpora built per untraced run; `setup_s` is their median.
    setups: usize,
    /// UPDATEs per second of `--seconds`.
    rate: u64,
}

const FULL: Size = Size {
    leaves: 64 * 1024,
    fanout: 64,
    branching: [8, 8],
    triggers: 100_000,
    satisfied: 20,
    setups: 4,
    rate: 600,
};

const SMOKE: Size = Size {
    leaves: 1024,
    fanout: 16,
    branching: [4, 4],
    triggers: 300,
    satisfied: 5,
    setups: 2,
    rate: 20,
};

/// A built corpus: the session, the leaves under the watched element, its
/// set-up time, and how many rows were bulk-loaded.
struct Corpus {
    session: Session,
    hot_leaves: Vec<i64>,
    setup_s: f64,
    loaded_rows: usize,
}

fn chain_view() -> ViewSpec {
    fn level(i: usize) -> LevelSpec {
        let leaf = i == 2;
        LevelSpec {
            element: format!("e{i}"),
            table: format!("t{i}"),
            parent_fk: (i > 0).then(|| "parent".to_string()),
            attrs: vec![("name".into(), "name".into())],
            // The leaf exposes every column, as `{$vendor/*}` in Fig. 3.
            scalars: if leaf {
                vec![("*".into(), "*".into())]
            } else {
                vec![]
            },
            child_count: (i == 1).then_some((BinOp::Ge, 2)),
            child: (!leaf).then(|| Box::new(level(i + 1))),
        }
    }
    ViewSpec {
        name: "bench".into(),
        root_element: "doc".into(),
        binding: TopBinding::Rows,
        top: level(0),
    }
}

fn build(size: &Size, seed: u64, t: &mut Tracer) -> Result<Corpus, String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let start = Instant::now();
    let session = quark_xquery::session(Database::new(), Mode::Grouped);
    let top = size.leaves / size.fanout;
    let counts = [top, top * size.branching[0], size.leaves];
    for (i, &n) in counts.iter().enumerate() {
        let parent = if i > 0 { "parent INT, " } else { "" };
        session
            .execute(&format!(
                "CREATE TABLE t{i} (id INT PRIMARY KEY, {parent}name TEXT, price DOUBLE)"
            ))
            .map_err(|x| e(&x))?;
        if i > 0 {
            session
                .execute(&format!("CREATE INDEX ON t{i} (parent)"))
                .map_err(|x| e(&x))?;
        }
        // Row k of level i hangs under row k % counts[i-1]; every count is
        // a multiple of `top`, so leaf k sits under top element k % top.
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|k| {
                let mut row = vec![Value::Int(k as i64)];
                if i > 0 {
                    row.push(Value::Int((k % counts[i - 1]) as i64));
                }
                row.push(Value::str(format!("name_{i}_{k}")));
                row.push(Value::Double(100.0 + (k % 97) as f64));
                row
            })
            .collect();
        t.span("relational.load", |_| {
            session.database_mut().load(&format!("t{i}"), rows)
        })
        .map_err(|x| e(&x))?;
    }
    let view = chain_view().build(&session.database()).map_err(|x| e(&x))?;
    session.quark_mut().register_view(view);

    // Appendix G's action: a constant-size digest of NEW_NODE, so the
    // action cost does not grow with the element.
    session
        .execute("CREATE TABLE digest (seq INT PRIMARY KEY, elements INT)")
        .map_err(|x| e(&x))?;
    let seq = Arc::new(AtomicI64::new(0));
    session
        .register_action_with_writes("insertDigest", ["digest"], move |db, call| {
            let n = match &call.params[0] {
                Value::Xml(x) => x.element_count() as i64,
                _ => 0,
            };
            let k = seq.fetch_add(1, Ordering::Relaxed);
            db.insert_row("digest", vec![Value::Int(k), Value::Int(n)])
        })
        .map_err(|x| e(&x))?;

    // The hot element is drawn from the seed; the other triggers cycle
    // through every other top element.
    let hot = Rng::new(seed, 1).below(top as u64) as usize;
    for i in 0..size.triggers {
        let watched = if i < size.satisfied {
            hot
        } else {
            (hot + 1 + (i - size.satisfied) % (top - 1)) % top
        };
        engine::create_trigger(
            &session,
            t,
            &format!(
                "create trigger xt_{i} after update on view('bench')/e0 \
                 where OLD_NODE/@name = 'name_0_{watched}' do insertDigest(NEW_NODE)"
            ),
        )?;
    }
    let setup_s = start.elapsed().as_secs_f64();
    let hot_leaves = (hot..size.leaves).step_by(top).map(|k| k as i64).collect();
    Ok(Corpus {
        session,
        hot_leaves,
        setup_s,
        loaded_rows: counts.iter().sum(),
    })
}

fn digest_rows(s: &Session) -> usize {
    s.database().table("digest").map_or(0, |t| t.len())
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
        drop(corpus.take()); // free the previous corpus before the next
        t.set_on(args.trace);
        let c = build(size, args.seed, &mut t)?;
        setup_times.push(c.setup_s);
        corpus = Some(c);
    }
    t.set_on(false);
    let corpus = corpus.expect("at least one set-up");
    let s = &corpus.session;
    let r = &mut out.report;
    engine::put_setup_counters(s, r);
    engine::check_analysis(s, &mut out);

    let ops = if args.smoke {
        200
    } else {
        size.rate * args.seconds
    };
    let mut rng = Rng::new(args.seed, 2);
    let digest_before = digest_rows(s);
    let before = engine::stats(s);
    let mut lat = Vec::with_capacity(ops as usize);
    let mut blocks = Blocks::default();
    let mut failed = 0u64;
    let warm = crate::warmup(ops);
    let mut loop_start = Instant::now();
    for i in 0..warm + ops {
        if i == warm {
            loop_start = Instant::now();
        }
        let timed = i >= warm;
        let traced = timed && Blocks::traced(args.trace, i - warm);
        t.set_on(traced);
        t.request(i);
        let started = Instant::now();
        let (us, res) = t.span("op.update", |t| {
            let text = t.span("bench.gen", |_| {
                let leaf = corpus.hot_leaves[rng.below(corpus.hot_leaves.len() as u64) as usize];
                // A fresh price every time, so every UPDATE changes its row.
                let price = 1000.0 + i as f64 * 0.25;
                format!("UPDATE t2 SET price = {price:?} WHERE id = {leaf}")
            });
            let op = Instant::now();
            let res = engine::write(s, t, &text);
            (op.elapsed().as_secs_f64() * 1e6, res)
        });
        match res {
            Ok(1) => {}
            Ok(n) => {
                failed += 1;
                eprintln!("UPDATE affected {n} rows, expected 1");
            }
            Err(e) => {
                failed += 1;
                eprintln!("{e}");
            }
        }
        if timed {
            lat.push(us);
            blocks.add(traced, 1, started.elapsed().as_secs_f64());
        }
    }
    let elapsed = loop_start.elapsed().as_secs_f64();
    let after = engine::stats(s);
    let added = digest_rows(s) - digest_before;

    out.attempted = warm + ops;
    out.failed = failed;
    let expected = size.satisfied * out.attempted as usize;
    out.check(added == expected, || {
        format!("digest rows added {added}, expected {expected} (satisfied x UPDATEs)")
    });

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
    r.put("ops_per_s", "ops/s", ops as f64 / elapsed);
    r.put_latency("update", &mut lat);
    let issued = Issued {
        ops: warm + ops,
        updates: warm + ops,
        writes: warm + ops,
        action_rows: added as u64,
        ..Issued::default()
    };
    engine::put_counters(r, &before, &after, &issued);
    r.put("storage.disk_bytes", "B", 0.0);
    r.note(format!(
        "corpus leaves={} fanout={} triggers={} satisfied={} ops={warm}+{ops}",
        size.leaves, size.fanout, size.triggers, size.satisfied
    ));

    if args.trace {
        let a = trace::finish("view-fire", t.into_spans(), r).map_err(|e| e.to_string())?;
        trace::put_common(&a, r, loaded_rows);
        r.put("trace.overhead_frac", "fraction", blocks.overhead_frac());
    }
    Ok(out)
}
