//! The access planner, seen from the statement surface: `SELECT`, `UPDATE`
//! and `DELETE` must do exactly what a full evaluation of the `WHERE`
//! clause over every row does, whether the planner probed or scanned — and
//! it must probe exactly when the predicate's equalities cover the primary
//! key or one indexed column.

use crate::expr::{BinOp, Expr};
use crate::sql::{self, SelectCols, Span, SqlExpr, SqlOutcome};
use crate::{ColumnType, Database, Row, TableSchema, Value};

/// `kv`: a TEXT primary key and no index; its rows `'5'` and `'7'` let an
/// `Int` literal atomize against the key. `wide`: a (TEXT, INT) key,
/// indexed `grp TEXT` and `x DOUBLE` (holding NULL and NaN), and an
/// unindexed `note TEXT`.
fn corpus() -> Database {
    let mut db = Database::new();
    for stmt in [
        "CREATE TABLE kv (id TEXT PRIMARY KEY, v INT)",
        "INSERT INTO kv VALUES ('5', 1), ('x', 2), ('7', 2), ('g1', 3)",
        "CREATE TABLE wide (k1 TEXT, k2 INT, grp TEXT, x DOUBLE, note TEXT, \
         PRIMARY KEY (k1, k2))",
        "CREATE INDEX ON wide (grp)",
        "CREATE INDEX ON wide (x)",
    ] {
        sql::run(&mut db, stmt).unwrap();
    }
    let xs = [1.0, 2.0, f64::NAN].map(Value::Double);
    let rows = (0..12)
        .map(|i| {
            vec![
                Value::str(["5", "x", "7"][i / 4]),
                Value::Int(i as i64 % 4 + 1),
                Value::str(["5", "g1", "g2"][i % 3]),
                xs.get(i % 4).cloned().unwrap_or(Value::Null),
                Value::str(["n1", "5", "2"][i / 2 % 3]),
            ]
        })
        .collect();
    db.load("wide", rows).unwrap();
    db
}

/// Column sets the generator draws `col = literal` conjunctions over, and
/// whether they are covered: the whole key (in either order), one indexed
/// column, part of the key, an unindexed column, the key plus an extra
/// column, and a duplicate column.
const SHAPES: &[(&str, &[usize], bool)] = &[
    ("kv", &[0], true),
    ("wide", &[0, 1], true),
    ("wide", &[1, 0], true),
    ("wide", &[2], true),
    ("wide", &[3], true),
    ("wide", &[0], false),
    ("wide", &[1], false),
    ("wide", &[4], false),
    ("wide", &[0, 1, 2], false),
    ("wide", &[1, 0, 4], false),
    ("kv", &[0, 0], false),
    ("wide", &[0, 1, 1], false),
];

/// Whether a key lookup on `lit` agrees with SQL's `col = lit` for a
/// column of type `ty`.
fn probe_agrees(lit: &Value, ty: ColumnType) -> bool {
    match lit {
        Value::Double(d) if d.is_nan() => false,
        Value::Int(_) | Value::Double(_) => matches!(ty, ColumnType::Int | ColumnType::Double),
        Value::Str(_) => ty == ColumnType::Str,
        Value::Bool(_) => ty == ColumnType::Bool,
        _ => false,
    }
}

/// The same predicate with columns by name, for `sql::select`.
fn named(e: &Expr, schema: &TableSchema) -> SqlExpr {
    match e {
        Expr::Col(c) => SqlExpr::Col(schema.columns[*c].name.clone(), Span::new(0, 0)),
        Expr::Lit(v) => SqlExpr::Lit(v.clone()),
        Expr::Binary { op, left, right } => SqlExpr::Binary {
            op: *op,
            left: Box::new(named(left, schema)),
            right: Box::new(named(right, schema)),
        },
        Expr::Not(inner) => SqlExpr::Not(Box::new(named(inner, schema))),
        other => panic!("not generated: {other:?}"),
    }
}

fn rows_of(db: &Database, table: &str) -> Vec<Row> {
    db.table(table).unwrap().iter().cloned().collect()
}

/// Run `SELECT *`, `UPDATE … SET <last column>` and `DELETE` with `pred`,
/// each on its own clone of `base`. Each result must match the full
/// evaluation of `pred` over every row, and each statement must cost one
/// probe when `probes`, else one scan of the whole table.
fn check(base: &Database, table: &str, pred: &Expr, probes: bool) {
    let all = rows_of(base, table);
    let hits: Vec<Row> = all
        .iter()
        .filter(|r| pred.eval(r).unwrap().is_true())
        .cloned()
        .collect();
    let schema = base.table(table).unwrap().schema_ref();
    let last = schema.arity() - 1;
    let fresh = match schema.columns[last].ty {
        ColumnType::Str => Value::str("upd"),
        _ => Value::Int(99),
    };
    let updated: Vec<Row> = all
        .iter()
        .map(|r| {
            let mut next = r.to_vec();
            if hits.contains(r) {
                next[last] = fresh.clone();
            }
            next.into()
        })
        .collect();
    let kept: Vec<Row> = all.iter().filter(|r| !hits.contains(r)).cloned().collect();
    for (stmt, want) in [("SELECT", &hits), ("UPDATE", &updated), ("DELETE", &kept)] {
        let db = base.clone();
        let before = db.stats();
        let got = match stmt {
            "SELECT" => {
                let filter = named(pred, &schema);
                match sql::select(&db, table, &SelectCols::Star, Some(&filter)).unwrap() {
                    SqlOutcome::Rows { rows, .. } => rows,
                    other => panic!("{other:?}"),
                }
            }
            "UPDATE" => {
                let set = [(last, Expr::Lit(fresh.clone()))];
                let n = db.update_expr(table, Some(pred), &set).unwrap();
                assert_eq!(n, hits.len(), "UPDATE {table}: {pred:?}");
                rows_of(&db, table)
            }
            _ => {
                let n = db.delete_expr(table, Some(pred)).unwrap();
                assert_eq!(n, hits.len(), "DELETE {table}: {pred:?}");
                rows_of(&db, table)
            }
        };
        assert_eq!(&got, want, "{stmt} {table}: {pred:?}");
        let after = db.stats();
        let cost = (
            after.index_probes - before.index_probes,
            after.rows_scanned - before.rows_scanned,
        );
        let expected = if probes {
            (1, 0)
        } else {
            (0, all.len() as u64)
        };
        assert_eq!(cost, expected, "{stmt} {table}: {pred:?} probes/scanned");
    }
}

#[test]
fn probe_and_scan_agree_with_full_evaluation() {
    let db = corpus();
    // Pinned inputs: an `Int` literal against a TEXT key atomizes (it
    // matches the row '5', which a key probe on Int(5) would miss), so do
    // ones against an indexed TEXT column; a NULL literal compares as
    // unknown; an `Int` literal may probe a DOUBLE index; OR is not a
    // conjunction of equalities.
    let (c, lit) = (Expr::col, Expr::Lit);
    let pinned = [
        ("kv", Expr::eq(c(0), lit(Value::Int(5))), false),
        ("kv", Expr::eq(lit(Value::Null), c(0)), false),
        ("wide", Expr::eq(c(2), lit(Value::Int(5))), false),
        ("wide", Expr::eq(c(3), lit(Value::Int(2))), true),
        (
            "wide",
            Expr::bin(
                BinOp::Or,
                Expr::eq(c(2), lit(Value::str("g1"))),
                Expr::eq(c(1), lit(Value::Int(2))),
            ),
            false,
        ),
    ];
    for (table, pred, probes) in &pinned {
        check(&db, table, pred, *probes);
    }

    // Literals that hit, miss, mismatch the column's type, or compare as
    // unknown; drawn by a 64-bit LCG (Knuth's constants).
    let mut pool: Vec<Value> = ["5", "x", "g1", "2", "nope"].map(Value::str).to_vec();
    pool.extend([5, 1, 2].map(Value::Int));
    pool.extend([2.0, 1.5, f64::NAN].map(Value::Double));
    pool.extend([Value::Null, Value::Bool(true)]);
    let mut state = 0x5eed_u64;
    let mut below = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let mut probed = 0;
    for _ in 0..400 {
        let (table, cols, covered) = SHAPES[below(SHAPES.len())];
        let schema = db.table(table).unwrap().schema_ref();
        let mut probes = covered;
        let mut eqs = Vec::new();
        for &col in cols {
            let v = pool[below(pool.len())].clone();
            probes &= probe_agrees(&v, schema.columns[col].ty);
            eqs.push(match below(2) {
                0 => Expr::eq(c(col), lit(v)),
                _ => Expr::eq(lit(v), c(col)),
            });
        }
        probed += usize::from(probes);
        check(&db, table, &Expr::and_all(eqs), probes);
    }
    assert!((40..360).contains(&probed), "{probed} of 400 probed");
}

/// Rows a statement returned or changed.
fn rows(out: SqlOutcome) -> usize {
    match out {
        SqlOutcome::Rows { rows, .. } => rows.len(),
        SqlOutcome::RowsAffected(n) => n,
        other => panic!("{other:?}"),
    }
}

/// Run `f` on a fresh corpus: (rows, statements, index_probes,
/// rows_scanned), the last three as deltas.
fn cost(f: impl FnOnce(&mut Database) -> usize) -> (usize, u64, u64, u64) {
    let mut db = corpus();
    let before = db.stats();
    let n = f(&mut db);
    let after = db.stats();
    (
        n,
        after.statements - before.statements,
        after.index_probes - before.index_probes,
        after.rows_scanned - before.rows_scanned,
    )
}

/// A keyed `SELECT`, `UPDATE` or `DELETE` costs one probe and no scan
/// whether it hits or misses, through text and through the keyed
/// wrappers alike; `UPDATE` and `DELETE` count one statement either way.
#[test]
fn keyed_statements_cost_one_probe_hit_or_miss() {
    for (key, n) in [("x", 1), ("nope", 0)] {
        for (text, statements) in [
            ("SELECT v FROM kv WHERE id = '?'", 0),
            ("UPDATE kv SET v = 9 WHERE id = '?'", 1),
            ("DELETE FROM kv WHERE id = '?'", 1),
        ] {
            let text = text.replace('?', key);
            let got = cost(|db| rows(sql::run(db, &text).unwrap()));
            assert_eq!(got, (n, statements, 1, 0), "{text}");
        }
        let k = [Value::str(key)];
        let set = [(1, Value::Int(9))];
        let update = cost(|db| usize::from(db.update_by_key("kv", &k, &set).unwrap()));
        let delete = cost(|db| usize::from(db.delete_by_key("kv", &k).unwrap()));
        assert_eq!((update, delete), ((n, 1, 1, 0), (n, 1, 1, 0)), "{key}");
    }
}
