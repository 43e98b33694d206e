//! Plan execution.
//!
//! [`execute`] evaluates a [`PhysicalPlan`] DAG against a database state
//! plus (optionally) the transition tables of the statement being
//! processed. Results of shared subplans are memoized by node identity, so
//! a plan that reuses `AffectedKeys` in four places (like Fig. 16 of the
//! paper) computes it once.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::expr::{eval_all, AggState, Expr};
use crate::plan::{JoinKind, PhysicalPlan, PlanRef, SortKey, TableEpoch, TransitionSide};
use crate::table::Table;
use crate::value::{Row, Value};
use crate::{Database, Error, Event, Result, TransitionTables};

/// Shared, memoized result of one plan node.
pub type RowsRef = Arc<Vec<Row>>;

/// A hash-join build side materialized for probing: key tuple → rows.
type BuildSide = HashMap<Box<[Value]>, Vec<Row>>;

/// What one executor-cache entry holds.
enum Cached {
    /// A hash-join build side.
    Build(Arc<BuildSide>),
    /// A stable subplan's materialized rows (nested-loop inner sides).
    Rows(RowsRef),
}

impl Cached {
    fn share(&self) -> Cached {
        match self {
            Cached::Build(b) => Cached::Build(Arc::clone(b)),
            Cached::Rows(r) => Cached::Rows(Arc::clone(r)),
        }
    }
}

/// Cache key: the inner plan node's identity plus a discriminator for the
/// join-key expressions a build side was hashed on (`None` for plain row
/// results).
type CacheKey = (usize, Option<u64>);

struct CacheEntry {
    /// A hit requires this weak handle to still point at the very plan
    /// node being executed — guarding against allocator address reuse
    /// after a plan is dropped.
    plan: Weak<PhysicalPlan>,
    /// Schema generation at build time: a dropped-and-recreated table
    /// resets its version counter, so version checks alone are not enough.
    schema_gen: u64,
    /// `(table, version)` pairs the cached value was built from.
    deps: Vec<(String, u64)>,
    /// The exact join-key expressions a build side was hashed on. The
    /// cache *key* only carries their 64-bit fingerprint; a hit verifies
    /// against these so a fingerprint collision can never serve one
    /// join's build side to another. Empty for row results and markers.
    key_exprs: Vec<Expr>,
    /// `None` marks a plan known to be *unstable* (it reads transition
    /// tables), so hot firing paths skip both the cache and the
    /// stability analysis. Stability is a property of the plan alone, so
    /// the marker needs no per-table version validation — but it is still
    /// discarded when `schema_gen` moves (DROP/CREATE churn must not leave
    /// markers recorded against a schema that no longer exists).
    value: Option<Cached>,
}

/// Outcome of an executor-cache probe.
enum CacheLookup {
    /// A still-valid cached value.
    Hit(Cached),
    /// The plan is known-unstable: execute normally, skip the analysis.
    Unstable,
    /// Nothing cached (or a stale entry was evicted): execute, analyze,
    /// and store.
    Miss,
}

/// Cross-firing executor cache, owned by a [`Database`].
///
/// Repeated trigger firings execute the same plan DAGs against mostly
/// unchanged stored tables. Join build sides whose inner subplan is
/// *stable* — a pure function of stored tables, see
/// [`PhysicalPlan::stable_tables`] — are kept here keyed on plan-node
/// identity and validated against the per-table
/// [`version`](crate::Table::version) counters, so a firing probes a
/// prebuilt hash table instead of re-hashing an unchanged input (the
/// constants tables of §5.1 being the canonical case).
pub struct ExecCache {
    enabled: AtomicBool,
    entries: Mutex<HashMap<CacheKey, CacheEntry>>,
}

impl Default for ExecCache {
    fn default() -> Self {
        ExecCache::new(true)
    }
}

impl ExecCache {
    pub(crate) fn new(enabled: bool) -> Self {
        ExecCache {
            enabled: AtomicBool::new(enabled),
            entries: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Toggle caching; disabling clears all entries so no stale value can
    /// ever be served after re-enabling.
    pub(crate) fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.entries.lock().expect("exec cache").clear();
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.lock().expect("exec cache").len()
    }

    fn lookup(
        &self,
        key: CacheKey,
        plan: &PlanRef,
        key_exprs: Option<&[Expr]>,
        db: &Database,
    ) -> CacheLookup {
        if !self.is_enabled() {
            return CacheLookup::Unstable; // skip analysis and storage too
        }
        let mut entries = self.entries.lock().expect("exec cache");
        let Some(e) = entries.get(&key) else {
            return CacheLookup::Miss;
        };
        if !e.plan.upgrade().is_some_and(|p| Arc::ptr_eq(&p, plan))
            || e.key_exprs != key_exprs.unwrap_or(&[])
        {
            entries.remove(&key);
            return CacheLookup::Miss;
        }
        let Some(value) = &e.value else {
            // Negative (unstable) markers also key on the schema
            // generation: a DROP/CREATE cycle can recreate a same-shaped
            // table behind an entry recorded against the old schema, and a
            // marker must never outlive the world it was analyzed in.
            if e.schema_gen != db.schema_generation() {
                entries.remove(&key);
                return CacheLookup::Miss;
            }
            return CacheLookup::Unstable;
        };
        let fresh = e.schema_gen == db.schema_generation()
            && e.deps
                .iter()
                .all(|(t, v)| db.table(t).map(|tb| tb.version() == *v).unwrap_or(false));
        if !fresh {
            entries.remove(&key);
            return CacheLookup::Miss;
        }
        CacheLookup::Hit(value.share())
    }

    /// Record the outcome of a miss: the built value for a stable plan, or
    /// the unstable marker so subsequent firings skip the stability
    /// analysis entirely (trigger plans mostly join transition-derived
    /// sides, and re-walking the subplan per firing is pure overhead).
    fn store(
        &self,
        key: CacheKey,
        plan: &PlanRef,
        key_exprs: Option<&[Expr]>,
        db: &Database,
        value: Cached,
    ) {
        if !self.is_enabled() {
            return;
        }
        let key_exprs = key_exprs.unwrap_or(&[]).to_vec();
        let entry = match plan.stable_tables() {
            Some(deps) => {
                let mut versions = Vec::with_capacity(deps.len());
                for t in deps {
                    let Ok(table) = db.table(&t) else {
                        return; // dependency vanished mid-flight: do not cache
                    };
                    let v = table.version();
                    versions.push((t, v));
                }
                CacheEntry {
                    plan: Arc::downgrade(plan),
                    schema_gen: db.schema_generation(),
                    deps: versions,
                    key_exprs,
                    value: Some(value),
                }
            }
            None => CacheEntry {
                plan: Arc::downgrade(plan),
                schema_gen: db.schema_generation(),
                deps: Vec::new(),
                key_exprs,
                value: None,
            },
        };
        let mut entries = self.entries.lock().expect("exec cache");
        // Bound growth under trigger churn: an entry whose plan was
        // dropped can never be hit again (its exact key is never looked
        // up, and the Weak both fails to upgrade and pins the dropped
        // plan's allocation). Sweep dead entries whenever the map
        // outgrows its live working set.
        if entries.len() >= SWEEP_THRESHOLD && !entries.contains_key(&key) {
            entries.retain(|_, e| e.plan.strong_count() > 0);
        }
        entries.insert(key, entry);
    }
}

/// Entry count past which [`ExecCache::store`] sweeps entries whose plans
/// have been dropped. Sized above any realistic live-plan working set, so
/// steady-state stores never pay the O(len) sweep.
const SWEEP_THRESHOLD: usize = 1024;

/// The lookup → build → store protocol shared by every cached join inner
/// side: serve a fresh cached value, or run `build` and record the
/// outcome (the built value for a stable plan, the unstable marker
/// otherwise) when the plan was a genuine cache miss.
fn cached_or(
    cache_key: CacheKey,
    plan: &PlanRef,
    key_exprs: Option<&[Expr]>,
    ctx: &ExecContext<'_>,
    build: impl FnOnce() -> Result<Cached>,
) -> Result<Cached> {
    match ctx.db.exec_cache.lookup(cache_key, plan, key_exprs, ctx.db) {
        CacheLookup::Hit(v) => {
            ctx.db.counters.add_build_hit();
            Ok(v)
        }
        CacheLookup::Unstable => build(),
        CacheLookup::Miss => {
            let v = build()?;
            ctx.db
                .exec_cache
                .store(cache_key, plan, key_exprs, ctx.db, v.share());
            Ok(v)
        }
    }
}

/// Fingerprint of the join-key expressions a build side was hashed on
/// (two joins sharing an inner plan but joining on different keys must
/// not share a build).
fn hash_exprs(exprs: &[Expr]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    exprs.hash(&mut h);
    h.finish()
}

/// Execution context: database state + optional transition tables.
pub struct ExecContext<'a> {
    /// The database (post-statement state).
    pub db: &'a Database,
    /// Transition tables of the firing statement, if any.
    pub trans: Option<&'a TransitionTables>,
    memo: RefCell<HashMap<usize, RowsRef>>,
}

impl<'a> ExecContext<'a> {
    /// Create a context. `trans` must be `Some` when the plan contains
    /// `TransitionScan` or old-epoch accesses.
    pub fn new(db: &'a Database, trans: Option<&'a TransitionTables>) -> Self {
        ExecContext {
            db,
            trans,
            memo: RefCell::new(HashMap::new()),
        }
    }

    fn transition(&self, table: &str) -> Result<&'a TransitionTables> {
        match self.trans {
            Some(t) if t.table == table => Ok(t),
            _ => Err(Error::NoTransitionContext),
        }
    }

    /// Δ rows of `table` if the firing statement targeted it, else empty.
    fn delta_rows(&self, table: &str) -> &[Row] {
        match self.trans {
            Some(t) if t.table == table => &t.inserted,
            _ => &[],
        }
    }

    fn nabla_rows(&self, table: &str) -> &[Row] {
        match self.trans {
            Some(t) if t.table == table => &t.deleted,
            _ => &[],
        }
    }
}

/// Execute a plan, memoizing shared nodes within this context.
pub fn execute(plan: &PlanRef, ctx: &ExecContext<'_>) -> Result<RowsRef> {
    let key = Arc::as_ptr(plan) as usize;
    if let Some(hit) = ctx.memo.borrow().get(&key) {
        return Ok(Arc::clone(hit));
    }
    let rows = Arc::new(run(plan, ctx)?);
    ctx.memo.borrow_mut().insert(key, Arc::clone(&rows));
    Ok(rows)
}

fn run(plan: &PhysicalPlan, ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    match plan {
        PhysicalPlan::TableScan { table, epoch } => scan_table(table, *epoch, ctx),
        PhysicalPlan::TransitionScan {
            table,
            side,
            pruned,
        } => {
            let trans = ctx.transition(table)?;
            let (main, other) = match side {
                TransitionSide::Delta => (&trans.inserted, &trans.deleted),
                TransitionSide::Nabla => (&trans.deleted, &trans.inserted),
            };
            if *pruned && !other.is_empty() {
                // Appendix F (Def. 8): drop rows unchanged in value —
                // present in both Δ and ∇.
                let other_set: HashSet<&Row> = other.iter().collect();
                Ok(main
                    .iter()
                    .filter(|r| !other_set.contains(r))
                    .cloned()
                    .collect())
            } else {
                Ok(main.clone())
            }
        }
        PhysicalPlan::Values { rows, .. } => Ok(rows.clone()),
        PhysicalPlan::Filter { input, predicate } => {
            let rows = execute(input, ctx)?;
            let mut out = Vec::new();
            for r in rows.iter() {
                if predicate.eval(r)?.is_true() {
                    out.push(Arc::clone(r));
                }
            }
            Ok(out)
        }
        PhysicalPlan::Project { input, exprs } => {
            let rows = execute(input, ctx)?;
            let mut out = Vec::with_capacity(rows.len());
            for r in rows.iter() {
                out.push(eval_all(exprs, r)?);
            }
            Ok(out)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind,
            filter,
        } => hash_join(
            left,
            right,
            left_keys,
            right_keys,
            *kind,
            filter.as_ref(),
            ctx,
        ),
        PhysicalPlan::IndexJoin {
            outer,
            table,
            epoch,
            probe,
            kind,
            filter,
        } => index_join(outer, table, *epoch, probe, *kind, filter.as_ref(), ctx),
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            predicate,
            kind,
        } => nl_join(left, right, predicate.as_ref(), *kind, ctx),
        PhysicalPlan::HashAggregate {
            input,
            group_exprs,
            aggs,
        } => {
            let rows = execute(input, ctx)?;
            aggregate(&rows, group_exprs, aggs)
        }
        PhysicalPlan::UnionAll { inputs } => {
            let mut out = Vec::new();
            for i in inputs {
                out.extend(execute(i, ctx)?.iter().cloned());
            }
            Ok(out)
        }
        PhysicalPlan::Distinct { input } => {
            let rows = execute(input, ctx)?;
            let mut seen: HashSet<Row> = HashSet::with_capacity(rows.len());
            let mut out = Vec::new();
            for r in rows.iter() {
                if seen.insert(Arc::clone(r)) {
                    out.push(Arc::clone(r));
                }
            }
            Ok(out)
        }
        PhysicalPlan::Sort { input, keys } => {
            let rows = execute(input, ctx)?;
            sort_rows(&rows, keys)
        }
        PhysicalPlan::Unnest { input, expr } => {
            let rows = execute(input, ctx)?;
            let mut out = Vec::new();
            for r in rows.iter() {
                match expr.eval(r)? {
                    Value::Null => {}
                    Value::Xml(x) if crate::expr::is_fragment(&x) => {
                        for child in x.children() {
                            out.push(append(r, Value::Xml(Arc::clone(child))));
                        }
                    }
                    item => out.push(append(r, item)),
                }
            }
            Ok(out)
        }
    }
}

fn append(row: &Row, value: Value) -> Row {
    row.iter().cloned().chain(std::iter::once(value)).collect()
}

/// Scan the current table, or reconstruct the pre-statement state:
/// `B_old = (B ∖ pk(ΔB)) ∪ ∇B` (§4.2 of the paper).
///
/// Ordered storage makes scans primary-key-ordered by construction (view
/// materialization and `aggXMLFrag` output stay deterministic); the
/// `Old`-epoch reconstruction merges the (small) sorted ∇ rows into the
/// ordered walk instead of re-sorting the whole table per firing.
fn scan_table(table: &str, epoch: TableEpoch, ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    let t = ctx.db.table(table)?;
    let schema = t.schema();
    let out: Vec<Row> = match epoch {
        TableEpoch::Current => t.iter().cloned().collect(),
        TableEpoch::Old => {
            let delta = ctx.delta_rows(table);
            let nabla = ctx.nabla_rows(table);
            if delta.is_empty() && nabla.is_empty() {
                t.iter().cloned().collect()
            } else {
                let delta_keys: HashSet<Box<[Value]>> =
                    delta.iter().map(|r| schema.key_of(r)).collect();
                let mut nabla_sorted: Vec<(Box<[Value]>, &Row)> =
                    nabla.iter().map(|r| (schema.key_of(r), r)).collect();
                nabla_sorted.sort_by(|a, b| a.0.cmp(&b.0));
                let mut out = Vec::with_capacity(t.len() + nabla_sorted.len());
                let mut ni = 0;
                for (key, row) in t.entries() {
                    if delta_keys.contains(key) {
                        continue;
                    }
                    // ∇ rows strictly before this key slot in first; a ∇
                    // row *equal* to a stored key sorts after it, matching
                    // the stable sort this merge replaces.
                    while ni < nabla_sorted.len() && nabla_sorted[ni].0.as_ref() < key.as_ref() {
                        out.push(Arc::clone(nabla_sorted[ni].1));
                        ni += 1;
                    }
                    out.push(Arc::clone(row));
                }
                for (_, row) in &nabla_sorted[ni..] {
                    out.push(Arc::clone(row));
                }
                out
            }
        }
    };
    ctx.db.counters.add_scanned(out.len() as u64);
    Ok(out)
}

fn key_values(exprs: &[Expr], row: &[Value]) -> Result<Box<[Value]>> {
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        out.push(e.eval(row)?);
    }
    Ok(out.into())
}

fn concat(left: &[Value], right: &[Value]) -> Row {
    left.iter().cloned().chain(right.iter().cloned()).collect()
}

fn nulls(n: usize) -> Vec<Value> {
    vec![Value::Null; n]
}

fn hash_join(
    left: &PlanRef,
    right: &PlanRef,
    left_keys: &[Expr],
    right_keys: &[Expr],
    kind: JoinKind,
    filter: Option<&Expr>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let lrows = execute(left, ctx)?;
    let right_arity = right.arity(ctx.db)?;

    // Build on the right, probe from the left (generated plans put the
    // small transition-derived side on the left). Stable build sides are
    // served from the cross-firing cache instead of being re-hashed.
    let cache_key = (Arc::as_ptr(right) as usize, Some(hash_exprs(right_keys)));
    let cached = cached_or(cache_key, right, Some(right_keys), ctx, || {
        let rrows = execute(right, ctx)?;
        let mut build: BuildSide = HashMap::with_capacity(rrows.len());
        for r in rrows.iter() {
            build
                .entry(key_values(right_keys, r)?)
                .or_default()
                .push(Arc::clone(r));
        }
        Ok(Cached::Build(Arc::new(build)))
    })?;
    let Cached::Build(build) = cached else {
        // Impossible: the fingerprint component of the key separates
        // build-side entries from plain row results.
        return Err(Error::Plan("exec cache variant mismatch".into()));
    };

    let null_fill = nulls(right_arity);
    let mut out = Vec::new();
    for l in lrows.iter() {
        let key = key_values(left_keys, l)?;
        let matches = build.get(&key).map(|v| v.as_slice());
        emit_joined(l, matches, &null_fill, kind, filter, &mut out)?;
    }
    Ok(out)
}

/// Shared row-emission logic for all join implementations. `null_fill` is
/// the right-arity NULL padding, allocated once per join instead of once
/// per unmatched row.
fn emit_joined(
    left: &Row,
    matches: Option<&[Row]>,
    null_fill: &[Value],
    kind: JoinKind,
    filter: Option<&Expr>,
    out: &mut Vec<Row>,
) -> Result<()> {
    let mut any = false;
    if let Some(ms) = matches {
        for m in ms {
            let joined = concat(left, m);
            if let Some(f) = filter {
                if !f.eval(&joined)?.is_true() {
                    continue;
                }
            }
            any = true;
            match kind {
                JoinKind::Inner | JoinKind::LeftOuter => out.push(joined),
                JoinKind::LeftSemi => {
                    out.push(Arc::clone(left));
                    return Ok(());
                }
                JoinKind::LeftAnti => return Ok(()),
            }
        }
    }
    if !any {
        match kind {
            JoinKind::LeftOuter => out.push(concat(left, null_fill)),
            JoinKind::LeftAnti => out.push(Arc::clone(left)),
            JoinKind::Inner | JoinKind::LeftSemi => {}
        }
    }
    Ok(())
}

fn index_join(
    outer: &PlanRef,
    table: &str,
    epoch: TableEpoch,
    probe: &[(usize, Expr)],
    kind: JoinKind,
    filter: Option<&Expr>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let orows = execute(outer, ctx)?;
    let t = ctx.db.table(table)?;
    let schema = t.schema();
    let inner_arity = schema.arity();
    let probe_cols: Vec<usize> = probe.iter().map(|(c, _)| *c).collect();
    let Some(covering) = t.covering(&probe_cols) else {
        return Err(Error::Plan(format!(
            "IndexJoin on {table} cols {probe_cols:?}: not the primary key and no secondary index"
        )));
    };

    // For the Old epoch, the probe must see the pre-statement state:
    // current matches minus Δ-keyed rows, plus matching ∇ rows.
    type KeySet = HashSet<Box<[Value]>>;
    type RowsByKey = HashMap<Box<[Value]>, Vec<Row>>;
    let (delta_keys, nabla_by_probe): (KeySet, RowsByKey) = if epoch == TableEpoch::Old {
        let delta_keys = ctx
            .delta_rows(table)
            .iter()
            .map(|r| schema.key_of(r))
            .collect();
        let mut by_probe: HashMap<Box<[Value]>, Vec<Row>> = HashMap::new();
        for r in ctx.nabla_rows(table) {
            let k: Box<[Value]> = probe_cols.iter().map(|&c| r[c].clone()).collect();
            by_probe.entry(k).or_default().push(Arc::clone(r));
        }
        (delta_keys, by_probe)
    } else {
        (HashSet::new(), HashMap::new())
    };

    let null_fill = nulls(inner_arity);
    let mut out = Vec::new();
    for l in orows.iter() {
        let mut probe_vals = Vec::with_capacity(probe.len());
        for (_, e) in probe {
            probe_vals.push(e.eval(l)?);
        }
        ctx.db.counters.add_probes(1);
        // Collect matching inner rows for this probe. Probes yield rows in
        // primary-key order already (ordered storage / ordered index
        // buckets); only the Old-epoch reconstruction, which splices in ∇
        // rows, still needs a deterministic re-sort.
        let mut matched: Vec<Row> = Vec::new();
        let current = t.probe(&covering, &probe_vals);
        match epoch {
            TableEpoch::Current => matched.extend(current.into_iter().cloned()),
            TableEpoch::Old => {
                matched.extend(
                    current
                        .into_iter()
                        .filter(|r| !delta_keys.contains(&schema.key_of(r)))
                        .cloned(),
                );
                let pk: Box<[Value]> = probe_vals.clone().into_boxed_slice();
                if let Some(extra) = nabla_by_probe.get(&pk) {
                    matched.extend(extra.iter().cloned());
                }
                matched.sort_by_cached_key(|r| schema.key_of(r));
            }
        }
        emit_joined(l, Some(&matched), &null_fill, kind, filter, &mut out)?;
    }
    Ok(out)
}

fn nl_join(
    left: &PlanRef,
    right: &PlanRef,
    predicate: Option<&Expr>,
    kind: JoinKind,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let lrows = execute(left, ctx)?;
    let right_arity = right.arity(ctx.db)?;
    // Stable inner sides (constants tables joined without a pushable
    // equality) are materialized once and reused across firings.
    let cache_key = (Arc::as_ptr(right) as usize, None);
    let cached = cached_or(cache_key, right, None, ctx, || {
        Ok(Cached::Rows(execute(right, ctx)?))
    })?;
    let Cached::Rows(rrows) = cached else {
        return Err(Error::Plan("exec cache variant mismatch".into()));
    };
    let null_fill = nulls(right_arity);
    let mut out = Vec::new();
    for l in lrows.iter() {
        emit_joined(l, Some(&rrows[..]), &null_fill, kind, predicate, &mut out)?;
    }
    Ok(out)
}

fn aggregate(
    rows: &[Row],
    group_exprs: &[Expr],
    aggs: &[crate::expr::AggExpr],
) -> Result<Vec<Row>> {
    // Preserve first-seen group order so aggXMLFrag output is deterministic.
    let mut order: Vec<Box<[Value]>> = Vec::new();
    let mut groups: HashMap<Box<[Value]>, Vec<AggState>> = HashMap::new();
    for r in rows {
        let key = key_values(group_exprs, r)?;
        let states = match groups.get_mut(&key) {
            Some(s) => s,
            None => {
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| aggs.iter().map(|a| AggState::new(&a.func)).collect())
            }
        };
        for (state, agg) in states.iter_mut().zip(aggs) {
            match &agg.arg {
                None => state.update(None)?,
                Some(e) => {
                    let v = e.eval(r)?;
                    state.update(Some(&v))?;
                }
            }
        }
    }
    // Scalar aggregation (no GROUP BY) over empty input: one row of
    // identity values.
    if group_exprs.is_empty() && groups.is_empty() {
        let row: Row = aggs
            .iter()
            .map(|a| AggState::new(&a.func).finish())
            .collect();
        return Ok(vec![row]);
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let states = groups.remove(&key).expect("group recorded in order list");
        let row: Row = key
            .iter()
            .cloned()
            .chain(states.into_iter().map(AggState::finish))
            .collect();
        out.push(row);
    }
    Ok(out)
}

fn sort_rows(rows: &[Row], keys: &[SortKey]) -> Result<Vec<Row>> {
    // Precompute key tuples to keep comparator infallible.
    let mut decorated: Vec<(Vec<Value>, &Row)> = Vec::with_capacity(rows.len());
    for r in rows {
        let mut k = Vec::with_capacity(keys.len());
        for sk in keys {
            k.push(sk.expr.eval(r)?);
        }
        decorated.push((k, r));
    }
    decorated.sort_by(|(a, _), (b, _)| {
        for (i, sk) in keys.iter().enumerate() {
            let ord = a[i].cmp(&b[i]);
            let ord = if sk.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(decorated.into_iter().map(|(_, r)| Arc::clone(r)).collect())
}

/// Convenience: execute a plan that does not reference transition tables.
pub fn execute_query(db: &Database, plan: &PlanRef) -> Result<Vec<Row>> {
    let ctx = ExecContext::new(db, None);
    let rows = execute(plan, &ctx)?;
    Ok(rows.iter().cloned().collect())
}

/// Convenience: execute a plan in a trigger-firing context.
pub fn execute_with_transitions(
    db: &Database,
    plan: &PlanRef,
    trans: &TransitionTables,
) -> Result<Vec<Row>> {
    let ctx = ExecContext::new(db, Some(trans));
    let rows = execute(plan, &ctx)?;
    Ok(rows.iter().cloned().collect())
}

/// Build a synthetic transition-tables value (tests and the oracle baseline).
pub fn transitions(
    table: impl Into<String>,
    event: Event,
    inserted: Vec<Row>,
    deleted: Vec<Row>,
) -> TransitionTables {
    TransitionTables {
        table: table.into(),
        event,
        inserted,
        deleted,
    }
}

#[allow(dead_code)]
fn _assert_table_used(_: &Table) {}
