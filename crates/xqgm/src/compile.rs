//! Compilation of XQGM graphs to physical plans.
//!
//! Two entry points:
//!
//! * [`compile`] — straightforward translation of a subgraph (used for view
//!   materialization, the test oracle, and as a fallback);
//! * [`compile_restricted`] — compiles a subgraph *semi-joined with a small
//!   driver relation of affected keys*, pushing the restriction down
//!   through group-bys, selects, projects and joins until it reaches base
//!   tables, where it becomes an index probe. This is the paper's §5.2
//!   "push down the join on affected keys" (visible in Fig. 16, where
//!   `ProductCount` computes vendor counts only for `AffectedKeys`), and is
//!   what keeps trigger cost proportional to the update, not the database
//!   (Fig. 23).
//!
//! Both share a memo so that subgraphs referenced multiple times (the
//! affected-key union feeding OLD and NEW branches) compile to *shared*
//! plan nodes, which the executor then evaluates once.
//!
//! Produced plan nodes are **hash-consed** within one compiler: a node
//! whose kind and (already-interned) children structurally match an earlier
//! node reuses that node's `Arc`. Together with restricted-compilation
//! memoization keyed on the *structural fingerprint* of the driver (not its
//! allocation identity), this makes the number of distinct compiled
//! subplans proportional to the number of distinct (operator, restriction)
//! pairs — the recursion used to rebuild identical driver pipelines at
//! every join level, which blew compilation up exponentially in view depth.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use quark_relational::expr::{BinOp, Expr};
use quark_relational::plan::{JoinKind, PhysicalPlan, PlanRef, TransitionSide};
use quark_relational::{Covering, Database, Error, Result};

use crate::graph::{Graph, OpId, OpKind, TableSource};

/// A small relation of key tuples that restricts a compiled subgraph.
///
/// Driver rows must be duplicate-free (build them with a `Distinct`); the
/// restricted compiler joins base tables directly against them.
#[derive(Debug, Clone)]
pub struct Driver {
    /// Plan producing the key rows.
    pub plan: PlanRef,
    /// Columns within the driver rows to match on, ordered like the
    /// restriction columns passed to [`compile_restricted`].
    pub cols: Vec<usize>,
}

/// Compiler state: graph + database + memo tables.
pub struct Compiler<'a> {
    graph: &'a Graph,
    db: &'a Database,
    full: HashMap<OpId, PlanRef>,
    restricted: HashMap<(OpId, Vec<usize>, u64, Vec<usize>), PlanRef>,
    transition_cache: HashMap<OpId, bool>,
    overrides: HashMap<OpId, PlanRef>,
    compensations: HashMap<OpId, AggCompensation>,
    /// Structural fingerprint per plan node, memoized by allocation.
    plan_fp: HashMap<usize, u64>,
    /// Hash-consing table for produced plan nodes.
    plan_intern: HashMap<u64, Vec<PlanRef>>,
}

/// Recipe for the §5.2 GROUPED-AGG optimization: compute a GroupBy's
/// *old* aggregates from its *new* aggregates plus transition-table
/// contributions (`old = new − Δ + ∇`), the inverse of incremental view
/// maintenance. Registered against the old-epoch GroupBy operator it
/// replaces; only distributive aggregates (COUNT(*), SUM) qualify.
#[derive(Debug, Clone)]
pub struct AggCompensation {
    /// The structurally identical current-epoch GroupBy.
    pub new_op: OpId,
    /// The GroupBy's input subgraph with the target table reading ΔT.
    pub delta_input: OpId,
    /// The GroupBy's input subgraph with the target table reading ∇T.
    pub nabla_input: OpId,
    /// Index (among the aggregates) of a COUNT(*) used to filter out
    /// groups that did not exist in the old state (compensated count 0).
    pub existence_agg: Option<usize>,
}

impl<'a> Compiler<'a> {
    /// New compiler over a graph.
    pub fn new(graph: &'a Graph, db: &'a Database) -> Self {
        Compiler {
            graph,
            db,
            full: HashMap::new(),
            restricted: HashMap::new(),
            transition_cache: HashMap::new(),
            overrides: HashMap::new(),
            compensations: HashMap::new(),
            plan_fp: HashMap::new(),
            plan_intern: HashMap::new(),
        }
    }

    /// Structural fingerprint of a plan node, memoized by allocation so a
    /// shared DAG is walked once, not once per path.
    fn fp(&mut self, p: &PlanRef) -> u64 {
        let key = Arc::as_ptr(p) as usize;
        if let Some(&h) = self.plan_fp.get(&key) {
            return h;
        }
        let mut hasher = DefaultHasher::new();
        match p.as_ref() {
            PhysicalPlan::TableScan { table, epoch } => {
                (0u8, table, epoch).hash(&mut hasher);
            }
            PhysicalPlan::TransitionScan {
                table,
                side,
                pruned,
            } => {
                (1u8, table, side, pruned).hash(&mut hasher);
            }
            PhysicalPlan::Values { arity, rows } => {
                (2u8, arity, rows).hash(&mut hasher);
            }
            PhysicalPlan::Filter { input, predicate } => {
                (3u8, self.fp(input), predicate).hash(&mut hasher);
            }
            PhysicalPlan::Project { input, exprs } => {
                (4u8, self.fp(input), exprs).hash(&mut hasher);
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                filter,
            } => {
                (5u8, self.fp(left), self.fp(right)).hash(&mut hasher);
                (left_keys, right_keys, kind, filter).hash(&mut hasher);
            }
            PhysicalPlan::IndexJoin {
                outer,
                table,
                epoch,
                probe,
                kind,
                filter,
            } => {
                (6u8, self.fp(outer), table, epoch).hash(&mut hasher);
                (probe, kind, filter).hash(&mut hasher);
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                predicate,
                kind,
            } => {
                (7u8, self.fp(left), self.fp(right)).hash(&mut hasher);
                (predicate, kind).hash(&mut hasher);
            }
            PhysicalPlan::HashAggregate {
                input,
                group_exprs,
                aggs,
            } => {
                (8u8, self.fp(input), group_exprs, aggs).hash(&mut hasher);
            }
            PhysicalPlan::UnionAll { inputs } => {
                9u8.hash(&mut hasher);
                for i in inputs {
                    self.fp(i).hash(&mut hasher);
                }
            }
            PhysicalPlan::Distinct { input } => {
                (10u8, self.fp(input)).hash(&mut hasher);
            }
            PhysicalPlan::Sort { input, keys } => {
                (11u8, self.fp(input), keys).hash(&mut hasher);
            }
            PhysicalPlan::Unnest { input, expr } => {
                (12u8, self.fp(input), expr).hash(&mut hasher);
            }
        }
        let h = hasher.finish();
        self.plan_fp.insert(key, h);
        h
    }

    /// Hash-cons an already-wrapped plan node: if a structurally identical
    /// node was produced before, return that shared `Arc` instead.
    fn intern_ref(&mut self, p: PlanRef) -> PlanRef {
        let h = self.fp(&p);
        if let Some(candidates) = self.plan_intern.get(&h) {
            for c in candidates {
                if Arc::ptr_eq(c, &p) {
                    return Arc::clone(c);
                }
                if shallow_eq(c, &p) {
                    // `p` is a discarded duplicate about to be freed; its
                    // fingerprint memo entry must die with it, or a later
                    // allocation at the same address would inherit the
                    // wrong fingerprint and poison the restricted memo.
                    let shared = Arc::clone(c);
                    self.plan_fp.remove(&(Arc::as_ptr(&p) as usize));
                    return shared;
                }
            }
        }
        self.plan_intern.entry(h).or_default().push(Arc::clone(&p));
        p
    }

    /// Hash-cons a freshly built node.
    fn intern(&mut self, plan: PhysicalPlan) -> PlanRef {
        self.intern_ref(plan.into_ref())
    }

    /// Build the canonical restriction driver over `plan`: distinct
    /// projections of `cols`, hash-consed so identical drivers share one
    /// allocation (and thereby one restricted-memo key).
    fn driver_over(&mut self, plan: &PlanRef, cols: &[usize]) -> Driver {
        let projected = self.intern(PhysicalPlan::Project {
            input: Arc::clone(plan),
            exprs: cols.iter().map(|&c| Expr::col(c)).collect(),
        });
        let distinct = self.intern(PhysicalPlan::Distinct { input: projected });
        Driver {
            plan: distinct,
            cols: (0..cols.len()).collect(),
        }
    }

    /// Register an aggregate compensation for an old-epoch GroupBy
    /// (see [`AggCompensation`]). Takes effect in restricted compilation.
    pub fn add_compensation(&mut self, old_op: OpId, recipe: AggCompensation) {
        self.compensations.insert(old_op, recipe);
    }

    /// Register a replacement plan for an operator. Both full and
    /// restricted compilation return the override verbatim — the caller
    /// guarantees it already embodies any required restriction (used by the
    /// GROUPED-AGG old-aggregate compensation, §5.2).
    pub fn override_op(&mut self, op: OpId, plan: PlanRef) {
        self.overrides.insert(op, plan);
    }

    /// Compile the subgraph rooted at `op` without restriction.
    pub fn compile(&mut self, op: OpId) -> Result<PlanRef> {
        if let Some(hit) = self.overrides.get(&op) {
            return Ok(Arc::clone(hit));
        }
        if let Some(hit) = self.full.get(&op) {
            return Ok(Arc::clone(hit));
        }
        let plan = self.compile_uncached(op)?;
        self.full.insert(op, Arc::clone(&plan));
        Ok(plan)
    }

    fn compile_uncached(&mut self, id: OpId) -> Result<PlanRef> {
        let op = self.graph.op(id).clone();
        Ok(match &op.kind {
            OpKind::Table { table, source } => {
                let plan = table_plan(table, *source);
                self.intern_ref(plan)
            }
            OpKind::Select { predicate } => {
                let input = self.compile(op.inputs[0])?;
                self.intern(PhysicalPlan::Filter {
                    input,
                    predicate: predicate.clone(),
                })
            }
            OpKind::Project { exprs, .. } => {
                let input = self.compile(op.inputs[0])?;
                self.intern(PhysicalPlan::Project {
                    input,
                    exprs: exprs.clone(),
                })
            }
            OpKind::Join { kind, predicate } => {
                if let Some(plan) =
                    self.delta_driven_join(op.inputs[0], op.inputs[1], *kind, predicate.as_ref())?
                {
                    return Ok(plan);
                }
                let left = self.compile(op.inputs[0])?;
                let right = self.compile(op.inputs[1])?;
                let left_arity = self.graph.arity(op.inputs[0], self.db)?;
                let plan = join_plan(left, right, left_arity, *kind, predicate.as_ref());
                self.intern_ref(plan)
            }
            OpKind::GroupBy {
                group_cols, aggs, ..
            } => {
                let input = self.compile(op.inputs[0])?;
                self.intern(PhysicalPlan::HashAggregate {
                    input,
                    group_exprs: group_cols.iter().map(|&c| Expr::col(c)).collect(),
                    aggs: aggs.clone(),
                })
            }
            OpKind::Union => {
                let mut inputs = Vec::with_capacity(op.inputs.len());
                for &i in &op.inputs {
                    inputs.push(self.compile(i)?);
                }
                let union = self.intern(PhysicalPlan::UnionAll { inputs });
                self.intern(PhysicalPlan::Distinct { input: union })
            }
            OpKind::Unnest { expr, .. } => {
                let input = self.compile(op.inputs[0])?;
                self.intern(PhysicalPlan::Unnest {
                    input,
                    expr: expr.clone(),
                })
            }
        })
    }

    /// The key trigger-pushdown rewrite (§5.2 "push down the join on
    /// affected keys"): when one join input derives from transition tables
    /// (and is therefore tiny), compile it fully and use its join-key values
    /// to *restrict* the other input instead of scanning it. This is what
    /// turns `Join(AffectedKeys, G)` into index probes.
    fn delta_driven_join(
        &mut self,
        left: OpId,
        right: OpId,
        kind: JoinKind,
        predicate: Option<&Expr>,
    ) -> Result<Option<PlanRef>> {
        let l_small = self.contains_transition(left);
        let r_small = self.contains_transition(right);
        if l_small == r_small {
            return Ok(None); // both small or both large: no driver side
        }
        let left_arity = self.graph.arity(left, self.db)?;
        let Some(pred) = predicate else {
            return Ok(None);
        };
        let (equi, _residual) = split_equi(pred, left_arity);
        if equi.is_empty() {
            return Ok(None);
        }
        if l_small {
            // Restrict the right side; valid for all left-preserving kinds.
            let small = self.compile(left)?;
            let lcols: Vec<usize> = equi.iter().map(|&(l, _)| l).collect();
            let rcols: Vec<usize> = equi.iter().map(|&(_, r)| r).collect();
            let driver = self.driver_over(&small, &lcols);
            let restricted = self.compile_restricted(right, &rcols, &driver)?;
            let plan = join_plan(small, restricted, left_arity, kind, predicate);
            return Ok(Some(self.intern_ref(plan)));
        }
        // Small side on the right: only an inner join lets us restrict the
        // left input without changing semantics.
        if kind != JoinKind::Inner {
            return Ok(None);
        }
        let small = self.compile(right)?;
        let lcols: Vec<usize> = equi.iter().map(|&(l, _)| l).collect();
        let rcols: Vec<usize> = equi.iter().map(|&(_, r)| r).collect();
        let driver = self.driver_over(&small, &rcols);
        let restricted = self.compile_restricted(left, &lcols, &driver)?;
        let plan = join_plan(restricted, small, left_arity, kind, predicate);
        Ok(Some(self.intern_ref(plan)))
    }

    /// Does the subtree under `op` read a transition table?
    fn contains_transition(&mut self, op: OpId) -> bool {
        if let Some(&hit) = self.transition_cache.get(&op) {
            return hit;
        }
        let node = self.graph.op(op);
        let found = matches!(
            node.kind,
            OpKind::Table {
                source: TableSource::Delta { .. } | TableSource::Nabla { .. },
                ..
            }
        ) || node
            .inputs
            .clone()
            .iter()
            .any(|&i| self.contains_transition(i));
        self.transition_cache.insert(op, found);
        found
    }

    /// Compile `op` restricted to rows whose `cols` values appear in the
    /// driver. Output columns are exactly `op`'s columns.
    pub fn compile_restricted(
        &mut self,
        id: OpId,
        cols: &[usize],
        driver: &Driver,
    ) -> Result<PlanRef> {
        debug_assert_eq!(cols.len(), driver.cols.len());
        if let Some(hit) = self.overrides.get(&id) {
            return Ok(Arc::clone(hit));
        }
        // Keyed on the driver's *structure*, not its allocation: the
        // recursion derives equivalent drivers along many paths, and each
        // must map to one compiled subplan.
        let memo_key = (
            id,
            cols.to_vec(),
            self.fp(&driver.plan),
            driver.cols.clone(),
        );
        if let Some(hit) = self.restricted.get(&memo_key) {
            return Ok(Arc::clone(hit));
        }
        let plan = self.compile_restricted_uncached(id, cols, driver)?;
        self.restricted.insert(memo_key, Arc::clone(&plan));
        Ok(plan)
    }

    fn compile_restricted_uncached(
        &mut self,
        id: OpId,
        cols: &[usize],
        driver: &Driver,
    ) -> Result<PlanRef> {
        // An unrestricted call degenerates to full compilation.
        if cols.is_empty() {
            return self.compile(id);
        }
        if let Some(recipe) = self.compensations.get(&id).cloned() {
            return self.compile_compensated(cols, driver, &recipe);
        }
        let op = self.graph.op(id).clone();
        match &op.kind {
            OpKind::Table { table, source } => {
                match source {
                    TableSource::Base(epoch) => {
                        if let Some(probe_pairs) = self.index_probe(table, cols, driver)? {
                            let table_arity = self.db.table(table)?.schema().arity();
                            let driver_arity = driver.plan.arity(self.db)?;
                            let joined = self.intern(PhysicalPlan::IndexJoin {
                                outer: Arc::clone(&driver.plan),
                                table: table.clone(),
                                epoch: *epoch,
                                probe: probe_pairs,
                                kind: JoinKind::Inner,
                                filter: None,
                            });
                            // Keep only the table's columns. Driver keys are
                            // distinct and probe columns functionally depend
                            // on the key, so no duplicates arise.
                            let exprs = (0..table_arity)
                                .map(|c| Expr::col(driver_arity + c))
                                .collect();
                            return Ok(self.intern(PhysicalPlan::Project {
                                input: joined,
                                exprs,
                            }));
                        }
                        self.fallback_semi(id, cols, driver)
                    }
                    // Transition tables are already tiny; a hash semi-join
                    // is as good as a probe.
                    TableSource::Delta { .. } | TableSource::Nabla { .. } => {
                        self.fallback_semi(id, cols, driver)
                    }
                }
            }
            OpKind::Select { predicate } => {
                let input = self.compile_restricted(op.inputs[0], cols, driver)?;
                Ok(self.intern(PhysicalPlan::Filter {
                    input,
                    predicate: predicate.clone(),
                }))
            }
            OpKind::Project { exprs, .. } => {
                let mut mapped = Vec::with_capacity(cols.len());
                for &c in cols {
                    match exprs.get(c) {
                        Some(Expr::Col(i)) => mapped.push(*i),
                        _ => return self.fallback_semi(id, cols, driver),
                    }
                }
                let input = self.compile_restricted(op.inputs[0], &mapped, driver)?;
                Ok(self.intern(PhysicalPlan::Project {
                    input,
                    exprs: exprs.clone(),
                }))
            }
            OpKind::GroupBy {
                group_cols, aggs, ..
            } => {
                // Restriction on grouping columns selects whole groups, so
                // aggregates over the restricted input stay exact — this is
                // the step that makes Fig. 16's ProductCount correct.
                let mut mapped = Vec::with_capacity(cols.len());
                for &c in cols {
                    match group_cols.get(c) {
                        Some(&g) => mapped.push(g),
                        None => return self.fallback_semi(id, cols, driver),
                    }
                }
                let input = self.compile_restricted(op.inputs[0], &mapped, driver)?;
                Ok(self.intern(PhysicalPlan::HashAggregate {
                    input,
                    group_exprs: group_cols.iter().map(|&c| Expr::col(c)).collect(),
                    aggs: aggs.clone(),
                }))
            }
            OpKind::Join { kind, predicate } => {
                self.restrict_join(id, &op.inputs, *kind, predicate.as_ref(), cols, driver)
            }
            OpKind::Union => {
                let mut inputs = Vec::with_capacity(op.inputs.len());
                for &i in &op.inputs {
                    inputs.push(self.compile_restricted(i, cols, driver)?);
                }
                let union = self.intern(PhysicalPlan::UnionAll { inputs });
                Ok(self.intern(PhysicalPlan::Distinct { input: union }))
            }
            OpKind::Unnest { expr, .. } => {
                let input_arity = self.graph.arity(op.inputs[0], self.db)?;
                if cols.iter().all(|&c| c < input_arity) {
                    let input = self.compile_restricted(op.inputs[0], cols, driver)?;
                    Ok(self.intern(PhysicalPlan::Unnest {
                        input,
                        expr: expr.clone(),
                    }))
                } else {
                    self.fallback_semi(id, cols, driver)
                }
            }
        }
    }

    /// Build the compensation plan: `old = new − Δ-contributions +
    /// ∇-contributions`, grouped and summed, with vanished groups filtered
    /// by the existence count (Fig. 16 lines 27–51 generalize to this).
    fn compile_compensated(
        &mut self,
        cols: &[usize],
        driver: &Driver,
        recipe: &AggCompensation,
    ) -> Result<PlanRef> {
        let OpKind::GroupBy {
            group_cols, aggs, ..
        } = &self.graph.op(recipe.new_op).kind
        else {
            return Err(Error::Plan("compensation target is not a GroupBy".into()));
        };
        let group_cols = group_cols.clone();
        let aggs = aggs.clone();
        let glen = group_cols.len();

        // Per-aggregate contribution of one input row.
        let mut contributions = Vec::with_capacity(aggs.len());
        for a in &aggs {
            use quark_relational::expr::AggFunc;
            let c = match (&a.func, &a.arg) {
                (AggFunc::CountStar, _) => Expr::lit(1i64),
                (AggFunc::Sum, Some(arg)) => arg.clone(),
                other => {
                    return Err(Error::Plan(format!(
                        "aggregate {other:?} is not distributive; no compensation"
                    )))
                }
            };
            contributions.push(c);
        }
        let branch_exprs = |negate: bool| -> Vec<Expr> {
            group_cols
                .iter()
                .map(|&c| Expr::col(c))
                .chain(contributions.iter().map(|c| {
                    if negate {
                        Expr::bin(BinOp::Sub, Expr::lit(0i64), c.clone())
                    } else {
                        c.clone()
                    }
                }))
                .collect()
        };

        let new_rows = self.compile_restricted(recipe.new_op, cols, driver)?;
        let delta_input = self.compile(recipe.delta_input)?;
        let delta_rows = self.intern(PhysicalPlan::Project {
            input: delta_input,
            exprs: branch_exprs(true),
        });
        let nabla_input = self.compile(recipe.nabla_input)?;
        let nabla_rows = self.intern(PhysicalPlan::Project {
            input: nabla_input,
            exprs: branch_exprs(false),
        });

        let union = self.intern(PhysicalPlan::UnionAll {
            inputs: vec![new_rows, delta_rows, nabla_rows],
        });
        let summed = self.intern(PhysicalPlan::HashAggregate {
            input: union,
            group_exprs: (0..glen).map(Expr::col).collect(),
            aggs: (0..aggs.len())
                .map(|i| {
                    quark_relational::expr::AggExpr::over(
                        quark_relational::expr::AggFunc::Sum,
                        Expr::col(glen + i),
                    )
                })
                .collect(),
        });
        Ok(match recipe.existence_agg {
            Some(e) => self.intern(PhysicalPlan::Filter {
                input: summed,
                predicate: Expr::bin(BinOp::Gt, Expr::col(glen + e), Expr::lit(0i64)),
            }),
            None => summed,
        })
    }

    fn restrict_join(
        &mut self,
        id: OpId,
        inputs: &[OpId],
        kind: JoinKind,
        predicate: Option<&Expr>,
        cols: &[usize],
        driver: &Driver,
    ) -> Result<PlanRef> {
        let left_arity = self.graph.arity(inputs[0], self.db)?;
        let on_left: Vec<(usize, usize)> = cols
            .iter()
            .enumerate()
            .filter(|(_, &c)| c < left_arity)
            .map(|(i, &c)| (i, c))
            .collect();
        let on_right: Vec<(usize, usize)> = cols
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= left_arity)
            .map(|(i, &c)| (i, c - left_arity))
            .collect();

        if on_right.is_empty() {
            // All restriction columns come from the left input: restrict it
            // and re-join the right side (via index probe when possible).
            let lcols: Vec<usize> = on_left.iter().map(|&(_, c)| c).collect();
            let left = self.compile_restricted(inputs[0], &lcols, driver)?;
            return self.join_against(left, left_arity, inputs[1], kind, predicate);
        }

        if on_left.is_empty() && kind == JoinKind::Inner {
            // Mirror case: restrict the right side, then reorder columns.
            let rcols: Vec<usize> = on_right.iter().map(|&(_, c)| c).collect();
            let right = self.compile_restricted(inputs[1], &rcols, driver)?;
            let right_arity = self.graph.arity(inputs[1], self.db)?;
            // Join restricted-right (as the driving side) back to the left.
            let swapped_pred = predicate.map(|p| {
                p.remap_columns(&|c| {
                    if c < left_arity {
                        right_arity + c
                    } else {
                        c - left_arity
                    }
                })
            });
            // Drive the left side from the restricted right side's join-key
            // values when the predicate yields equi-pairs.
            let left_plan = match predicate.map(|p| split_equi(p, left_arity)) {
                Some((equi, _)) if !equi.is_empty() => {
                    let lcols: Vec<usize> = equi.iter().map(|&(l, _)| l).collect();
                    let rcols: Vec<usize> = equi.iter().map(|&(_, r)| r).collect();
                    let new_driver = self.driver_over(&right, &rcols);
                    self.compile_restricted(inputs[0], &lcols, &new_driver)?
                }
                _ => self.compile(inputs[0])?,
            };
            let joined = join_plan(
                right,
                left_plan,
                right_arity,
                JoinKind::Inner,
                swapped_pred.as_ref(),
            );
            let joined = self.intern_ref(joined);
            // Reorder to (left ++ right).
            let exprs = (0..left_arity)
                .map(|c| Expr::col(right_arity + c))
                .chain((0..right_arity).map(Expr::col))
                .collect();
            return Ok(self.intern(PhysicalPlan::Project {
                input: joined,
                exprs,
            }));
        }

        if kind == JoinKind::Inner {
            // Restriction columns span both sides: restrict each side with
            // the driver projected onto that side's columns, join, then
            // apply the exact semi-join against the full driver.
            let dl_cols: Vec<usize> = on_left.iter().map(|&(i, _)| driver.cols[i]).collect();
            let dr_cols: Vec<usize> = on_right.iter().map(|&(i, _)| driver.cols[i]).collect();
            let dl = self.driver_over(&driver.plan, &dl_cols);
            let dr = self.driver_over(&driver.plan, &dr_cols);
            let lcols: Vec<usize> = on_left.iter().map(|&(_, c)| c).collect();
            let rcols: Vec<usize> = on_right.iter().map(|&(_, c)| c).collect();
            let left = self.compile_restricted(inputs[0], &lcols, &dl)?;
            let right = self.compile_restricted(inputs[1], &rcols, &dr)?;
            let joined = join_plan(left, right, left_arity, kind, predicate);
            let joined = self.intern_ref(joined);
            return Ok(self.intern(PhysicalPlan::HashJoin {
                left: joined,
                right: Arc::clone(&driver.plan),
                left_keys: cols.iter().map(|&c| Expr::col(c)).collect(),
                right_keys: driver.cols.iter().map(|&c| Expr::col(c)).collect(),
                kind: JoinKind::LeftSemi,
                filter: None,
            }));
        }

        self.fallback_semi(id, cols, driver)
    }

    /// Join an already-restricted left plan against the (unrestricted)
    /// right input, probing the right side's index when it is a base table
    /// and the join predicate supplies equi-pairs over its primary key or
    /// an indexed column.
    fn join_against(
        &mut self,
        left: PlanRef,
        left_arity: usize,
        right_id: OpId,
        kind: JoinKind,
        predicate: Option<&Expr>,
    ) -> Result<PlanRef> {
        let right_op = self.graph.op(right_id);
        if let OpKind::Table {
            table,
            source: TableSource::Base(epoch),
        } = &right_op.kind
        {
            if let Some(pred) = predicate {
                let (equi, residual) = split_equi(pred, left_arity);
                if !equi.is_empty() {
                    let t = self.db.table(table)?;
                    let schema = t.schema();
                    let rcols: Vec<usize> = equi.iter().map(|&(_, r)| r).collect();
                    let probe: Option<Vec<(usize, Expr)>> = if set_eq(&rcols, &schema.primary_key) {
                        // Order the probes to match the pk sequence.
                        Some(
                            schema
                                .primary_key
                                .iter()
                                .map(|pk| {
                                    let (l, r) = equi
                                        .iter()
                                        .find(|&&(_, r)| r == *pk)
                                        .expect("set_eq checked");
                                    (*r, Expr::col(*l))
                                })
                                .collect(),
                        )
                    } else {
                        equi.iter()
                            .find(|&&(_, r)| self.db.table(table).is_ok_and(|t| t.has_index(r)))
                            .map(|&(l, r)| vec![(r, Expr::col(l))])
                    };
                    if let Some(probe) = probe {
                        // Conjuncts not used for probing stay as a filter
                        // over (outer ++ inner) — same coordinates.
                        let mut residual = residual;
                        for &(l, r) in &equi {
                            if !probe
                                .iter()
                                .any(|(pc, pe)| *pc == r && matches!(pe, Expr::Col(c) if *c == l))
                            {
                                residual.push(Expr::eq(Expr::col(l), Expr::col(left_arity + r)));
                            }
                        }
                        let filter = if residual.is_empty() {
                            None
                        } else {
                            Some(Expr::and_all(residual))
                        };
                        let epoch = *epoch;
                        let table = table.clone();
                        return Ok(self.intern(PhysicalPlan::IndexJoin {
                            outer: left,
                            table,
                            epoch,
                            probe,
                            kind,
                            filter,
                        }));
                    }
                }
            }
        }
        // Not a directly probe-able table: propagate the restriction by
        // deriving a fresh driver from the restricted left side's join-key
        // values — this is how affected keys reach group-bys nested deep in
        // a multi-level hierarchy view.
        if let Some(pred) = predicate {
            let (equi, _residual) = split_equi(pred, left_arity);
            if !equi.is_empty() {
                let lcols: Vec<usize> = equi.iter().map(|&(l, _)| l).collect();
                let rcols: Vec<usize> = equi.iter().map(|&(_, r)| r).collect();
                let new_driver = self.driver_over(&left, &lcols);
                let right = self.compile_restricted(right_id, &rcols, &new_driver)?;
                let plan = join_plan(left, right, left_arity, kind, predicate);
                return Ok(self.intern_ref(plan));
            }
        }
        let right = self.compile(right_id)?;
        let plan = join_plan(left, right, left_arity, kind, predicate);
        Ok(self.intern_ref(plan))
    }

    /// Try to derive index-probe pairs for restricting `table` directly on
    /// `cols` with the driver: full primary key, or one indexed column.
    fn index_probe(
        &self,
        table: &str,
        cols: &[usize],
        driver: &Driver,
    ) -> Result<Option<Vec<(usize, Expr)>>> {
        let t = self.db.table(table)?;
        Ok(match t.covering(cols) {
            Some(Covering::PrimaryKey(positions)) => Some(
                t.schema()
                    .primary_key
                    .iter()
                    .zip(positions.iter())
                    .map(|(&pk, &i)| (pk, Expr::col(driver.cols[i])))
                    .collect(),
            ),
            Some(Covering::Index(col)) => Some(vec![(col, Expr::col(driver.cols[0]))]),
            None => None,
        })
    }

    /// Correct-but-unpushed restriction: full subplan semi-joined with the
    /// driver.
    fn fallback_semi(&mut self, id: OpId, cols: &[usize], driver: &Driver) -> Result<PlanRef> {
        let full = self.compile(id)?;
        Ok(self.intern(PhysicalPlan::HashJoin {
            left: full,
            right: Arc::clone(&driver.plan),
            left_keys: cols.iter().map(|&c| Expr::col(c)).collect(),
            right_keys: driver.cols.iter().map(|&c| Expr::col(c)).collect(),
            kind: JoinKind::LeftSemi,
            filter: None,
        }))
    }
}

/// Structural equality that compares children by allocation identity —
/// sound for hash-consing because candidates' children are interned, so
/// structurally equal children are pointer-equal. Falling back to deep
/// equality would re-walk shared DAGs once per path.
fn shallow_eq(a: &PhysicalPlan, b: &PhysicalPlan) -> bool {
    use PhysicalPlan as P;
    match (a, b) {
        (
            P::TableScan {
                table: ta,
                epoch: ea,
            },
            P::TableScan {
                table: tb,
                epoch: eb,
            },
        ) => ta == tb && ea == eb,
        (
            P::TransitionScan {
                table: ta,
                side: sa,
                pruned: pa,
            },
            P::TransitionScan {
                table: tb,
                side: sb,
                pruned: pb,
            },
        ) => ta == tb && sa == sb && pa == pb,
        (
            P::Values {
                arity: aa,
                rows: ra,
            },
            P::Values {
                arity: ab,
                rows: rb,
            },
        ) => aa == ab && ra == rb,
        (
            P::Filter {
                input: ia,
                predicate: pa,
            },
            P::Filter {
                input: ib,
                predicate: pb,
            },
        ) => Arc::ptr_eq(ia, ib) && pa == pb,
        (
            P::Project {
                input: ia,
                exprs: ea,
            },
            P::Project {
                input: ib,
                exprs: eb,
            },
        ) => Arc::ptr_eq(ia, ib) && ea == eb,
        (
            P::HashJoin {
                left: la,
                right: ra,
                left_keys: lka,
                right_keys: rka,
                kind: ka,
                filter: fa,
            },
            P::HashJoin {
                left: lb,
                right: rb,
                left_keys: lkb,
                right_keys: rkb,
                kind: kb,
                filter: fb,
            },
        ) => {
            Arc::ptr_eq(la, lb)
                && Arc::ptr_eq(ra, rb)
                && lka == lkb
                && rka == rkb
                && ka == kb
                && fa == fb
        }
        (
            P::IndexJoin {
                outer: oa,
                table: ta,
                epoch: ea,
                probe: pa,
                kind: ka,
                filter: fa,
            },
            P::IndexJoin {
                outer: ob,
                table: tb,
                epoch: eb,
                probe: pb,
                kind: kb,
                filter: fb,
            },
        ) => Arc::ptr_eq(oa, ob) && ta == tb && ea == eb && pa == pb && ka == kb && fa == fb,
        (
            P::NestedLoopJoin {
                left: la,
                right: ra,
                predicate: pa,
                kind: ka,
            },
            P::NestedLoopJoin {
                left: lb,
                right: rb,
                predicate: pb,
                kind: kb,
            },
        ) => Arc::ptr_eq(la, lb) && Arc::ptr_eq(ra, rb) && pa == pb && ka == kb,
        (
            P::HashAggregate {
                input: ia,
                group_exprs: ga,
                aggs: aa,
            },
            P::HashAggregate {
                input: ib,
                group_exprs: gb,
                aggs: ab,
            },
        ) => Arc::ptr_eq(ia, ib) && ga == gb && aa == ab,
        (P::UnionAll { inputs: ia }, P::UnionAll { inputs: ib }) => {
            ia.len() == ib.len() && ia.iter().zip(ib).all(|(x, y)| Arc::ptr_eq(x, y))
        }
        (P::Distinct { input: ia }, P::Distinct { input: ib }) => Arc::ptr_eq(ia, ib),
        (
            P::Sort {
                input: ia,
                keys: ka,
            },
            P::Sort {
                input: ib,
                keys: kb,
            },
        ) => Arc::ptr_eq(ia, ib) && ka == kb,
        (
            P::Unnest {
                input: ia,
                expr: ea,
            },
            P::Unnest {
                input: ib,
                expr: eb,
            },
        ) => Arc::ptr_eq(ia, ib) && ea == eb,
        _ => false,
    }
}

fn table_plan(table: &str, source: TableSource) -> PlanRef {
    match source {
        TableSource::Base(epoch) => PhysicalPlan::TableScan {
            table: table.to_string(),
            epoch,
        }
        .into_ref(),
        TableSource::Delta { pruned } => PhysicalPlan::TransitionScan {
            table: table.to_string(),
            side: TransitionSide::Delta,
            pruned,
        }
        .into_ref(),
        TableSource::Nabla { pruned } => PhysicalPlan::TransitionScan {
            table: table.to_string(),
            side: TransitionSide::Nabla,
            pruned,
        }
        .into_ref(),
    }
}

/// Build a hash join when the predicate yields equi-pairs, else a nested
/// loop join.
fn join_plan(
    left: PlanRef,
    right: PlanRef,
    left_arity: usize,
    kind: JoinKind,
    predicate: Option<&Expr>,
) -> PlanRef {
    if let Some(pred) = predicate {
        let (equi, residual) = split_equi(pred, left_arity);
        if !equi.is_empty() {
            let filter = if residual.is_empty() {
                None
            } else {
                Some(Expr::and_all(residual))
            };
            return PhysicalPlan::HashJoin {
                left,
                right,
                left_keys: equi.iter().map(|&(l, _)| Expr::col(l)).collect(),
                right_keys: equi.iter().map(|&(_, r)| Expr::col(r)).collect(),
                kind,
                filter,
            }
            .into_ref();
        }
    }
    PhysicalPlan::NestedLoopJoin {
        left,
        right,
        predicate: predicate.cloned(),
        kind,
    }
    .into_ref()
}

/// Split a conjunction into `(left col, right col)` equi-pairs (right cols
/// rebased to the right input's coordinates) and residual conjuncts (in
/// concatenated coordinates).
fn split_equi(pred: &Expr, left_arity: usize) -> (Vec<(usize, usize)>, Vec<Expr>) {
    let mut conjuncts = Vec::new();
    collect_conjuncts(pred, &mut conjuncts);
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &c
        {
            if let (Expr::Col(a), Expr::Col(b)) = (left.as_ref(), right.as_ref()) {
                if *a < left_arity && *b >= left_arity {
                    equi.push((*a, *b - left_arity));
                    continue;
                }
                if *b < left_arity && *a >= left_arity {
                    equi.push((*b, *a - left_arity));
                    continue;
                }
            }
        }
        residual.push(c);
    }
    (equi, residual)
}

fn collect_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        Expr::Lit(v) if v.is_true() => {}
        other => out.push(other.clone()),
    }
}

fn set_eq(a: &[usize], b: &[usize]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_unstable();
    sb.sort_unstable();
    sa == sb
}

/// One-shot full compilation.
pub fn compile(graph: &Graph, root: OpId, db: &Database) -> Result<PlanRef> {
    Compiler::new(graph, db).compile(root)
}

/// One-shot restricted compilation (see [`Compiler::compile_restricted`]).
pub fn compile_restricted(
    graph: &Graph,
    root: OpId,
    cols: &[usize],
    driver: &Driver,
    db: &Database,
) -> Result<PlanRef> {
    Compiler::new(graph, db).compile_restricted(root, cols, driver)
}

/// Guard for misuse in tests.
#[allow(dead_code)]
fn _static_checks() {
    fn assert_send<T: Send>() {}
    assert_send::<Error>();
}
