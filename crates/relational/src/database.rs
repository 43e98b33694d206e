//! The database: named tables, data-change statements, and statement-level
//! AFTER triggers with transition tables — the exact interface the paper
//! assumes of the underlying RDBMS (§2.3, §3.2).
//!
//! Triggers fire once per *statement* (not per row, not per transaction),
//! matching the paper's stated granularity. A firing trigger sees the Δ
//! (`INSERTED`) and ∇ (`DELETED`) transition tables of its statement and the
//! post-statement database state, and may itself execute statements (e.g.
//! the benchmark action inserts into a temporary table); cascades are capped
//! at a DB2-like nesting depth of 16.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::exec::{execute, ExecCache, ExecContext};
use crate::expr::{BinOp, Expr};
use crate::plan::PlanRef;
use crate::schema::TableSchema;
use crate::table::{Covering, Table};
use crate::value::{ColumnType, Row, Value};
use crate::wire::RedoOp;
use crate::{Error, Result};

/// Relational statement kinds, which double as trigger event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Event {
    /// `INSERT` statements / triggers.
    Insert,
    /// `UPDATE` statements / triggers.
    Update,
    /// `DELETE` statements / triggers.
    Delete,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Insert => f.write_str("INSERT"),
            Event::Update => f.write_str("UPDATE"),
            Event::Delete => f.write_str("DELETE"),
        }
    }
}

/// Transition tables of one statement: Δ = `inserted`, ∇ = `deleted`
/// (paper notation; DB2's `NEW_TABLE`/`OLD_TABLE`).
#[derive(Debug, Clone)]
pub struct TransitionTables {
    /// Table the statement changed.
    pub table: String,
    /// Statement kind.
    pub event: Event,
    /// Post-change versions of affected rows (empty for DELETE).
    pub inserted: Vec<Row>,
    /// Pre-change versions of affected rows (empty for INSERT).
    pub deleted: Vec<Row>,
}

/// Callback receiving the rows produced by a query-bodied trigger.
///
/// Takes `&Database`: every data-change entry point is interior-mutable
/// (per-table latches), so a cascade can run while the session layer holds
/// only a shared reference — the requirement behind footprint-scoped
/// parallel writers.
pub type RowsHandler = dyn Fn(&Database, Vec<Row>) -> Result<()> + Send + Sync;

/// Callback for a native-bodied trigger (same `&Database` contract as
/// [`RowsHandler`]).
pub type NativeTriggerFn = dyn Fn(&Database, &TransitionTables) -> Result<()> + Send + Sync;

/// Body of a registered statement trigger.
#[derive(Clone)]
pub enum TriggerBody {
    /// Evaluate `plan` with the statement's transition tables bound, then
    /// pass the result rows to `handler`. This is the form every translated
    /// XML trigger takes (the plan is the paper's generated SQL query).
    Query {
        /// The trigger body query.
        plan: PlanRef,
        /// Consumer of the query result.
        handler: Arc<RowsHandler>,
    },
    /// Arbitrary native logic over the transition tables (used by the
    /// materialized-view oracle baseline).
    Native(Arc<NativeTriggerFn>),
}

impl fmt::Debug for TriggerBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriggerBody::Query { plan, .. } => write!(f, "Query({})", plan.explain().trim()),
            TriggerBody::Native(_) => f.write_str("Native(..)"),
        }
    }
}

/// A statement-level AFTER trigger.
#[derive(Debug, Clone)]
pub struct SqlTrigger {
    /// Unique trigger name.
    pub name: String,
    /// Monitored table.
    pub table: String,
    /// Monitored statement kind.
    pub event: Event,
    /// What to run when fired.
    pub body: TriggerBody,
}

/// Simple execution counters, used by benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Data-change statements that completed, including those that
    /// matched no row; a statement that failed and was rolled back does
    /// not count.
    pub statements: u64,
    /// Trigger bodies evaluated.
    pub triggers_fired: u64,
    /// Rows visited by full table scans — `TableScan` operators plus the
    /// scans the statement access planner falls back to for `SELECT`,
    /// `UPDATE` and `DELETE`. Together with [`Stats::index_probes`] this
    /// lets tests assert probe-not-scan instead of inferring it from
    /// wall-clock time. A clone (`Database::clone`) starts from a copy of
    /// these counters and counts on its own, so reads a session serves
    /// from a published snapshot never reach the live database's `STATS`.
    pub rows_scanned: u64,
    /// Primary-key and secondary-index equality probes: one per index-join
    /// probe and one per statement the access planner answers by a probe
    /// (hit or miss). Snapshot reads are not seen, as for
    /// [`Stats::rows_scanned`].
    pub index_probes: u64,
    /// Join build sides / stable subplan results served from the
    /// cross-firing executor cache instead of being rebuilt.
    pub build_cache_hits: u64,
    /// Footprint-latch acquisitions that had to block because another
    /// writer held part of the requested footprint (one per blocking wait;
    /// a single contended acquisition can wait more than once).
    pub latch_waits: u64,
    /// Footprint-latch acquisitions that found at least one requested
    /// table latched by another writer (one per contended acquisition).
    pub latch_conflicts: u64,
    /// Tables latched in **shared** mode by footprint-latched writers (one
    /// per read-set table per acquisition) — the read side of a trigger
    /// footprint, held concurrently by overlapping writers.
    pub latch_shared_acquisitions: u64,
    /// Tables latched in **exclusive** mode by footprint-latched writers
    /// (one per write-set table per acquisition).
    pub latch_exclusive_acquisitions: u64,
    /// Statements whose execution was folded into a coalesced batch by
    /// `Session::execute_batch` (each member of a merged run counts).
    pub batched_statements: u64,
    /// Well-formed request frames decoded by the network front door
    /// (zero for in-process sessions; bumped by `quark-server`).
    pub frames_received: u64,
    /// Frames or connections the server refused: torn/oversized/CRC-bad
    /// frames, unknown tags, and admission rejections when the worker
    /// pool's accept queue was full.
    pub frames_rejected: u64,
    /// Pipelined same-table `INSERT` runs the server coalesced into one
    /// `Session::execute_batch` call (one per coalesced run).
    pub pipelined_batches: u64,
    /// Times a connection's pipeline window filled and the server stopped
    /// reading from the socket until in-flight statements drained —
    /// explicit backpressure instead of unbounded buffering.
    pub backpressure_stalls: u64,
    /// Connections currently being served by the worker pool (a gauge,
    /// not a monotonic counter).
    pub active_connections: u64,
    /// Bytes appended to the write-ahead log (zero for in-memory
    /// databases; filled in by the storage engine one layer up).
    pub wal_bytes_written: u64,
    /// `fsync` calls issued by the write-ahead log.
    pub wal_fsyncs: u64,
    /// Group-commit fsync batches: one per `fsync` the WAL's group
    /// committer issued on behalf of every commit record appended (but not
    /// yet durable) at that moment. Under concurrent writers this stays
    /// below the committed-statement count — the whole point of group
    /// commit.
    pub group_commit_batches: u64,
    /// Checkpoints taken by the storage engine.
    pub checkpoints: u64,
    /// Buffer-pool pages evicted by the clock sweep.
    pub pages_evicted: u64,
    /// Wall-clock milliseconds the last recovery (warm open) took.
    pub recovery_ms: u64,
    /// Table accesses the `footprint-oracle` feature caught outside the
    /// session's latched footprint — a write to a table not latched
    /// exclusive, or a read of a table not latched at all. Always present
    /// so `STATS` output is feature-independent; only ever bumped when the
    /// crate is built with `--features footprint-oracle`, and **must stay
    /// zero**: a nonzero value is a proven data race in the footprint
    /// analysis.
    pub footprint_violations: u64,
}

/// Execution counters. They are bumped during statement and plan
/// execution, where only `&Database` is available (the data-change surface
/// is interior-mutable), so they live behind relaxed atomics and are
/// folded into [`Stats`] snapshots by [`Database::stats`].
#[derive(Debug, Default)]
pub(crate) struct ExecCounters {
    pub(crate) statements: AtomicU64,
    pub(crate) triggers_fired: AtomicU64,
    pub(crate) rows_scanned: AtomicU64,
    pub(crate) index_probes: AtomicU64,
    pub(crate) build_cache_hits: AtomicU64,
    pub(crate) latch_waits: AtomicU64,
    pub(crate) latch_conflicts: AtomicU64,
    pub(crate) latch_shared_acquisitions: AtomicU64,
    pub(crate) latch_exclusive_acquisitions: AtomicU64,
    pub(crate) batched_statements: AtomicU64,
    pub(crate) frames_received: AtomicU64,
    pub(crate) frames_rejected: AtomicU64,
    pub(crate) pipelined_batches: AtomicU64,
    pub(crate) backpressure_stalls: AtomicU64,
    pub(crate) active_connections: AtomicU64,
    pub(crate) footprint_violations: AtomicU64,
}

impl ExecCounters {
    fn add_statement(&self) {
        self.statements.fetch_add(1, Ordering::Relaxed);
    }

    fn add_fired(&self) {
        self.triggers_fired.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_scanned(&self, n: u64) {
        self.rows_scanned.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_probes(&self, n: u64) {
        self.index_probes.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_build_hit(&self) {
        self.build_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ExecCounters {
        ExecCounters {
            statements: AtomicU64::new(self.statements.load(Ordering::Relaxed)),
            triggers_fired: AtomicU64::new(self.triggers_fired.load(Ordering::Relaxed)),
            rows_scanned: AtomicU64::new(self.rows_scanned.load(Ordering::Relaxed)),
            index_probes: AtomicU64::new(self.index_probes.load(Ordering::Relaxed)),
            build_cache_hits: AtomicU64::new(self.build_cache_hits.load(Ordering::Relaxed)),
            latch_waits: AtomicU64::new(self.latch_waits.load(Ordering::Relaxed)),
            latch_conflicts: AtomicU64::new(self.latch_conflicts.load(Ordering::Relaxed)),
            latch_shared_acquisitions: AtomicU64::new(
                self.latch_shared_acquisitions.load(Ordering::Relaxed),
            ),
            latch_exclusive_acquisitions: AtomicU64::new(
                self.latch_exclusive_acquisitions.load(Ordering::Relaxed),
            ),
            batched_statements: AtomicU64::new(self.batched_statements.load(Ordering::Relaxed)),
            frames_received: AtomicU64::new(self.frames_received.load(Ordering::Relaxed)),
            frames_rejected: AtomicU64::new(self.frames_rejected.load(Ordering::Relaxed)),
            pipelined_batches: AtomicU64::new(self.pipelined_batches.load(Ordering::Relaxed)),
            backpressure_stalls: AtomicU64::new(self.backpressure_stalls.load(Ordering::Relaxed)),
            active_connections: AtomicU64::new(self.active_connections.load(Ordering::Relaxed)),
            footprint_violations: AtomicU64::new(self.footprint_violations.load(Ordering::Relaxed)),
        }
    }
}

/// One table's slot in the catalog: the per-table **latch** of the
/// two-level lock hierarchy. Row data sits behind it as a copy-on-write
/// `Arc<Table>`; catalog changes (create/drop/index) take `&mut Database`
/// — the global exclusive level — and never race with slot access.
type TableCell = Arc<RwLock<Arc<Table>>>;

fn new_cell(table: Table) -> TableCell {
    new_cell_arc(Arc::new(table))
}

fn new_cell_arc(table: Arc<Table>) -> TableCell {
    Arc::new(RwLock::new(table))
}

/// An in-memory relational database with statement triggers.
///
/// Every *data-change* entry point takes `&self`: per-table state lives
/// behind per-table `RwLock` latches (`TableCell`), so writers whose
/// table footprints are disjoint can run concurrently — the session layer
/// is responsible for latching a statement's full trigger footprint before
/// executing it. *Catalog* changes (create/drop table, indexes, trigger
/// DDL) still take `&mut self`, which the session layer maps to its global
/// exclusive mode.
///
/// `Clone` copies tables and trigger registrations (triggers share their
/// bodies); the oracle baseline uses clones as shadow states, and the
/// session layer clones to publish concurrent read snapshots. Tables are
/// **copy-on-write** behind `Arc`: a clone is a refcount bump per table,
/// and the first mutation of a table after a clone pays the one-off copy
/// ([`Arc::make_mut`]) — so snapshot republication never walks row
/// storage. A clone gets a **fresh executor cache**: the copy's tables
/// diverge independently while reusing the same per-table version
/// counters, so cached build sides must never cross database instances.
pub struct Database {
    tables: HashMap<String, TableCell>,
    /// `Arc`-shared so publishing a read snapshot clones a pointer, not
    /// the trigger corpus; trigger DDL copies-on-write via `Arc::make_mut`.
    triggers: Arc<Vec<Arc<SqlTrigger>>>,
    trigger_names: Arc<std::collections::HashSet<String>>,
    /// Identity for the thread-local cascade-depth bookkeeping: cascades
    /// never cross threads, but one thread may drive several database
    /// instances (oracle shadow clones), so depth is keyed on both.
    db_id: u64,
    schema_generation: u64,
    /// When set, the mutation entry points append physical [`RedoOp`]s to
    /// a thread-local buffer keyed by `db_id`; the session layer drains it
    /// per statement and hands the batch to the write-ahead log. Off by
    /// default and **never copied by `Clone`**: snapshot clones and oracle
    /// shadows must not log (their fresh `db_id` could not reach the
    /// buffer anyway, but the flag stays off for clarity).
    redo_capture: bool,
    pub(crate) counters: ExecCounters,
    pub(crate) exec_cache: ExecCache,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            tables: HashMap::new(),
            triggers: Arc::new(Vec::new()),
            trigger_names: Arc::new(std::collections::HashSet::new()),
            db_id: NEXT_DB_ID.fetch_add(1, Ordering::Relaxed),
            schema_generation: 0,
            redo_capture: false,
            counters: ExecCounters::default(),
            exec_cache: ExecCache::default(),
        }
    }
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            tables: self
                .tables
                .iter()
                .map(|(name, cell)| {
                    let inner = cell.read().unwrap_or_else(|e| e.into_inner());
                    (name.clone(), Arc::new(RwLock::new(Arc::clone(&inner))))
                })
                .collect(),
            triggers: Arc::clone(&self.triggers),
            trigger_names: Arc::clone(&self.trigger_names),
            db_id: NEXT_DB_ID.fetch_add(1, Ordering::Relaxed),
            schema_generation: self.schema_generation,
            redo_capture: false,
            counters: self.counters.snapshot(),
            exec_cache: ExecCache::new(self.exec_cache.is_enabled()),
        }
    }
}

/// Shared read access to one table, holding its latch for the guard's
/// lifetime. Dereferences to [`Table`].
pub struct TableRef<'a>(RwLockReadGuard<'a, Arc<Table>>);

impl Deref for TableRef<'_> {
    type Target = Table;
    fn deref(&self) -> &Table {
        &self.0
    }
}

/// Exclusive write access to one table, holding its latch for the guard's
/// lifetime. The first mutable dereference after a snapshot publication
/// pays the copy-on-write table copy ([`Arc::make_mut`]).
struct TableWrite<'a>(RwLockWriteGuard<'a, Arc<Table>>);

impl Deref for TableWrite<'_> {
    type Target = Table;
    fn deref(&self) -> &Table {
        &self.0
    }
}

impl DerefMut for TableWrite<'_> {
    fn deref_mut(&mut self) -> &mut Table {
        Arc::make_mut(&mut self.0)
    }
}

/// Global source of database-instance ids (see [`Database::db_id`]).
static NEXT_DB_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Cascade depth per database instance on this thread. A cascade runs
    /// entirely on the thread that executed its root statement, so depth
    /// needs no cross-thread coordination — but it must not live in the
    /// (now shared) `Database`, where two threads' concurrent cascades
    /// would observe each other's nesting.
    static FIRE_DEPTH: RefCell<HashMap<u64, usize>> = RefCell::new(HashMap::new());

    /// Captured redo operations per database instance on this thread (same
    /// keying rationale as `FIRE_DEPTH`: a statement and its whole cascade
    /// run on one thread, so the per-statement redo batch needs no
    /// cross-thread coordination, but two threads' concurrent latched
    /// statements must not interleave their batches).
    static REDO_BUF: RefCell<HashMap<u64, Vec<RedoOp>>> = RefCell::new(HashMap::new());
}

/// What latch coverage the current statement's scope promises (see
/// [`Database::oracle_scope`]).
#[cfg(feature = "footprint-oracle")]
enum OracleState {
    /// Global exclusive mode: every table is covered.
    Global,
    /// Footprint-latched mode: `write` tables are latched exclusive,
    /// `read` tables shared.
    Latched {
        write: BTreeSet<String>,
        read: BTreeSet<String>,
    },
}

#[cfg(feature = "footprint-oracle")]
thread_local! {
    /// Latch scopes per database instance on this thread (same keying
    /// rationale as `FIRE_DEPTH`: a statement and its whole cascade run on
    /// one thread, and one thread may drive several instances). A stack so
    /// scope installation composes; in practice one scope per statement.
    static ORACLE_SCOPES: RefCell<HashMap<u64, Vec<OracleState>>> =
        RefCell::new(HashMap::new());

    /// When nonzero, an oracle violation bumps the counter but does not
    /// panic — the escape hatch tests use to *observe* an intentional
    /// violation (see [`Database::tolerate_footprint_violations`]).
    static ORACLE_TOLERANCE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// RAII handle for a latch scope installed by [`Database::oracle_scope`] /
/// [`Database::oracle_scope_global`]; uninstalls the scope on drop (panic
/// unwind included). A zero-sized no-op unless the crate is built with the
/// `footprint-oracle` feature.
pub struct FootprintScope {
    #[cfg(feature = "footprint-oracle")]
    db_id: u64,
}

#[cfg(feature = "footprint-oracle")]
impl Drop for FootprintScope {
    fn drop(&mut self) {
        ORACLE_SCOPES.with(|m| {
            let mut m = m.borrow_mut();
            if let Some(stack) = m.get_mut(&self.db_id) {
                stack.pop();
                if stack.is_empty() {
                    m.remove(&self.db_id);
                }
            }
        });
    }
}

/// RAII handle suppressing the oracle's panic-on-violation on this thread
/// while alive (the `footprint_violations` counter still counts). Obtained
/// from [`Database::tolerate_footprint_violations`].
pub struct FootprintTolerance {
    _private: (),
}

impl Drop for FootprintTolerance {
    fn drop(&mut self) {
        #[cfg(feature = "footprint-oracle")]
        ORACLE_TOLERANCE.with(|c| c.set(c.get() - 1));
    }
}

/// Decrements the thread-local cascade depth on drop, so a panicking
/// trigger body cannot leave the depth permanently elevated.
struct DepthGuard(u64);

impl Drop for DepthGuard {
    fn drop(&mut self) {
        FIRE_DEPTH.with(|m| {
            let mut m = m.borrow_mut();
            if let Some(d) = m.get_mut(&self.0) {
                *d -= 1;
                if *d == 0 {
                    m.remove(&self.0);
                }
            }
        });
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.keys().collect::<Vec<_>>())
            .field("triggers", &self.triggers.len())
            .finish()
    }
}

const MAX_TRIGGER_DEPTH: usize = 16;

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a table. Fails if the name is taken.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if self.tables.contains_key(&schema.name) {
            return Err(Error::TableExists(schema.name));
        }
        self.tables
            .insert(schema.name.clone(), new_cell(Table::new(schema)));
        self.schema_generation += 1;
        Ok(())
    }

    /// Add a secondary hash index on `table.column`.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        let mut t = self.table_write(table)?;
        let col = t.schema().col(column)?;
        t.create_index(col);
        drop(t);
        self.schema_generation += 1;
        Ok(())
    }

    /// Drop a table and any triggers attached to it.
    pub fn drop_table(&mut self, table: &str) -> Result<()> {
        self.tables
            .remove(table)
            .ok_or_else(|| Error::UnknownTable(table.to_string()))?;
        let names = Arc::make_mut(&mut self.trigger_names);
        for t in self.triggers.iter().filter(|t| t.table == table) {
            names.remove(&t.name);
        }
        Arc::make_mut(&mut self.triggers).retain(|t| t.table != table);
        self.schema_generation += 1;
        Ok(())
    }

    /// Monotonic counter bumped by every schema change (table/index
    /// creation, table drop). Compiled-plan caches key on it so plans built
    /// against an older schema are never reused once the schema moves.
    pub fn schema_generation(&self) -> u64 {
        self.schema_generation
    }

    /// Snapshot of the execution counters: statement/trigger counts plus
    /// the executor's scan/probe/cache observability counters and the
    /// session layer's latch/batching contention counters.
    pub fn stats(&self) -> Stats {
        let c = &self.counters;
        Stats {
            statements: c.statements.load(Ordering::Relaxed),
            triggers_fired: c.triggers_fired.load(Ordering::Relaxed),
            rows_scanned: c.rows_scanned.load(Ordering::Relaxed),
            index_probes: c.index_probes.load(Ordering::Relaxed),
            build_cache_hits: c.build_cache_hits.load(Ordering::Relaxed),
            latch_waits: c.latch_waits.load(Ordering::Relaxed),
            latch_conflicts: c.latch_conflicts.load(Ordering::Relaxed),
            latch_shared_acquisitions: c.latch_shared_acquisitions.load(Ordering::Relaxed),
            latch_exclusive_acquisitions: c.latch_exclusive_acquisitions.load(Ordering::Relaxed),
            batched_statements: c.batched_statements.load(Ordering::Relaxed),
            frames_received: c.frames_received.load(Ordering::Relaxed),
            frames_rejected: c.frames_rejected.load(Ordering::Relaxed),
            pipelined_batches: c.pipelined_batches.load(Ordering::Relaxed),
            backpressure_stalls: c.backpressure_stalls.load(Ordering::Relaxed),
            active_connections: c.active_connections.load(Ordering::Relaxed),
            footprint_violations: c.footprint_violations.load(Ordering::Relaxed),
            // Storage counters live in the storage engine; `Quark::stats`
            // merges them in when the system was opened durably.
            wal_bytes_written: 0,
            wal_fsyncs: 0,
            group_commit_batches: 0,
            checkpoints: 0,
            pages_evicted: 0,
            recovery_ms: 0,
        }
    }

    /// Record one blocking wait during a footprint-latch acquisition
    /// (bumped by the session layer's latch manager).
    pub fn note_latch_wait(&self) {
        self.counters.latch_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` blocking waits observed by one footprint-latch
    /// acquisition (bumped by the session layer's latch manager).
    pub fn note_latch_waits(&self, n: u64) {
        self.counters.latch_waits.fetch_add(n, Ordering::Relaxed);
    }

    /// Record the per-mode table counts of one admitted footprint-latch
    /// acquisition: `shared` read-set tables and `exclusive` write-set
    /// tables.
    pub fn note_latch_acquisitions(&self, shared: u64, exclusive: u64) {
        self.counters
            .latch_shared_acquisitions
            .fetch_add(shared, Ordering::Relaxed);
        self.counters
            .latch_exclusive_acquisitions
            .fetch_add(exclusive, Ordering::Relaxed);
    }

    /// Record one contended footprint-latch acquisition (bumped by the
    /// session layer's latch manager).
    pub fn note_latch_conflict(&self) {
        self.counters
            .latch_conflicts
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` statements executed as part of one coalesced batch
    /// (bumped by `Session::execute_batch`).
    pub fn note_batched(&self, n: u64) {
        self.counters
            .batched_statements
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` well-formed request frames decoded off the wire
    /// (bumped by the `quark-server` front door).
    pub fn note_frames_received(&self, n: u64) {
        self.counters
            .frames_received
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record one rejected frame or connection: a torn/oversized/CRC-bad
    /// frame, an unknown request tag, or a busy-rejected connection.
    pub fn note_frame_rejected(&self) {
        self.counters
            .frames_rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record one pipelined `INSERT` run coalesced into a batched
    /// execution by the server.
    pub fn note_pipelined_batch(&self) {
        self.counters
            .pipelined_batches
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record one backpressure stall: a connection's pipeline window
    /// filled and the server stopped reading until it drained.
    pub fn note_backpressure_stall(&self) {
        self.counters
            .backpressure_stalls
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Adjust the served-connection gauge by ±1 (worker picks a
    /// connection up / finishes with it).
    pub fn note_connection(&self, open: bool) {
        if open {
            self.counters
                .active_connections
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters
                .active_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Footprint oracle (the `footprint-oracle` feature)
    // ------------------------------------------------------------------

    /// Install a **latched** oracle scope for the current thread: until
    /// the returned guard drops, every table access on this database from
    /// this thread must be covered by the declared footprint — mutations
    /// by `write`, reads by `write ∪ read`. The session layer installs
    /// this around footprint-latched statement execution with exactly the
    /// table sets it latched, making the latch claim dynamically checked.
    ///
    /// No-op (and zero-cost) unless the crate is built with the
    /// `footprint-oracle` feature; callers install scopes unconditionally.
    #[allow(unused_variables)]
    pub fn oracle_scope(
        &self,
        write: &BTreeSet<String>,
        read: &BTreeSet<String>,
    ) -> FootprintScope {
        #[cfg(feature = "footprint-oracle")]
        {
            ORACLE_SCOPES.with(|m| {
                m.borrow_mut()
                    .entry(self.db_id)
                    .or_default()
                    .push(OracleState::Latched {
                        write: write.clone(),
                        read: read.clone(),
                    })
            });
            FootprintScope { db_id: self.db_id }
        }
        #[cfg(not(feature = "footprint-oracle"))]
        FootprintScope {}
    }

    /// Install a **global** oracle scope: the session holds the level-1
    /// lock exclusively, so every table is covered. See
    /// [`Database::oracle_scope`].
    pub fn oracle_scope_global(&self) -> FootprintScope {
        #[cfg(feature = "footprint-oracle")]
        {
            ORACLE_SCOPES.with(|m| {
                m.borrow_mut()
                    .entry(self.db_id)
                    .or_default()
                    .push(OracleState::Global)
            });
            FootprintScope { db_id: self.db_id }
        }
        #[cfg(not(feature = "footprint-oracle"))]
        FootprintScope {}
    }

    /// Suppress the oracle's panic-on-violation on the calling thread
    /// while the returned guard lives — the `footprint_violations`
    /// counter still counts, so a test can provoke an intentional
    /// violation and assert it was detected without unwinding.
    pub fn tolerate_footprint_violations() -> FootprintTolerance {
        #[cfg(feature = "footprint-oracle")]
        ORACLE_TOLERANCE.with(|c| c.set(c.get() + 1));
        FootprintTolerance { _private: () }
    }

    /// Assert that accessing `name` (mutating or reading) is covered by
    /// the innermost oracle scope installed on this thread for this
    /// database instance. Outside any scope — programmatic access, oracle
    /// shadow clones, recovery replay — nothing is checked.
    #[cfg(feature = "footprint-oracle")]
    fn oracle_check(&self, name: &str, mutating: bool) {
        let covered =
            ORACLE_SCOPES.with(
                |m| match m.borrow().get(&self.db_id).and_then(|s| s.last()) {
                    None | Some(OracleState::Global) => true,
                    Some(OracleState::Latched { write, read }) => {
                        write.contains(name) || (!mutating && read.contains(name))
                    }
                },
            );
        if !covered {
            self.counters
                .footprint_violations
                .fetch_add(1, Ordering::Relaxed);
            if ORACLE_TOLERANCE.with(|c| c.get()) == 0 {
                panic!(
                    "footprint oracle: {} of table `{name}` outside the latched footprint",
                    if mutating { "mutation" } else { "read" }
                );
            }
        }
    }

    #[cfg(not(feature = "footprint-oracle"))]
    #[inline(always)]
    fn oracle_check(&self, _name: &str, _mutating: bool) {}

    // ------------------------------------------------------------------
    // Redo capture (durability hooks for the storage layer)
    // ------------------------------------------------------------------

    /// Enable or disable redo capture (off by default; the storage layer
    /// turns it on when a database is opened durably). Not inherited by
    /// clones — snapshots and oracle shadows never log.
    pub fn set_redo_capture(&mut self, enabled: bool) {
        self.redo_capture = enabled;
    }

    /// `true` when the mutation entry points record redo operations.
    pub fn redo_capture_enabled(&self) -> bool {
        self.redo_capture
    }

    /// Clear this thread's redo buffer for this database. The session
    /// layer calls it at every statement start so leftovers from a
    /// panicked or abandoned earlier statement cannot leak into the next
    /// statement's log batch.
    pub fn begin_redo(&self) {
        REDO_BUF.with(|m| {
            m.borrow_mut().remove(&self.db_id);
        });
    }

    /// Drain this thread's redo buffer for this database: every physical
    /// change the statement and its whole cascade made, in apply order.
    /// Called once per latched statement — even a statement that returned
    /// an error is drained, because partial effects stay visible in the
    /// authoritative state and durability must match it.
    pub fn take_redo(&self) -> Vec<RedoOp> {
        REDO_BUF
            .with(|m| m.borrow_mut().remove(&self.db_id))
            .unwrap_or_default()
    }

    /// Apply a batch of redo operations verbatim: no triggers fire, no
    /// redo is captured, and operations are idempotent (`Put` upserts,
    /// `Del` of a missing key is a no-op). Recovery replays committed WAL
    /// batches through here — the cascade's effects were logged physically
    /// when it ran, so re-firing triggers would double-apply them.
    pub fn apply_redo(&self, ops: &[RedoOp]) -> Result<()> {
        for op in ops {
            match op {
                RedoOp::Put { table, row } => {
                    let mut t = self.table_write(table)?;
                    let key = t.schema().key_of(row);
                    t.delete(&key);
                    t.insert(row.to_vec())?;
                }
                RedoOp::Del { table, key } => {
                    self.table_write(table)?.delete(key);
                }
            }
        }
        Ok(())
    }

    /// Record one statement's physical effects on the table `schema`
    /// describes: all deletions by pre-image key, then all insertions by
    /// full row — the order of the apply step, so key-reshuffling updates
    /// replay correctly. No-op unless capture is enabled.
    fn capture_redo(&self, schema: &TableSchema, inserted: &[Row], deleted: &[Row]) {
        if !self.redo_capture || (inserted.is_empty() && deleted.is_empty()) {
            return;
        }
        REDO_BUF.with(|m| {
            let mut m = m.borrow_mut();
            let buf = m.entry(self.db_id).or_default();
            for old in deleted {
                buf.push(RedoOp::Del {
                    table: schema.name.clone(),
                    key: schema.key_of(old).into_vec(),
                });
            }
            for new in inserted {
                buf.push(RedoOp::Put {
                    table: schema.name.clone(),
                    row: Arc::clone(new),
                });
            }
        });
    }

    /// Enable or disable the cross-firing executor cache (on by default).
    /// Disabling clears existing entries; differential tests compare a
    /// caching database against an uncached one.
    pub fn set_exec_cache_enabled(&mut self, enabled: bool) {
        self.exec_cache.set_enabled(enabled);
    }

    /// Number of live executor-cache entries (tests and leak checks).
    pub fn exec_cache_len(&self) -> usize {
        self.exec_cache.len()
    }

    /// Look up a table, taking its latch in shared mode for the guard's
    /// lifetime. Uncontended in practice: concurrent access to the *same*
    /// table's slot only happens when a raw [`Database`] reference is read
    /// while a latched writer runs (reads through the session surface use
    /// published snapshots, which are separate instances).
    pub fn table(&self, name: &str) -> Result<TableRef<'_>> {
        self.oracle_check(name, false);
        self.tables
            .get(name)
            .map(|cell| TableRef(cell.read().unwrap_or_else(|e| e.into_inner())))
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Exclusive table access, copy-on-write: a table still shared with a
    /// clone (a published read snapshot) is copied once on first mutable
    /// dereference, so writers never mutate storage a snapshot reader is
    /// walking. Mutual exclusion between whole *statements* on the same
    /// table is the session latch manager's job; this latch only protects
    /// the slot itself.
    fn table_write(&self, name: &str) -> Result<TableWrite<'_>> {
        self.oracle_check(name, true);
        self.tables
            .get(name)
            .map(|cell| TableWrite(cell.write().unwrap_or_else(|e| e.into_inner())))
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Replace this database's versions of `tables` with `from`'s current
    /// ones (a refcount bump per table; missing tables are skipped). The
    /// session layer folds a committed writer's footprint into the
    /// published snapshot this way — an `Arc` swap per table instead of a
    /// full-state clone.
    pub fn adopt_tables_from<I, S>(&mut self, from: &Database, tables: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for t in tables {
            let name = t.as_ref();
            if let Some(src) = from.tables.get(name) {
                let inner = Arc::clone(&src.read().unwrap_or_else(|e| e.into_inner()));
                self.tables.insert(name.to_string(), new_cell_arc(inner));
            }
        }
    }

    /// `true` if `name` exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables (unordered).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    // ------------------------------------------------------------------
    // Triggers
    // ------------------------------------------------------------------

    /// Register a statement-level AFTER trigger.
    pub fn create_trigger(&mut self, trigger: SqlTrigger) -> Result<()> {
        if self.trigger_names.contains(&trigger.name) {
            return Err(Error::TriggerExists(trigger.name));
        }
        self.table(&trigger.table)?;
        Arc::make_mut(&mut self.trigger_names).insert(trigger.name.clone());
        Arc::make_mut(&mut self.triggers).push(Arc::new(trigger));
        Ok(())
    }

    /// Remove a trigger by name.
    pub fn drop_trigger(&mut self, name: &str) -> Result<()> {
        if !Arc::make_mut(&mut self.trigger_names).remove(name) {
            return Err(Error::UnknownTrigger(name.to_string()));
        }
        Arc::make_mut(&mut self.triggers).retain(|t| t.name != name);
        Ok(())
    }

    /// Number of registered SQL triggers (the paper's scalability axis).
    pub fn trigger_count(&self) -> usize {
        self.triggers.len()
    }

    /// Iterate the registered SQL triggers (name/table/event inspection —
    /// the footprint analysis of the session layer walks these).
    pub fn triggers(&self) -> impl Iterator<Item = &SqlTrigger> {
        self.triggers.iter().map(Arc::as_ref)
    }

    // ------------------------------------------------------------------
    // Statements: access planner → apply step → epilogue (each fires AFTER
    // triggers once)
    // ------------------------------------------------------------------

    /// `INSERT INTO table VALUES rows…` as one statement. All or nothing: a
    /// duplicate key or an ill-typed row leaves the table as it was.
    pub fn insert(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        self.apply(self.table_write(table)?, Event::Insert, Vec::new(), rows)
    }

    /// Single-row insert convenience.
    pub fn insert_row(&self, table: &str, row: Vec<Value>) -> Result<()> {
        self.insert(table, vec![row]).map(|_| ())
    }

    /// `UPDATE table SET … WHERE pk = key` as one statement. `assignments`
    /// are `(column index, new value)` pairs. Returns `false` when no row
    /// has that key. A wrapper over [`Database::update_expr`].
    pub fn update_by_key(
        &self,
        table: &str,
        key: &[Value],
        assignments: &[(usize, Value)],
    ) -> Result<bool> {
        let pred = self.key_predicate(table, key)?;
        let assignments: Vec<(usize, Expr)> = assignments
            .iter()
            .map(|(col, v)| (*col, Expr::Lit(v.clone())))
            .collect();
        Ok(self.update_expr(table, Some(&pred), &assignments)? > 0)
    }

    /// `UPDATE table SET col = expr, … WHERE pred` as one statement, with
    /// both the predicate and the assignment right-hand sides as
    /// [`Expr`]essions over the *pre-update* row. The affected rows come
    /// from the access planner and change through the apply step, so the
    /// row changes are all or nothing and key-reshuffling updates
    /// (`SET id = id + 1`) do not depend on row order.
    pub fn update_expr(
        &self,
        table: &str,
        pred: Option<&Expr>,
        assignments: &[(usize, Expr)],
    ) -> Result<usize> {
        let t = self.table_write(table)?;
        let arity = t.schema().arity();
        if let Some((col, _)) = assignments.iter().find(|(col, _)| *col >= arity) {
            return Err(Error::UnknownColumn(table.to_string(), col.to_string()));
        }
        let old = self.access(&t, pred)?;
        let new = old
            .iter()
            .map(|r| {
                let mut next = r.to_vec();
                for (col, e) in assignments {
                    next[*col] = e.eval(r)?;
                }
                Ok(next)
            })
            .collect::<Result<Vec<_>>>()?;
        self.apply(t, Event::Update, old, new)
    }

    /// `DELETE FROM table WHERE pred` as one statement, with the predicate
    /// as an [`Expr`]ession (see [`Database::update_expr`]).
    pub fn delete_expr(&self, table: &str, pred: Option<&Expr>) -> Result<usize> {
        let t = self.table_write(table)?;
        let old = self.access(&t, pred)?;
        self.apply(t, Event::Delete, old, Vec::new())
    }

    /// `DELETE FROM table WHERE pk = key` as one statement. Returns `false`
    /// when no row has that key. A wrapper over [`Database::delete_expr`].
    pub fn delete_by_key(&self, table: &str, key: &[Value]) -> Result<bool> {
        let pred = self.key_predicate(table, key)?;
        Ok(self.delete_expr(table, Some(&pred))? > 0)
    }

    /// Bulk load without firing triggers (initial data population, like
    /// loading a warehouse before enabling triggers).
    pub fn load(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let mut t = self.table_write(table)?;
        let n = rows.len();
        let mut loaded = Vec::new();
        for r in rows {
            let row = t.insert(r)?;
            if self.redo_capture {
                loaded.push(row);
            }
        }
        let schema = t.schema_ref();
        drop(t);
        self.capture_redo(&schema, &loaded, &[]);
        Ok(n)
    }

    /// Maintenance deletion without firing triggers — the mirror of
    /// [`Database::load`], used for internal bookkeeping tables (e.g.
    /// removing a stale constants-table row when a grouped trigger leaves
    /// its set). Returns the number of rows removed.
    pub fn unload_where(&self, table: &str, pred: impl Fn(&Row) -> bool) -> Result<usize> {
        let mut t = self.table_write(table)?;
        let keys: Vec<_> = t
            .iter()
            .filter(|r| pred(r))
            .map(|r| t.schema().key_of(r))
            .collect();
        let n = keys.len();
        let mut removed = Vec::new();
        for k in keys {
            if let Some(row) = t.delete(&k) {
                if self.redo_capture {
                    removed.push(row);
                }
            }
        }
        let schema = t.schema_ref();
        drop(t);
        self.capture_redo(&schema, &[], &removed);
        Ok(n)
    }

    /// `pk₁ = key₁ AND …` over `table`'s primary key: the predicate the
    /// keyed wrappers hand to the access planner.
    fn key_predicate(&self, table: &str, key: &[Value]) -> Result<Expr> {
        let schema = self.table(table)?.schema_ref();
        if key.len() != schema.primary_key.len() {
            return Err(Error::Plan(format!("key {key:?} does not fit {table}")));
        }
        Ok(Expr::and_all(
            schema
                .primary_key
                .iter()
                .zip(key)
                .map(|(&col, v)| Expr::eq(Expr::col(col), Expr::Lit(v.clone())))
                .collect(),
        ))
    }

    /// The access planner `SELECT`, `UPDATE` and `DELETE` share: the rows
    /// of `t` matching `pred` (all rows when `None`), in primary-key order.
    /// One probe answers a `pred` whose `col = literal` equalities exactly
    /// cover the primary key or one indexed column ([`probe_plan`]); else
    /// it scans. It records its cost: one `index_probes`, or
    /// `rows_scanned += t.len()`.
    pub(crate) fn access(&self, t: &Table, pred: Option<&Expr>) -> Result<Vec<Row>> {
        if let Some((how, vals)) = pred.and_then(|p| probe_plan(t, p)) {
            self.counters.add_probes(1);
            return Ok(t.probe(&how, &vals).into_iter().cloned().collect());
        }
        self.counters.add_scanned(t.len() as u64);
        let mut rows = Vec::new();
        for r in t.iter() {
            if pred.map_or(Ok(true), |p| p.eval(r).map(|v| v.is_true()))? {
                rows.push(Arc::clone(r));
            }
        }
        Ok(rows)
    }

    /// The apply step every data-change statement ends in: remove the rows
    /// `old` (read under the same latch), then insert `new` — all removals
    /// first, for SQL's simultaneous-update semantics. On failure it
    /// restores the prior rows and returns the error; nothing is counted,
    /// logged or fired. On success the epilogue runs once: count the
    /// statement, capture its redo, fire the AFTER triggers (a trigger
    /// error leaves the statement's own change in place).
    fn apply(
        &self,
        mut t: TableWrite<'_>,
        event: Event,
        old: Vec<Row>,
        new: Vec<Vec<Value>>,
    ) -> Result<usize> {
        let schema = t.schema_ref();
        for r in &old {
            t.delete(&schema.key_of(r))
                .expect("pre-image read under the latch");
        }
        let mut inserted = Vec::with_capacity(new.len());
        for row in new {
            match t.insert(row) {
                Ok(r) => inserted.push(r),
                Err(e) => {
                    for r in &inserted {
                        t.delete(&schema.key_of(r));
                    }
                    for r in &old {
                        t.insert(r.to_vec()).expect("restores a removed row");
                    }
                    return Err(e);
                }
            }
        }
        // Triggers may write this table: release its latch first.
        drop(t);
        self.counters.add_statement();
        self.capture_redo(&schema, &inserted, &old);
        let n = inserted.len().max(old.len());
        if n > 0 {
            self.after_statement(TransitionTables {
                table: schema.name.clone(),
                event,
                inserted,
                deleted: old,
            })?;
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Trigger dispatch
    // ------------------------------------------------------------------

    fn after_statement(&self, trans: TransitionTables) -> Result<()> {
        let matching: Vec<Arc<SqlTrigger>> = self
            .triggers
            .iter()
            .filter(|t| t.table == trans.table && t.event == trans.event)
            .cloned()
            .collect();
        if matching.is_empty() {
            return Ok(());
        }
        let admitted = FIRE_DEPTH.with(|m| {
            let mut m = m.borrow_mut();
            let d = m.entry(self.db_id).or_insert(0);
            if *d >= MAX_TRIGGER_DEPTH {
                false
            } else {
                *d += 1;
                true
            }
        });
        if !admitted {
            return Err(Error::TriggerDepthExceeded);
        }
        // Unwind-safe decrement: a panicking trigger body must not leave
        // this thread's depth for `db_id` permanently elevated.
        let _guard = DepthGuard(self.db_id);
        self.fire_all(&matching, &trans)
    }

    fn fire_all(&self, triggers: &[Arc<SqlTrigger>], trans: &TransitionTables) -> Result<()> {
        for t in triggers {
            self.counters.add_fired();
            match &t.body {
                TriggerBody::Query { plan, handler } => {
                    let rows: Vec<Row> = {
                        let ctx = ExecContext::new(self, Some(trans));
                        execute(plan, &ctx)?.iter().cloned().collect()
                    };
                    handler(self, rows)?;
                }
                TriggerBody::Native(f) => f(self, trans)?,
            }
        }
        Ok(())
    }
}

/// Collect `(column, literal)` pairs when `pred` is a pure conjunction of
/// `col = literal` equalities (either operand order). Rejects duplicate
/// columns and NULL/NaN literals, whose SQL comparison semantics (`NULL =
/// NULL` is unknown, `NaN` compares to nothing) differ from the total
/// key-equality an index probe would apply.
fn equality_pairs(pred: &Expr, out: &mut Vec<(usize, Value)>) -> bool {
    match pred {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => equality_pairs(left, out) && equality_pairs(right, out),
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => {
            let (col, lit) = match (left.as_ref(), right.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(c)) => (*c, v),
                _ => return false,
            };
            if lit.is_null() || matches!(lit, Value::Double(d) if d.is_nan()) {
                return false;
            }
            if out.iter().any(|(seen, _)| *seen == col) {
                return false;
            }
            out.push((col, lit.clone()));
            true
        }
        _ => false,
    }
}

/// A probe literal is only equivalent to the predicate's SQL comparison
/// when its type lines up with the column's declared type (numerics are
/// interchangeable: storage order and hashing unify `Int`/`Double`).
/// Cross-kind comparisons like `str_col = 5` atomize in SQL but would
/// miss under key equality, so they fall back to the scan.
fn probe_compatible(lit: &Value, ty: ColumnType) -> bool {
    matches!(
        (lit, ty),
        (
            Value::Int(_) | Value::Double(_),
            ColumnType::Int | ColumnType::Double
        ) | (Value::Str(_), ColumnType::Str)
            | (Value::Bool(_), ColumnType::Bool)
    )
}

/// The probe that answers `pred` exactly, if there is one: `pred`'s
/// equalities must be probe-compatible and their columns covered by the
/// primary key or one secondary index. `None` means scan.
fn probe_plan(t: &Table, pred: &Expr) -> Option<(Covering, Vec<Value>)> {
    let mut pairs = Vec::new();
    if !equality_pairs(pred, &mut pairs) {
        return None;
    }
    let schema = t.schema();
    if pairs
        .iter()
        .any(|(c, v)| *c >= schema.arity() || !probe_compatible(v, schema.columns[*c].ty))
    {
        return None;
    }
    let (cols, vals): (Vec<usize>, Vec<Value>) = pairs.into_iter().unzip();
    Some((t.covering(&cols)?, vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PhysicalPlan, TransitionSide};
    use crate::schema::ColumnDef;
    use crate::value::ColumnType;
    use std::sync::Mutex;

    fn db_with_vendor() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "vendor",
                vec![
                    ColumnDef::new("vid", ColumnType::Str),
                    ColumnDef::new("pid", ColumnType::Str),
                    ColumnDef::new("price", ColumnType::Double),
                ],
                &["vid", "pid"],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn vrow(vid: &str, pid: &str, price: f64) -> Vec<Value> {
        vec![Value::str(vid), Value::str(pid), Value::Double(price)]
    }

    #[test]
    fn insert_statement_fires_insert_trigger_with_delta() {
        let mut db = db_with_vendor();
        let seen = Arc::new(Mutex::new(Vec::<usize>::new()));
        let seen2 = Arc::clone(&seen);
        db.create_trigger(SqlTrigger {
            name: "t1".into(),
            table: "vendor".into(),
            event: Event::Insert,
            body: TriggerBody::Native(Arc::new(move |_db, trans| {
                seen2.lock().unwrap().push(trans.inserted.len());
                assert!(trans.deleted.is_empty());
                Ok(())
            })),
        })
        .unwrap();
        // One statement inserting two rows -> one firing with |Δ| = 2.
        db.insert("vendor", vec![vrow("a", "P1", 1.0), vrow("b", "P1", 2.0)])
            .unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![2]);
        // Wrong-event triggers don't fire.
        db.update_by_key(
            "vendor",
            &[Value::str("a"), Value::str("P1")],
            &[(2, Value::Double(9.0))],
        )
        .unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![2]);
    }

    #[test]
    fn update_statement_provides_old_and_new_rows() {
        let mut db = db_with_vendor();
        db.load("vendor", vec![vrow("a", "P1", 1.0)]).unwrap();
        let seen = Arc::new(Mutex::new(Vec::<(Value, Value)>::new()));
        let seen2 = Arc::clone(&seen);
        db.create_trigger(SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Update,
            body: TriggerBody::Native(Arc::new(move |_db, trans| {
                seen2
                    .lock()
                    .unwrap()
                    .push((trans.deleted[0][2].clone(), trans.inserted[0][2].clone()));
                Ok(())
            })),
        })
        .unwrap();
        db.update_by_key(
            "vendor",
            &[Value::str("a"), Value::str("P1")],
            &[(2, Value::Double(7.5))],
        )
        .unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![(Value::Double(1.0), Value::Double(7.5))]
        );
    }

    #[test]
    fn query_trigger_reads_transition_scan() {
        let mut db = db_with_vendor();
        db.create_table(
            TableSchema::new(
                "log",
                vec![ColumnDef::new("vid", ColumnType::Str)],
                &["vid"],
            )
            .unwrap(),
        )
        .unwrap();
        let plan = PhysicalPlan::Project {
            input: PhysicalPlan::TransitionScan {
                table: "vendor".into(),
                side: TransitionSide::Delta,
                pruned: false,
            }
            .into_ref(),
            exprs: vec![crate::expr::Expr::col(0)],
        }
        .into_ref();
        db.create_trigger(SqlTrigger {
            name: "log_inserts".into(),
            table: "vendor".into(),
            event: Event::Insert,
            body: TriggerBody::Query {
                plan,
                handler: Arc::new(|db, rows| {
                    for r in rows {
                        db.insert_row("log", r.to_vec())?;
                    }
                    Ok(())
                }),
            },
        })
        .unwrap();
        db.insert("vendor", vec![vrow("a", "P1", 1.0), vrow("b", "P2", 2.0)])
            .unwrap();
        assert_eq!(db.table("log").unwrap().len(), 2);
    }

    #[test]
    fn load_does_not_fire_triggers() {
        let mut db = db_with_vendor();
        let fired = Arc::new(Mutex::new(0u32));
        let fired2 = Arc::clone(&fired);
        db.create_trigger(SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Insert,
            body: TriggerBody::Native(Arc::new(move |_, _| {
                *fired2.lock().unwrap() += 1;
                Ok(())
            })),
        })
        .unwrap();
        db.load("vendor", vec![vrow("a", "P1", 1.0)]).unwrap();
        assert_eq!(*fired.lock().unwrap(), 0);
    }

    #[test]
    fn cascades_are_depth_limited() {
        let mut db = db_with_vendor();
        db.create_table(
            TableSchema::new("ping", vec![ColumnDef::new("n", ColumnType::Int)], &["n"]).unwrap(),
        )
        .unwrap();
        // Trigger re-inserts into the same table with n+1: unbounded cascade.
        db.create_trigger(SqlTrigger {
            name: "loop".into(),
            table: "ping".into(),
            event: Event::Insert,
            body: TriggerBody::Native(Arc::new(|db, trans| {
                let Value::Int(n) = trans.inserted[0][0] else {
                    unreachable!()
                };
                db.insert_row("ping", vec![Value::Int(n + 1)])
            })),
        })
        .unwrap();
        let err = db.insert_row("ping", vec![Value::Int(0)]).unwrap_err();
        assert_eq!(err, Error::TriggerDepthExceeded);
    }

    #[test]
    fn duplicate_trigger_names_rejected_and_droppable() {
        let mut db = db_with_vendor();
        let body = TriggerBody::Native(Arc::new(|_, _| Ok(())));
        let t = SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Insert,
            body: body.clone(),
        };
        db.create_trigger(t.clone()).unwrap();
        assert!(matches!(db.create_trigger(t), Err(Error::TriggerExists(_))));
        assert_eq!(db.trigger_count(), 1);
        db.drop_trigger("t").unwrap();
        assert_eq!(db.trigger_count(), 0);
        assert!(matches!(
            db.drop_trigger("t"),
            Err(Error::UnknownTrigger(_))
        ));
    }

    #[test]
    fn update_expr_probes_primary_key_equality() {
        let db = db_with_vendor();
        db.load("vendor", vec![vrow("a", "P1", 1.0), vrow("b", "P1", 2.0)])
            .unwrap();
        let before = db.stats();
        // A full-key equality probes whatever the assignments are.
        let pred = Expr::bin(
            BinOp::And,
            Expr::eq(Expr::col(0), Expr::lit("a")),
            Expr::eq(Expr::col(1), Expr::lit("P1")),
        );
        let double = Expr::bin(BinOp::Mul, Expr::col(2), Expr::lit(2.0));
        let n = db
            .update_expr("vendor", Some(&pred), &[(2, double)])
            .unwrap();
        assert_eq!(n, 1);
        let after = db.stats();
        assert_eq!(after.rows_scanned, before.rows_scanned, "no scan");
        assert!(after.index_probes > before.index_probes);
        assert_eq!(
            db.table("vendor")
                .unwrap()
                .get(&[Value::str("a"), Value::str("P1")])
                .unwrap()[2],
            Value::Double(2.0)
        );
    }

    #[test]
    fn delete_expr_probes_secondary_index() {
        let mut db = db_with_vendor();
        db.create_index("vendor", "pid").unwrap();
        db.load(
            "vendor",
            vec![
                vrow("a", "P1", 1.0),
                vrow("b", "P1", 2.0),
                vrow("c", "P2", 3.0),
            ],
        )
        .unwrap();
        let before = db.stats();
        let pred = Expr::eq(Expr::col(1), Expr::lit("P1"));
        let n = db.delete_expr("vendor", Some(&pred)).unwrap();
        assert_eq!(n, 2);
        let after = db.stats();
        assert_eq!(after.rows_scanned, before.rows_scanned, "no scan");
        assert!(after.index_probes > before.index_probes);
        assert_eq!(db.table("vendor").unwrap().len(), 1);
    }

    #[test]
    fn probe_fast_path_skips_null_and_type_mismatched_literals() {
        let db = db_with_vendor();
        db.load("vendor", vec![vrow("a", "P1", 1.0)]).unwrap();
        let before = db.stats();
        // `vid = NULL` is unknown for every row: must delete nothing (a
        // naive key probe on the NULL literal would behave differently).
        let pred = Expr::bin(
            BinOp::And,
            Expr::eq(Expr::col(0), Expr::lit(Value::Null)),
            Expr::eq(Expr::col(1), Expr::lit("P1")),
        );
        assert_eq!(db.delete_expr("vendor", Some(&pred)).unwrap(), 0);
        // A numeric literal against a string key column falls back to the
        // scan path, where SQL atomization applies.
        let pred = Expr::bin(
            BinOp::And,
            Expr::eq(Expr::col(0), Expr::lit(5i64)),
            Expr::eq(Expr::col(1), Expr::lit("P1")),
        );
        assert_eq!(db.delete_expr("vendor", Some(&pred)).unwrap(), 0);
        let after = db.stats();
        assert!(
            after.rows_scanned > before.rows_scanned,
            "fell back to scan"
        );
        assert_eq!(db.table("vendor").unwrap().len(), 1);
    }

    #[test]
    fn nan_equality_on_indexed_column_scans_and_matches_nothing() {
        let mut db = db_with_vendor();
        db.create_index("vendor", "price").unwrap();
        db.load(
            "vendor",
            vec![vrow("a", "P1", f64::NAN), vrow("b", "P1", 2.0)],
        )
        .unwrap();
        let before = db.stats();
        // SQL comparison: `NaN = NaN` is unknown, so nothing matches. A key
        // probe through the index would use total equality (NaN == NaN) and
        // wrongly delete the row — the NaN literal must force the scan.
        let pred = Expr::eq(Expr::col(2), Expr::lit(f64::NAN));
        assert_eq!(db.delete_expr("vendor", Some(&pred)).unwrap(), 0);
        let after = db.stats();
        assert!(
            after.rows_scanned > before.rows_scanned,
            "fell back to scan"
        );
        assert_eq!(after.index_probes, before.index_probes, "no index probe");
        assert_eq!(db.table("vendor").unwrap().len(), 2);
    }

    #[test]
    fn type_mismatched_indexed_equality_scans_and_atomizes() {
        let mut db = db_with_vendor();
        db.create_index("vendor", "pid").unwrap();
        db.load("vendor", vec![vrow("a", "5", 1.0), vrow("b", "P1", 2.0)])
            .unwrap();
        let before = db.stats();
        // `pid = 5` compares an Int literal against a TEXT column: SQL
        // atomization matches the row whose pid is '5', which an index
        // probe keyed on Int(5) would miss (probe-miss, not 1 row).
        let pred = Expr::eq(Expr::col(1), Expr::lit(5i64));
        assert_eq!(db.delete_expr("vendor", Some(&pred)).unwrap(), 1);
        let after = db.stats();
        assert!(
            after.rows_scanned > before.rows_scanned,
            "fell back to scan"
        );
        assert_eq!(after.index_probes, before.index_probes, "no index probe");
        assert_eq!(db.table("vendor").unwrap().len(), 1);
    }

    #[test]
    fn update_expr_batches_into_one_statement() {
        let mut db = db_with_vendor();
        db.load(
            "vendor",
            vec![
                vrow("a", "P1", 1.0),
                vrow("b", "P1", 2.0),
                vrow("c", "P2", 3.0),
            ],
        )
        .unwrap();
        let firings = Arc::new(Mutex::new(Vec::<usize>::new()));
        let f2 = Arc::clone(&firings);
        db.create_trigger(SqlTrigger {
            name: "t".into(),
            table: "vendor".into(),
            event: Event::Update,
            body: TriggerBody::Native(Arc::new(move |_, trans| {
                f2.lock().unwrap().push(trans.inserted.len());
                Ok(())
            })),
        })
        .unwrap();
        let pred = Expr::eq(Expr::col(1), Expr::lit("P1"));
        let n = db
            .update_expr("vendor", Some(&pred), &[(2, Expr::lit(99.0))])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(*firings.lock().unwrap(), vec![2]);
    }
}
