//! One pass of a workload: every call into the engine goes through the
//! methods here, which time it as a span, count it as attempted (and as
//! failed when it errors), and, in a traced pass, replay the same inputs
//! through the lower layer's public function beside the real call.

use crate::host::HostProbe;
use crate::oracle::{self, Digest};
use crate::timeline::Timeline;
use mvmqo_core::cost::CostModel;
use mvmqo_core::opt::GreedyOptions;
use mvmqo_core::session::Optimizer;
use mvmqo_core::UpdateModel;
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::logical::ViewDef;
use mvmqo_relalg::tuple::Tuple;
use mvmqo_relalg::Batch;
use mvmqo_storage::database::Database;
use mvmqo_storage::delta::DeltaSet;
use mvmqo_storage::wal::{WalRecord, WalWriter};
use mvmqo_tpcd::{epoch_updates, DriverProfile, Tpcd};
use mvmqo_warehouse::{PlanMode, QueryResult, ReoptTrigger, Warehouse};
use std::fmt::Display;
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// A view as the benchmark sees it. `Warehouse::query` is read only
/// through [`adapt`], so a change of the result format touches one
/// function.
pub struct ViewRead {
    pub rows: Vec<Tuple>,
    pub from_materialization: bool,
}

pub fn adapt(result: QueryResult) -> ViewRead {
    ViewRead {
        rows: result.rows,
        from_materialization: result.from_materialization,
    }
}

/// Replan counter names: one per (trigger, mode) pair.
pub const REPLAN_KEYS: [&str; 10] = [
    "core.replans.initial.cold",
    "core.replans.initial.incremental",
    "core.replans.view_set_changed.cold",
    "core.replans.view_set_changed.incremental",
    "core.replans.delta_drift.cold",
    "core.replans.delta_drift.incremental",
    "core.replans.update_shape_changed.cold",
    "core.replans.update_shape_changed.incremental",
    "core.replans.cost_drift.cold",
    "core.replans.cost_drift.incremental",
];

fn replan_key(trigger: ReoptTrigger, mode: PlanMode) -> &'static str {
    let t = match trigger {
        ReoptTrigger::Initial => 0,
        ReoptTrigger::ViewSetChanged => 1,
        ReoptTrigger::DeltaDrift { .. } => 2,
        ReoptTrigger::UpdateShapeChanged => 3,
        ReoptTrigger::CostDrift { .. } => 4,
    };
    REPLAN_KEYS[2 * t + usize::from(mode == PlanMode::Incremental)]
}

/// Operations attempted and failed, with a note per failure.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ops {
    pub fn check<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }
}

pub struct Pass {
    pub tl: Timeline,
    host: HostProbe,
    pub ops: Ops,
    pub traced: bool,
    /// Directory this pass owns for WAL, snapshots and shadow files.
    pub dir: PathBuf,
    shadow_wal: Option<WalWriter>,
    pub rss_after_setup_mb: f64,
    pub peak_rss_mb: f64,
}

impl Pass {
    pub fn new(dir: PathBuf, traced: bool) -> Pass {
        Pass {
            tl: Timeline::new(),
            host: HostProbe::new(),
            ops: Ops::default(),
            traced,
            dir,
            shadow_wal: None,
            rss_after_setup_mb: 0.0,
            peak_rss_mb: 0.0,
        }
    }

    /// Generate one epoch's updates (a span of its own, outside every
    /// engine span). A generator error is a benchmark defect, not an
    /// engine failure.
    pub fn generate(
        &mut self,
        tpcd: &Tpcd,
        db: &Database,
        profile: DriverProfile,
        epoch: u64,
        seed: u64,
    ) -> Result<DeltaSet, String> {
        let (r, _) = self
            .tl
            .time("tpcd.gen", || epoch_updates(tpcd, db, profile, epoch, seed));
        r.map_err(|e| format!("update generation failed: {e}"))
    }

    /// Build a warehouse and bring it to its first epoch: register the
    /// views, enable the WAL, ingest the first round (which builds the
    /// availability cache) and populate every view.
    pub fn setup(
        &mut self,
        catalog: &Catalog,
        base: &Database,
        views: &[ViewDef],
        first: &DeltaSet,
        wal_dir: &Path,
    ) -> Warehouse {
        self.tl.stage = "setup";
        self.tl.epoch = 1;
        let (catalog, db) = (catalog.clone(), base.clone());
        self.probe();
        let s = self.tl.begin("setup");
        let mut wh = Warehouse::new(catalog, db);
        for v in views {
            self.register(&mut wh, v);
        }
        let (r, _) = self
            .tl
            .time("warehouse.enable_wal", || wh.enable_wal(wal_dir));
        self.ops.check("enable_wal", r);
        self.ingest(&mut wh, first);
        self.run_epoch(&mut wh, first);
        self.tl.end(s);
        wh
    }

    /// Run the host probe as a `host.probe` span of its own, between
    /// engine calls.
    pub fn probe(&mut self) {
        let host = &mut self.host;
        self.tl.time("host.probe", || host.run());
    }

    fn note_replans(&mut self, wh: &Warehouse, before: usize, span: usize) {
        for rec in &wh.replans()[before..] {
            self.tl.attr(span, replan_key(rec.trigger, rec.mode), 1.0);
            self.tl
                .attr(span, "replan_ms", rec.elapsed.as_secs_f64() * 1e3);
        }
    }

    pub fn register(&mut self, wh: &mut Warehouse, view: &ViewDef) {
        let (view, before) = (view.clone(), wh.replans().len());
        let (r, id) = self.tl.time("warehouse.register_view", || {
            wh.register_view(view).map(|_| ())
        });
        self.note_replans(wh, before, id);
        self.ops.check("register_view", r);
    }

    pub fn drop_view(&mut self, wh: &mut Warehouse, name: &str) {
        let before = wh.replans().len();
        let (r, id) = self.tl.time("warehouse.drop_view", || wh.drop_view(name));
        self.note_replans(wh, before, id);
        self.ops.check("drop_view", r);
    }

    /// Ingest every table's batch. Traced passes replay each batch through
    /// `Database::validate_delta` and a scratch `WalWriter::append`.
    pub fn ingest(&mut self, wh: &mut Warehouse, deltas: &DeltaSet) {
        for t in deltas.tables().collect::<Vec<_>>() {
            let Some(batch) = deltas.get(t) else { continue };
            let tuples = (batch.inserts.len() + batch.deletes.len()) as f64;
            let owned = batch.clone();
            let (r, id) = self.tl.time("warehouse.ingest", || wh.ingest(t, owned));
            self.tl.attr(id, "tuples", tuples);
            self.ops.check("ingest", r);
            if !self.traced {
                continue;
            }
            let (r, _) = self.tl.time("storage.validate", || {
                wh.database().validate_delta(t, batch)
            });
            self.ops.check("shadow validate_delta", r);
            if self.shadow_wal.is_none() {
                let w = WalWriter::create(&self.dir.join("shadow-wal.log"));
                self.shadow_wal = self.ops.check("shadow WAL create", w);
            }
            let schema = wh.catalog().table(t).schema.clone();
            let epoch = wh.epoch() + 1;
            if let Some(wal) = self.shadow_wal.as_mut() {
                let (r, _) = self.tl.time("storage.wal_append", || {
                    wal.append(&WalRecord::Ingest {
                        epoch,
                        table: t,
                        inserts: Batch::from_rows(schema.clone(), &batch.inserts),
                        deletes: Batch::from_rows(schema, &batch.deletes),
                    })
                });
                self.ops.check("shadow WAL append", r);
            }
        }
    }

    /// Run one epoch. Traced passes first replay the epoch's deltas through
    /// `Database::apply_all` on a copy-on-write clone of the pre-epoch
    /// database, and drop the clone before the real call: a clone held
    /// across `run_epoch` would keep the old tables alive, moving the cost
    /// of freeing them out of the engine's epoch.
    pub fn run_epoch(&mut self, wh: &mut Warehouse, deltas: &DeltaSet) {
        if self.traced {
            let mut db = wh.database().clone();
            let (r, _) = self.tl.time("storage.apply", || db.apply_all(deltas));
            self.ops.check("shadow apply_all", r);
        }
        let before = wh.replans().len();
        let (r, id) = self.tl.time("warehouse.run_epoch", || wh.run_epoch());
        self.note_replans(wh, before, id);
        if let Ok(rep) = &r {
            self.tl.attr(id, "setup_builds", rep.setup_builds as f64);
            self.tl.attr(id, "total_builds", rep.total_builds as f64);
            self.tl
                .attr(id, "forced_recomputes", rep.forced_recomputes as f64);
            self.tl.attr(id, "metered_s", rep.executed_seconds);
            self.tl.attr(id, "estimated_s", rep.estimated_cost);
        }
        self.ops.check("run_epoch", r);
    }

    /// Read one view; the span covers the call, the adapter, and releasing
    /// the rows.
    pub fn read(&mut self, wh: &Warehouse, name: &str, first: bool) {
        let label = if first {
            "warehouse.query_first"
        } else {
            "warehouse.query"
        };
        let (r, id) = self.tl.time(label, || {
            wh.query(name).map(|q| {
                let read = adapt(q);
                (black_box(read.rows).len(), read.from_materialization)
            })
        });
        if let Some((rows, from_mat)) = self.ops.check("query", r) {
            self.tl.attr(id, "rows", rows as f64);
            self.tl.attr(id, "from_mat", f64::from(u8::from(from_mat)));
        }
    }

    /// Checkpoint: a fresh snapshot, after which the WAL holds only what
    /// follows.
    pub fn save(&mut self, wh: &mut Warehouse) {
        let (r, id) = self.tl.time("durability.save", || wh.save());
        if let Some(path) = self.ops.check("save", r) {
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            self.tl.attr(id, "snapshot_bytes", bytes as f64);
        }
    }

    /// One refresh cycle: ingest, run the epoch, then `reads`. The cycle
    /// span carries the bytes the WAL grew by.
    pub fn cycle(
        &mut self,
        wh: &mut Warehouse,
        deltas: &DeltaSet,
        wal_dir: &Path,
        reads: impl FnOnce(&mut Pass, &Warehouse),
    ) {
        self.tl.epoch = wh.epoch() + 1;
        self.probe();
        let c = self.tl.begin("cycle");
        let wal_before = wal_bytes(wal_dir);
        self.ingest(wh, deltas);
        self.run_epoch(wh, deltas);
        let wal_after = wal_bytes(wal_dir);
        self.tl
            .attr(c, "wal_bytes", wal_after.saturating_sub(wal_before) as f64);
        if self.traced {
            self.shadow_cold_plan(wh);
        }
        reads(self, wh);
        self.tl.end(c);
    }

    /// Plan the live view set from scratch in a fresh optimizer session:
    /// what `register_view`'s incremental replan avoids.
    pub fn shadow_cold_plan(&mut self, wh: &Warehouse) {
        let mut catalog = wh.catalog().clone();
        let ids: Vec<_> = catalog.tables().iter().map(|t| t.id).collect();
        for id in ids {
            if wh.database().has_base(id) {
                let rows = wh.database().live_stats(&catalog, id).rows;
                catalog.set_row_count(id, rows);
            }
        }
        let views = wh.views().to_vec();
        let indices = mvmqo_core::api::pk_indices_for(&catalog, &views);
        let updates = UpdateModel::new(
            wh.observed_rates()
                .iter()
                .map(|(t, (ins, del))| (*t, *ins, *del)),
        );
        let mut opt = Optimizer::new(CostModel::default(), GreedyOptions::default());
        opt.set_update_model(updates);
        opt.set_initial_indices(indices);
        let _ = self.tl.time("core.plan_cold", || {
            for v in &views {
                opt.add_view(&mut catalog, v);
            }
            black_box(opt.plan(&mut catalog).report.total_cost)
        });
    }

    /// Recover a second engine from the run's durable directory.
    pub fn recover(&mut self, wal_dir: &Path) -> Option<Warehouse> {
        self.tl.stage = "final";
        self.probe();
        let (r, id) = self
            .tl
            .time("durability.recover", || Warehouse::recover(wal_dir));
        let rec = self.ops.check("recover", r)?;
        if let Some(info) = rec.recovery_info() {
            self.tl
                .attr(id, "replayed_records", info.replayed_records as f64);
            self.tl.attr(
                id,
                "selection_match",
                f64::from(u8::from(info.selection_match)),
            );
        }
        Some(rec)
    }

    /// Compare every view with the oracle's recomputation from the engine's
    /// base tables. Each view is one attempted operation; a mismatch is
    /// one failure. Returns what a recovered engine must reproduce.
    pub fn check_views(&mut self, wh: &Warehouse) -> LiveState {
        let mut views = Vec::new();
        for view in wh.views() {
            let (expected, _) = self.tl.time("check.oracle", || {
                oracle::evaluate(&view.expr, wh.catalog(), wh.database())
            });
            self.ops.attempted += 1;
            let read = wh.query(&view.name).map(adapt);
            let verdict = match (expected, &read) {
                (Err(e), _) => Some(e.to_string()),
                (_, Err(e)) => Some(e.to_string()),
                (Ok(exp), Ok(read)) => oracle::bag_difference(&exp, &read.rows),
            };
            if let Some(why) = verdict {
                self.ops
                    .fail(format!("view {} at epoch {}: {why}", view.name, wh.epoch()));
            }
            if let Ok(read) = read {
                views.push((view.name.clone(), Digest::of(&read.rows)));
            }
        }
        LiveState {
            epoch: wh.epoch(),
            base: base_digests(wh),
            views,
        }
    }

    /// A recovered engine must be at the live engine's epoch with the same
    /// base tables and, with `views`, view contents, compared by digest.
    /// The base tables are one attempted operation, each view another.
    pub fn check_recovered(&mut self, rec: &Warehouse, live: &LiveState, views: bool) {
        self.ops.attempted += 1;
        if rec.epoch() != live.epoch {
            self.ops.fail(format!(
                "recovered engine is at epoch {}, live engine was at {}",
                rec.epoch(),
                live.epoch
            ));
        } else if !digests_match(&base_digests(rec), &live.base) {
            self.ops
                .fail("recovered base tables differ from the live engine's".to_string());
        }
        if !views {
            return;
        }
        for (name, digest) in &live.views {
            self.ops.attempted += 1;
            match rec.query(name).map(adapt) {
                Ok(read) if Digest::of(&read.rows).matches(digest) => {}
                Ok(_) => self.ops.fail(format!(
                    "recovered view {name} differs from the live engine's"
                )),
                Err(e) => self.ops.fail(format!("recovered view {name}: {e}")),
            }
        }
    }
}

/// The live engine's state after its last epoch, as digests.
pub struct LiveState {
    epoch: u64,
    base: Vec<(TableId, Digest)>,
    views: Vec<(String, Digest)>,
}

fn base_digests(wh: &Warehouse) -> Vec<(TableId, Digest)> {
    wh.catalog()
        .tables()
        .iter()
        .filter_map(|t| {
            let stored = wh.database().base(t.id).ok()?;
            Some((t.id, Digest::of(stored.rows())))
        })
        .collect()
}

fn digests_match(a: &[(TableId, Digest)], b: &[(TableId, Digest)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ta, da), (tb, db))| ta == tb && da.matches(db))
}

/// Bytes in the directory's WAL segments (snapshots excluded).
pub fn wal_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// A `/proc/self/status` memory line (`VmRSS`, `VmHWM`) in MiB.
pub fn proc_status_mib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
