//! The three workloads. Each is a closed loop: one client thread, each
//! call waiting for the previous one, the engine at its default settings
//! with the WAL enabled.

use crate::driver::Pass;
use mvmqo_tpcd::{
    five_agg_views, five_join_views, generate_database, many_views, tpcd_catalog, DriverProfile,
};
use mvmqo_warehouse::Warehouse;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SteadyRefresh,
    TrickleRead,
    ViewChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SteadyRefresh,
        Workload::TrickleRead,
        Workload::ViewChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyRefresh => "steady_refresh",
            Workload::TrickleRead => "trickle_read",
            Workload::ViewChurn => "view_churn",
        }
    }

    pub fn scale_factor(self) -> f64 {
        match self {
            Workload::SteadyRefresh | Workload::TrickleRead => REFRESH_SF,
            Workload::ViewChurn => CHURN_SF,
        }
    }

    /// Measured epochs for a run of `seconds`: the cycles one second of
    /// the run holds on the reference host, so the same `--seconds` and
    /// seed always do the same work and the run's counts repeat exactly.
    pub fn epochs(self, seconds: u64) -> usize {
        let per_second = match self {
            Workload::SteadyRefresh => 0.625,
            Workload::TrickleRead => 0.625,
            Workload::ViewChurn => 0.5,
        };
        ((seconds as f64 * per_second).round() as usize).max(2)
    }

    pub fn run(self, pass: &mut Pass, seed: u64, seconds: u64) -> Result<(), String> {
        let epochs = self.epochs(seconds);
        match self {
            // One repeat read per view: every workload must report a
            // nonzero `query_rows_per_s`.
            Workload::SteadyRefresh => refresh(
                pass,
                seed,
                epochs,
                DriverProfile::Steady { percent: 5.0 },
                1,
            ),
            Workload::TrickleRead => refresh(
                pass,
                seed,
                epochs,
                DriverProfile::FactOnly { percent: 0.2 },
                3,
            ),
            Workload::ViewChurn => churn(pass, seed, epochs),
        }
    }
}

/// The refresh workloads' scale factor. At sf 0.1 a set-up takes about
/// 3.5 s and a cycle 2.5 s, too long for enough epochs per run.
const REFRESH_SF: f64 = 0.05;
/// Recoveries per refresh run; `recover_s` is their median.
const REFRESH_RECOVERIES: usize = 3;

/// `steady_refresh` and `trickle_read`: the Figure 4 views (ten views
/// sharing `lineitem ⋈ orders ⋈ customer`). Each cycle ingests
/// every table, runs the epoch, then reads every view once plus
/// `repeat_reads` more times. A checkpoint precedes the last epoch, so
/// recovery loads a snapshot and replays one epoch of WAL.
fn refresh(
    pass: &mut Pass,
    seed: u64,
    epochs: usize,
    profile: DriverProfile,
    repeat_reads: usize,
) -> Result<(), String> {
    let mut tpcd = tpcd_catalog(REFRESH_SF);
    let mut views = five_join_views(&tpcd);
    views.extend(five_agg_views(&mut tpcd));
    let (base, _) = pass
        .tl
        .time("tpcd.gen_db", || generate_database(&tpcd, seed));
    let first = pass.generate(&tpcd, &base, profile, 0, seed)?;
    let (mut wh, wal_dir) = set_up(pass, |pass, dir| {
        pass.setup(&tpcd.catalog, &base, &views, &first, dir)
    })?;
    drop(base);

    pass.tl.stage = "run";
    let names: Vec<String> = views.iter().map(|v| v.name.clone()).collect();
    for e in 1..=epochs as u64 {
        if e == epochs as u64 {
            pass.save(&mut wh);
        }
        pass.tl.epoch = wh.epoch() + 1;
        let deltas = pass.generate(&tpcd, wh.database(), profile, e, seed)?;
        pass.cycle(&mut wh, &deltas, &wal_dir, |pass, wh| {
            for name in &names {
                pass.read(wh, name, true);
            }
            for _ in 0..repeat_reads {
                for name in &names {
                    pass.read(wh, name, false);
                }
            }
        });
    }
    finish(pass, wh, &wal_dir, REFRESH_RECOVERIES);
    Ok(())
}

const CHURN_SF: f64 = 0.01;
/// A churn recovery is cheap (about 1.2 s) and varies more, so it is
/// repeated more often.
const CHURN_RECOVERIES: usize = 5;
const CHURN_LIVE: usize = 40;
const CHURN_ROUNDS_PER_EPOCH: usize = 50;
/// Rounds per `view_churn` span: two of each of `many_views`' five view
/// families, so every block holds the same mix of views.
const CHURN_BLOCK: usize = 10;
/// Views read after each churn epoch: the newest ones, just populated.
const CHURN_READS: usize = 5;

/// `view_churn`: 40 live views from `many_views` at sf 0.01. Each round
/// drops the oldest view and registers the next one from the pool; every
/// 50 rounds a checkpoint records the new view set (the WAL logs data,
/// not view definitions), then one 0.5% epoch runs and the five newest
/// views are read twice.
fn churn(pass: &mut Pass, seed: u64, epochs: usize) -> Result<(), String> {
    let profile = DriverProfile::Steady { percent: 0.5 };
    let rounds = epochs * CHURN_ROUNDS_PER_EPOCH;
    let tpcd = tpcd_catalog(CHURN_SF);
    let pool = many_views(&tpcd, CHURN_LIVE + rounds);
    let (base, _) = pass
        .tl
        .time("tpcd.gen_db", || generate_database(&tpcd, seed));
    let first = pass.generate(&tpcd, &base, profile, 0, seed)?;
    let (mut wh, wal_dir) = set_up(pass, |pass, dir| {
        pass.setup(&tpcd.catalog, &base, &pool[..CHURN_LIVE], &first, dir)
    })?;
    drop(base);

    pass.tl.stage = "run";
    let mut live: VecDeque<String> = pool[..CHURN_LIVE].iter().map(|v| v.name.clone()).collect();
    let mut incoming = pool[CHURN_LIVE..].iter();
    for epoch in 1..=epochs as u64 {
        pass.tl.epoch = wh.epoch();
        for _ in 0..CHURN_ROUNDS_PER_EPOCH / CHURN_BLOCK {
            pass.probe();
            let block = pass.tl.begin("view_churn");
            for view in incoming.by_ref().take(CHURN_BLOCK) {
                if let Some(oldest) = live.pop_front() {
                    pass.drop_view(&mut wh, &oldest);
                }
                pass.register(&mut wh, view);
                live.push_back(view.name.clone());
            }
            pass.tl.end(block);
        }
        pass.save(&mut wh);
        let deltas = pass.generate(&tpcd, wh.database(), profile, epoch, seed)?;
        pass.cycle(&mut wh, &deltas, &wal_dir, |pass, wh| {
            for first in [true, false] {
                for name in live.iter().rev().take(CHURN_READS) {
                    pass.read(wh, name, first);
                }
            }
        });
    }
    finish(pass, wh, &wal_dir, CHURN_RECOVERIES);
    Ok(())
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Run `SETUPS` set-ups, each in a WAL directory of its own. All but the
/// last are discarded; the last one is returned for the measured cycles.
fn set_up(
    pass: &mut Pass,
    mut build: impl FnMut(&mut Pass, &Path) -> Warehouse,
) -> Result<(Warehouse, PathBuf), String> {
    for k in 0..SETUPS {
        let dir = pass.dir.join(format!("wal-{k}"));
        let wh = build(pass, &dir);
        if k + 1 == SETUPS {
            pass.rss_after_setup_mb = crate::driver::proc_status_mib("VmRSS");
            return Ok((wh, dir));
        }
        drop(wh);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    Err("no set-up requested".to_string())
}

/// After the last epoch: record peak memory, check the live engine against
/// the oracle, then drop it and recover from the WAL directory, as a
/// restarted process would, `recoveries` times. Each recovered engine must match the live one's epoch and base
/// tables; the first must also match its views (reading every view of a
/// recovered engine costs about as much as recovering it).
fn finish(pass: &mut Pass, wh: Warehouse, wal_dir: &Path, recoveries: usize) {
    pass.peak_rss_mb = crate::driver::proc_status_mib("VmHWM");
    pass.tl.stage = "final";
    let live = pass.check_views(&wh);
    drop(wh);
    for k in 0..recoveries {
        if let Some(rec) = pass.recover(wal_dir) {
            pass.check_recovered(&rec, &live, k == 0);
        }
    }
}
