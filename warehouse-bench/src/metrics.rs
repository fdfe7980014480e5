//! Metrics derived from a pass's spans.

use crate::driver::{Pass, REPLAN_KEYS};
use crate::timeline::{Span, Timeline};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarises (1 for a single measurement or total).
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if q == 0.5 && s.len().is_multiple_of(2) {
        return (s[s.len() / 2 - 1] + s[s.len() / 2]) / 2.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn totals(groups: Vec<(f64, usize)>) -> Vec<f64> {
    groups.into_iter().map(|(total, _)| total).collect()
}

fn means(groups: Vec<(f64, usize)>) -> Vec<f64> {
    groups
        .into_iter()
        .map(|(total, n)| total / n as f64)
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Σ `key` ÷ Σ seconds over the matching spans.
fn per_second<'a>(spans: impl Iterator<Item = &'a Span>, key: &str) -> (f64, usize) {
    let (mut total, mut ms, mut n) = (0.0, 0.0, 0);
    for s in spans {
        total += s.attr(key);
        ms += s.ms();
        n += 1;
    }
    (ratio(total, ms / 1e3), n)
}

/// Median `host.probe` time on the reference host in a quiet period (ms).
const PROBE_REF_MS: f64 = 20.0;

/// How much slower than the reference host the pass ran: its median
/// `host.probe` time over [`PROBE_REF_MS`]. 1 when the pass ran no probe.
pub fn host_slowdown(tl: &Timeline) -> f64 {
    let probes = tl.ms_any("host.probe");
    if probes.is_empty() {
        1.0
    } else {
        median(&probes) / PROBE_REF_MS
    }
}

/// The end-to-end metrics, from an untraced pass. Timings are brought to
/// the reference host's speed: durations are divided by the pass's
/// [`host_slowdown`], rates multiplied by it.
pub fn end_to_end(p: &Pass) -> Vec<Metric> {
    let tl = &p.tl;
    let slow = host_slowdown(tl);
    let setup = tl.ms("setup", "setup");
    let epochs = tl.ms("run", "warehouse.run_epoch");
    let ingests = totals(tl.per_parent("run", "warehouse.ingest"));
    let maintenance_ms: f64 = tl
        .spans("run", "warehouse.ingest")
        .chain(tl.spans("run", "warehouse.run_epoch"))
        .map(Span::ms)
        .sum();
    let ingested = tl.total("run", "warehouse.ingest", "tuples");
    let (first_rps, first_n) = per_second(tl.spans("run", "warehouse.query_first"), "rows");
    let (repeat_rps, repeat_n) = per_second(tl.spans("run", "warehouse.query"), "rows");
    let recover = tl.ms("final", "durability.recover");
    let wal = tl.total("run", "cycle", "wal_bytes");
    vec![
        metric("setup_s", "s", median(&setup) / 1e3 / slow, setup.len()),
        metric("epoch_ms", "ms", median(&epochs) / slow, epochs.len()),
        metric("ingest_ms", "ms", median(&ingests) / slow, ingests.len()),
        metric(
            "refresh_tuples_per_s",
            "tuples/s",
            ratio(ingested, maintenance_ms / 1e3) * slow,
            epochs.len(),
        ),
        metric(
            "first_query_rows_per_s",
            "rows/s",
            first_rps * slow,
            first_n,
        ),
        metric("query_rows_per_s", "rows/s", repeat_rps * slow, repeat_n),
        metric(
            "recover_s",
            "s",
            median(&recover) / 1e3 / slow,
            recover.len(),
        ),
        metric(
            "wal_bytes_per_tuple",
            "B/tuple",
            ratio(wal, ingested),
            epochs.len(),
        ),
        metric("peak_rss_mb", "MiB", p.peak_rss_mb, 1),
    ]
}

/// The per-layer metrics, from a traced pass; `reference_epoch_ms` is the
/// `epoch_ms` of an untraced run of the same workload and seed, for the
/// tracing overhead.
pub fn per_layer(traced: &Pass, reference_epoch_ms: f64) -> Vec<Metric> {
    let tl = &traced.tl;
    let epoch_spans: Vec<&Span> = tl.spans("run", "warehouse.run_epoch").collect();
    let n_epochs = epoch_spans.len();
    let sum_attr = |key: &str| epoch_spans.iter().map(|s| s.attr(key)).sum::<f64>();
    let per_epoch = |name: &str| {
        let v = totals(tl.per_parent("run", name));
        (median(&v), v.len())
    };
    let calls = |stage: &str, name: &str| {
        let v = tl.ms(stage, name);
        (median(&v), v.len())
    };

    let mut out = Vec::new();
    let (gen, n) = calls("run", "tpcd.gen");
    out.push(metric("tpcd.gen_ms", "ms", gen, n));
    let (ingest, n) = per_epoch("warehouse.ingest");
    out.push(metric("warehouse.ingest_ms", "ms", ingest, n));
    let first_ingest = totals(tl.per_parent("setup", "warehouse.ingest"));
    out.push(metric(
        "warehouse.ingest_first_ms",
        "ms",
        median(&first_ingest),
        first_ingest.len(),
    ));
    let (validate, n) = per_epoch("storage.validate");
    out.push(metric("storage.validate_ms", "ms", validate, n));
    let (append, n) = per_epoch("storage.wal_append");
    out.push(metric("storage.wal_append_ms", "ms", append, n));
    out.push(metric(
        "storage.wal_bytes",
        "bytes",
        tl.total("run", "cycle", "wal_bytes"),
        n_epochs,
    ));
    let (apply, n) = per_epoch("storage.apply");
    out.push(metric("storage.apply_ms", "ms", apply, n));

    // Replans of the measured engine over its whole life: set-up,
    // measured rounds and epochs (recovery's replans are its own).
    let engine_spans: Vec<&Span> = ["setup", "run"]
        .iter()
        .flat_map(|stage| {
            [
                "warehouse.register_view",
                "warehouse.drop_view",
                "warehouse.run_epoch",
            ]
            .into_iter()
            .flat_map(move |name| tl.spans(stage, name))
        })
        .collect();
    let mut replans = 0.0;
    for key in REPLAN_KEYS {
        let count = engine_spans.iter().fold(0.0, |acc, s| acc + s.attr(key));
        replans += count;
        out.push(metric(key, "count", count, 1));
    }
    let replan_ms: f64 = engine_spans.iter().map(|s| s.attr("replan_ms")).sum();
    out.push(metric(
        "core.replan_ms",
        "ms",
        ratio(replan_ms, replans),
        replans as usize,
    ));
    let (cold, n) = calls("run", "core.plan_cold");
    out.push(metric("core.plan_cold_ms", "ms", cold, n));
    // Set-up registrations, then churn rounds: per set-up and per block of
    // ten rounds, the mean latency.
    let mut registers = means(tl.per_parent("setup", "warehouse.register_view"));
    registers.extend(means(tl.per_parent("run", "warehouse.register_view")));
    out.push(metric(
        "warehouse.register_view_ms",
        "ms",
        median(&registers),
        registers.len(),
    ));
    let mut register_calls = tl.ms("setup", "warehouse.register_view");
    register_calls.extend(tl.ms("run", "warehouse.register_view"));
    out.push(metric(
        "warehouse.register_view_p90_ms",
        "ms",
        quantile(&register_calls, 0.9),
        register_calls.len(),
    ));
    let drops = means(tl.per_parent("run", "warehouse.drop_view"));
    out.push(metric(
        "warehouse.drop_view_ms",
        "ms",
        median(&drops),
        drops.len(),
    ));

    for (name, key) in [
        ("exec.setup_builds", "setup_builds"),
        ("exec.total_builds", "total_builds"),
        ("exec.forced_recomputes", "forced_recomputes"),
    ] {
        out.push(metric(name, "count", sum_attr(key), n_epochs));
    }
    let non_replan: Vec<f64> = epoch_spans
        .iter()
        .map(|s| s.ms() - s.attr("replan_ms"))
        .collect();
    out.push(metric(
        "epoch.non_replan_ms",
        "ms",
        median(&non_replan),
        n_epochs,
    ));
    let metered: Vec<f64> = epoch_spans.iter().map(|s| s.attr("metered_s")).collect();
    let estimated: Vec<f64> = epoch_spans.iter().map(|s| s.attr("estimated_s")).collect();
    let ratios: Vec<f64> = metered
        .iter()
        .zip(&estimated)
        .map(|(m, e)| ratio(*m, *e))
        .collect();
    out.push(metric("exec.metered_s", "s", median(&metered), n_epochs));
    out.push(metric(
        "core.estimated_s",
        "s",
        median(&estimated),
        n_epochs,
    ));
    out.push(metric(
        "exec.cost_ratio",
        "ratio",
        median(&ratios),
        n_epochs,
    ));

    let (first, n_first) = calls("run", "warehouse.query_first");
    out.push(metric("warehouse.query_first_ms", "ms", first, n_first));
    let (repeat, n_repeat) = calls("run", "warehouse.query");
    out.push(metric("warehouse.query_ms", "ms", repeat, n_repeat));
    let reads = || {
        tl.spans("run", "warehouse.query_first")
            .chain(tl.spans("run", "warehouse.query"))
    };
    out.push(metric(
        "warehouse.query_rows",
        "rows",
        reads().map(|s| s.attr("rows")).sum(),
        n_first + n_repeat,
    ));
    out.push(metric(
        "warehouse.query_from_mat_ratio",
        "ratio",
        ratio(
            reads().map(|s| s.attr("from_mat")).sum(),
            (n_first + n_repeat) as f64,
        ),
        n_first + n_repeat,
    ));

    let (save, n) = calls("run", "durability.save");
    out.push(metric("durability.save_ms", "ms", save, n));
    out.push(metric(
        "durability.snapshot_bytes",
        "bytes",
        tl.spans("run", "durability.save")
            .last()
            .map_or(0.0, |s| s.attr("snapshot_bytes")),
        1,
    ));
    let (recover, n) = calls("final", "durability.recover");
    out.push(metric("durability.recover_ms", "ms", recover, n));
    out.push(metric(
        "durability.replayed_records",
        "count",
        ratio(
            tl.total("final", "durability.recover", "replayed_records"),
            n as f64,
        ),
        n,
    ));
    out.push(metric(
        "durability.selection_match",
        "bool",
        ratio(
            tl.total("final", "durability.recover", "selection_match"),
            n as f64,
        ),
        n,
    ));

    out.push(metric(
        "process.rss_after_setup_mb",
        "MiB",
        traced.rss_after_setup_mb,
        1,
    ));
    out.push(metric("process.rss_peak_mb", "MiB", traced.peak_rss_mb, 1));

    let probes = tl.ms_any("host.probe");
    out.push(metric("host.probe_ms", "ms", median(&probes), probes.len()));
    // The reference's `epoch_ms` is brought to the reference host's speed;
    // so is this pass's, with its own probes.
    let with_trace = median(&tl.ms("run", "warehouse.run_epoch")) / host_slowdown(tl);
    out.push(metric(
        "trace.overhead_pct",
        "%",
        100.0 * (ratio(with_trace, reference_epoch_ms) - 1.0),
        n_epochs,
    ));
    out
}
