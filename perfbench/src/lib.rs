//! The obfs benchmark: one named workload per process, at most `nproc`
//! worker threads, every output checked against an independent BFS.
//!
//! An untraced run reports the end-to-end metrics; a traced run (a
//! separate process) reports the per-layer metrics. See README.md for
//! the workloads, the metrics and the layer → end-to-end map.

pub mod host;
pub mod inputs;
pub mod layers;
pub mod search;
pub mod serve;
pub mod stats;
pub mod validate;

use inputs::{Setup, Size, Workload};
use stats::{beyond, median, quantile};
use std::time::Duration;
use validate::Reference;

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the timed passes share.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// Operations attempted and failed, with the first few failures shown
/// on stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a wrong output, a pool error, a status
    /// other than complete, or a shed query.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `Some` of its value when it passed.
    pub fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            if self.failed < 5 {
                eprintln!("FAILED {what}: {e}");
            }
            self.failed += 1;
        })
        .ok()
    }

    /// Add another tally's counts.
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// A measured value with its unit.
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one invocation prints.
pub struct Report {
    /// Every reference search passed the Graph500 checks and no
    /// operation failed: on this tree every workload runs with zero
    /// failures, so any failure marks the program under test broken.
    pub correct: bool,
    /// Operations counted.
    pub tally: Tally,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Lines printed before the host line: reference figures that are
    /// not metrics.
    pub notes: Vec<String>,
    /// The host line.
    pub host: String,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { format!("{}", m.value) } else { "null".into() };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Shares of `--seconds` given to the search pass and the closed
/// loop; a traced run also gives the open loop its share. The search
/// pass and the closed loop alternate in [`SEGMENTS`] segments, so both
/// sample the host's state across the whole run.
const SEARCH_SHARE: f64 = 0.8;
const CLOSED_SHARE: f64 = 0.2;
const TRACED_SEARCH_SHARE: f64 = 0.4;
const TRACED_CLOSED_SHARE: f64 = 0.1;
const OPEN_SHARE: f64 = 0.5;
const SEGMENTS: u32 = 8;
/// End-to-end speeds are the upper quartile of their samples (per
/// search, per block of closed-loop responses): interference from
/// other tenants of a shared host only ever slows a sample, so the fast
/// quartile tracks the program while the slow half absorbs the host. On a 2-vCPU VM
/// with 7–10% of CPU time stolen, three runs of one seed read BFS_CL's
/// median at 90–102 MTEPS and its upper quartile at 104–111.
const UPPER_QUARTILE: f64 = 0.75;
/// Untraced set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Run one invocation.
pub fn run(cfg: &Config) -> Report {
    let steal = host::StealMeter::start();
    let workers = host::nproc();
    let w = cfg.workload;
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..if cfg.trace { 1 } else { SETUPS } {
        drop(s.take());
        let built = Setup::build(w, cfg.size, cfg.seed, workers);
        setup_s.push(built.total_s);
        s = Some(built);
    }
    let s = s.expect("at least one set-up");

    // References, outside every timed window.
    let qinv = s.qgraph.transpose();
    let refs: Result<Vec<Reference>, String> =
        s.sources.iter().map(|&src| Reference::new(&s.graph, &s.inv, src)).collect();
    let qrefs: Result<Vec<Reference>, String> =
        s.candidates.iter().map(|&src| Reference::new(&s.qgraph, &qinv, src)).collect();
    let (refs, qrefs) = match (refs, qrefs) {
        (Ok(r), Ok(q)) => (r, q),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("reference BFS failed its Graph500 checks: {e}");
            let host = host::line(workers, steal.pct());
            let (tally, metrics, notes) = (Tally::default(), Vec::new(), Vec::new());
            return Report { correct: false, tally, metrics, notes, host };
        }
    };

    let mut tally = Tally::default();
    let secs = |share: f64| Duration::from_secs_f64(cfg.seconds * share);
    let (search_share, closed_share) = if cfg.trace {
        (TRACED_SEARCH_SHARE, TRACED_CLOSED_SHARE)
    } else {
        (SEARCH_SHARE, CLOSED_SHARE)
    };
    let zipf = serve::Zipf::new(s.candidates.len(), inputs::ZIPF_S);
    let mut rng = obfs_util::Xoshiro256StarStar::new(cfg.seed ^ 0x2199F);
    let mut pass = search::Pass::new(s.roster.len());
    let mut closed = serve::Closed::default();
    for _ in 0..SEGMENTS {
        pass.extend(&s, &refs, secs(search_share) / SEGMENTS, cfg.trace, &mut tally);
        let budget = secs(closed_share) / SEGMENTS;
        serve::closed_loop(&s, &qrefs, &zipf, &mut rng, budget, &mut tally, &mut closed);
    }

    let mut notes = Vec::new();
    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric { name: name.to_string(), value, unit });
    };
    if !cfg.trace {
        put("setup_s", median(&setup_s), "s");
        put("peak_rss_mb", host::peak_rss_mb(), "MB");
        let mut harmonic = String::from("reference: Graph500 harmonic-mean TEPS");
        for (c, t) in s.roster.iter().zip(&pass.teps) {
            put(&format!("teps.{}", c.key), quantile(t, UPPER_QUARTILE), "TEPS");
            let h = t.len() as f64 / t.iter().map(|x| 1.0 / x).sum::<f64>();
            harmonic += &format!(" {}={:.4e}", c.key, h);
        }
        notes.push(harmonic);
        put("query_qps", quantile(&closed.block_qps, UPPER_QUARTILE), "qps");
    } else {
        let arrivals = (inputs::OPEN_RATE * cfg.seconds * OPEN_SHARE).ceil() as usize;
        let open = serve::open_loop(&s, &qrefs, &zipf, &mut rng, arrivals, &mut tally);
        put("graph.gen_s", s.gen_s, "s");
        put("graph.transpose_s", s.transpose_s, "s");
        put("graph.mb", s.graph_bytes() as f64 / 1e6, "MB");
        put("runtime.run_us", layers::run_round_trip_us(&s.pool, 2000), "us");
        put("runtime.barrier_us", layers::barrier_crossing_us(&s.pool, 20_000), "us");
        for (name, v, unit) in layers::core_metrics(&pass) {
            put(name, v, unit);
        }
        put("core.scan.gbps", layers::scan_gbps(s.graph.num_vertices(), cfg.seed), "GB/s");
        let (batch_ms, batch_teps) = layers::batch(&s, &qrefs, &mut tally);
        put("core.batch.ms", batch_ms, "ms");
        put("core.batch.teps", batch_teps, "TEPS");
        put("serve.wait_ms.p50", median(&open.wait_ms), "ms");
        put("serve.run_ms.p50", median(&open.run_ms), "ms");
        let occupancy = closed.coalesced as f64 / closed.batched_runs.max(1) as f64;
        put("serve.occupancy", occupancy, "count");
        put(
            "serve.coalesced_share",
            closed.coalesced as f64 / closed.answered.max(1) as f64,
            "ratio",
        );
        put(
            "serve.distinct_share",
            closed.distinct as f64 / closed.batch_queries.max(1) as f64,
            "ratio",
        );
        put("client.lag_ms.p99", quantile(&open.lag_ms, 0.99), "ms");
        put("client.query_ms.p50", median(&open.latency_ms), "ms");
        if beyond(&open.latency_ms, 0.99) < 10 {
            eprintln!("warning: client.query_ms.p99 has fewer than ten samples beyond it");
        }
        put("client.query_ms.p99", quantile(&open.latency_ms, 0.99), "ms");
        let [beamer, hong, bag] = layers::baselines(&s, &refs, &mut tally);
        put("baselines.beamer.teps", beamer, "TEPS");
        put("baselines.hong.teps", hong, "TEPS");
        put("baselines.bag.teps", bag, "TEPS");
        put("traced.slowdown", layers::traced_slowdown(&pass), "ratio");
        put("host.steal_pct", steal.pct(), "%");
    }
    let host = host::line(workers, steal.pct());
    Report { correct: tally.failed == 0, tally, metrics, notes, host }
}
