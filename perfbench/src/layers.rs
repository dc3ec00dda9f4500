//! Per-layer figures for the traced pass: each layer timed from
//! outside through its public functions, plus the counters, level
//! stats and histograms the traced searches recorded.

use crate::inputs::Setup;
use crate::search::{Pass, Traced};
use crate::stats::median;
use crate::validate::Reference;
use crate::Tally;
use obfs_baselines::hong::{hong_bfs_on_pool, HongVariant};
use obfs_baselines::{beamer::beamer_bfs_on_pool, PbfsRunner};
use obfs_core::scan::{for_each_set, popcount_words};
use obfs_core::{
    driver, frontier::FrontierBitmap, Algorithm, BfsOptions, Direction, KernelChoice, RunStats,
};
use obfs_runtime::LevelPool;
use obfs_util::Xoshiro256StarStar;
use std::time::Instant;

/// Median microseconds of an empty `LevelPool::run` round trip.
pub fn run_round_trip_us(pool: &LevelPool, reps: usize) -> f64 {
    let us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            pool.run(|_| {}).expect("empty job cannot panic");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&us)
}

/// Median over five runs of the microseconds per crossing of the
/// pool's barrier, every worker crossing `crossings` times in one run.
pub fn barrier_crossing_us(pool: &LevelPool, crossings: usize) -> f64 {
    let us: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            pool.run(|ctx| {
                for _ in 0..crossings {
                    ctx.barrier().wait();
                }
            })
            .expect("barrier job cannot panic");
            t.elapsed().as_secs_f64() * 1e6 / crossings as f64
        })
        .collect();
    median(&us)
}

/// Bitmap walk rate in GB/s of the scan kernel the dispatch probe
/// picks: a popcount pass and a set-bit enumeration over an `n`-bit
/// bitmap a quarter full, counting the bitmap's bytes once per pass.
pub fn scan_gbps(n: usize, seed: u64) -> f64 {
    let bm = FrontierBitmap::new(n);
    let mut rng = Xoshiro256StarStar::new(seed);
    for wi in 0..bm.word_count() {
        bm.set_word(wi, rng.next_u32() & rng.next_u32());
    }
    let backend = KernelChoice::Auto.resolve();
    let words = bm.word_count();
    let bytes = 2.0 * (words * 4) as f64;
    let rates: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let mut acc = popcount_words(backend, &bm, 0, words);
            for_each_set(backend, &bm, 0, words, |v| acc ^= v as u64);
            std::hint::black_box(acc);
            bytes / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// One batched BFS_CL run over the first 64 query candidates, three
/// times: median milliseconds and median TEPS (input edges of every
/// query's component over the run's wall time).
pub fn batch(s: &Setup, qrefs: &[Reference], tally: &mut Tally) -> (f64, f64) {
    let refs = &qrefs[..qrefs.len().min(obfs_core::MAX_BATCH)];
    let sources: Vec<_> = refs.iter().map(|r| r.src).collect();
    let edges: u64 = refs.iter().map(|r| r.edges).sum();
    let opts = BfsOptions { threads: s.pool.threads(), ..Default::default() };
    let mut ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let run =
            driver::try_run_batch_on_pool(Algorithm::Bfscl, &s.qgraph, &sources, &opts, &s.pool);
        let secs = t.elapsed().as_secs_f64();
        let checked = run.map_err(|e| e.to_string()).and_then(|b| {
            refs.iter().zip(&b.queries).try_for_each(|(r, q)| r.check(&s.qgraph, &q.levels))
        });
        if tally.record("64-source batch", checked).is_some() {
            ms.push(secs * 1e3);
        }
    }
    let m = median(&ms);
    (m, edges as f64 / (m / 1e3))
}

/// Median TEPS of Beamer's direction-optimizing BFS, Hong's
/// local-queue read-bitmap BFS and the bag-based PBFS over the first
/// three search sources.
pub fn baselines(s: &Setup, refs: &[Reference], tally: &mut Tally) -> [f64; 3] {
    let mut bag = PbfsRunner::new(s.pool.threads());
    let mut teps = [Vec::new(), Vec::new(), Vec::new()];
    for r in refs.iter().take(3) {
        for (i, t) in teps.iter_mut().enumerate() {
            let t0 = Instant::now();
            let levels = match i {
                0 => beamer_bfs_on_pool(&s.graph, &s.inv, r.src, &s.pool).bfs.levels,
                1 => {
                    hong_bfs_on_pool(HongVariant::LocalQueueReadBitmap, &s.graph, r.src, &s.pool)
                        .levels
                }
                _ => bag.run(&s.graph, r.src).levels,
            };
            let secs = t0.elapsed().as_secs_f64();
            if tally.record("baseline search", r.check(&s.graph, &levels)).is_some() {
                t.push(r.edges as f64 / secs);
            }
        }
    }
    teps.map(|t| median(&t))
}

/// Median over `runs` of `f(stats)`.
fn per_run(runs: &[Traced], f: impl Fn(&RunStats) -> f64) -> f64 {
    median(&runs.iter().map(|t| f(&t.stats)).collect::<Vec<_>>())
}

/// Milliseconds a run spent in the levels `keep` selects.
fn level_ms(st: &RunStats, keep: impl Fn(&obfs_core::LevelStats) -> bool) -> f64 {
    st.level_stats.iter().filter(|l| keep(l)).map(|l| l.duration.as_secs_f64() * 1e3).sum()
}

/// The core layer metrics from the traced searches, by contender
/// (roster order: sbfs, cl, wsl, cl_cmp, cl_hyb).
pub fn core_metrics(p: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let [_, cl, wsl, cmp, hyb] = &p.traced[..] else { panic!("roster has five contenders") };
    let level_us: Vec<f64> = cl
        .iter()
        .flat_map(|t| t.stats.level_stats.iter().map(|l| l.duration.as_secs_f64() * 1e6))
        .collect();
    let mut hists = obfs_sync::metrics::WorkerHists::default();
    cl.iter().filter_map(|t| t.stats.hists.as_ref()).for_each(|h| hists.merge(&h.merged()));
    vec![
        ("core.levels", per_run(cl, |st| f64::from(st.levels)), "count"),
        ("core.level_us.p50", median(&level_us), "us"),
        ("core.barrier_wait_us.mean", hists.barrier_wait_us.mean(), "us"),
        ("core.segments", per_run(cl, |st| st.totals.segments_fetched as f64), "count"),
        ("core.fetch_retries", per_run(cl, |st| st.totals.fetch_retries as f64), "count"),
        ("core.fetch_us.mean", hists.segment_fetch_us.mean(), "us"),
        ("core.stale_aborts", per_run(cl, |st| st.totals.stale_slot_aborts as f64), "count"),
        ("core.dup_ratio", dup_ratio(cl), "ratio"),
        ("core.steal_attempts", per_run(wsl, |st| st.totals.steal.attempts as f64), "count"),
        ("core.steal_success", per_run(wsl, |st| st.totals.steal.success as f64), "count"),
        (
            "core.hyb.bu_levels",
            per_run(hyb, |st| {
                st.directions.iter().filter(|&&d| d == Direction::BottomUp).count() as f64
            }),
            "count",
        ),
        ("core.hyb.switches", per_run(hyb, |st| f64::from(st.direction_switches)), "count"),
        (
            "core.hyb.bu_ms",
            per_run(hyb, |st| level_ms(st, |l| l.direction == Direction::BottomUp)),
            "ms",
        ),
        (
            "core.hyb.td_ms",
            per_run(hyb, |st| level_ms(st, |l| l.direction == Direction::TopDown)),
            "ms",
        ),
        ("core.cmp.levels", per_run(cmp, |st| f64::from(st.compacted_levels)), "count"),
        ("core.cmp.ms", per_run(cmp, |st| level_ms(st, |l| l.compacted)), "ms"),
    ]
}

/// Median over BFS_CL's traced searches of vertices explored per
/// vertex reached, minus one: the share of exploration the optimistic
/// dispatch duplicated.
fn dup_ratio(cl: &[Traced]) -> f64 {
    let r: Vec<f64> = cl
        .iter()
        .map(|t| t.stats.totals.vertices_explored as f64 / t.reached as f64 - 1.0)
        .collect();
    median(&r)
}

/// Traced over untraced median search time, the median over the
/// contenders.
pub fn traced_slowdown(p: &Pass) -> f64 {
    let ratios: Vec<f64> = p
        .traced
        .iter()
        .zip(&p.secs)
        .map(|(t, u)| median(&t.iter().map(|t| t.secs).collect::<Vec<_>>()) / median(u))
        .collect();
    median(&ratios)
}
