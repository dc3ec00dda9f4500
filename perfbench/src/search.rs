//! Single searches: the five contenders, timed in turn on each source.

use crate::inputs::Setup;
use crate::validate::{check_parents, Reference};
use crate::Tally;
use obfs_core::serial::serial_bfs_with_opts;
use obfs_core::{
    driver, Algorithm, BfsOptions, BfsResult, CompactionPolicy, HybridPolicy, Outcome, RunStats,
};
use obfs_graph::{CsrGraph, VertexId};
use obfs_runtime::{LevelPool, PoolError};
use std::time::{Duration, Instant};

/// One configuration of the BFS family under test.
pub struct Contender {
    /// Metric suffix: `teps.<key>`.
    pub key: &'static str,
    /// The algorithm.
    pub algo: Algorithm,
    /// Its options (threads set to the pool width).
    pub opts: BfsOptions,
}

/// sbfs, BFS_CL, BFS_WSL, BFS_CL with prefix-sum compaction, and
/// BFS_CL with the α/β hybrid plus default compaction.
pub fn roster(workers: usize) -> Vec<Contender> {
    let base = BfsOptions { threads: workers, ..Default::default() };
    let cmp = BfsOptions { compaction: Some(CompactionPolicy::default()), ..base.clone() };
    let hyb = BfsOptions { hybrid: Some(HybridPolicy::default()), ..cmp.clone() };
    vec![
        Contender { key: "sbfs", algo: Algorithm::Serial, opts: base.clone() },
        Contender { key: "cl", algo: Algorithm::Bfscl, opts: base.clone() },
        Contender { key: "wsl", algo: Algorithm::Bfswsl, opts: base },
        Contender { key: "cl_cmp", algo: Algorithm::Bfscl, opts: cmp },
        Contender { key: "cl_hyb", algo: Algorithm::Bfscl, opts: hyb },
    ]
}

impl Contender {
    /// One search from `src`. Parallel contenders take the path
    /// `BfsRunner::run_with_transpose` takes, with the pool error
    /// returned rather than raised; the transpose serves only the
    /// hybrid's bottom-up levels.
    pub fn run(
        &self,
        pool: &LevelPool,
        graph: &CsrGraph,
        inv: &CsrGraph,
        src: VertexId,
        opts: &BfsOptions,
    ) -> Result<BfsResult, PoolError> {
        if self.algo == Algorithm::Serial {
            return Ok(serial_bfs_with_opts(graph, src, opts));
        }
        driver::try_run_on_pool_with_transpose(self.algo, graph, src, opts, pool, Some(inv))
    }
}

/// Run one search, time the call, then check it against `reference`
/// (and its parents when recorded) with the clock stopped. Returns the
/// seconds and the run's stats, or `None` if the search failed.
fn timed_search(
    s: &Setup,
    c: &Contender,
    reference: &Reference,
    opts: &BfsOptions,
    tally: &mut Tally,
) -> Option<(f64, RunStats)> {
    let t = Instant::now();
    let run = c.run(&s.pool, &s.graph, &s.inv, reference.src, opts);
    let secs = t.elapsed().as_secs_f64();
    let checked = run.map_err(|e| e.to_string()).and_then(|r| {
        if r.stats.outcome != Outcome::Complete {
            return Err(format!("outcome {:?}", r.stats.outcome));
        }
        reference.check(&s.graph, &r.levels)?;
        if let Some(p) = &r.parents {
            check_parents(&s.inv, reference.src, &r.levels, p)?;
        }
        Ok(r.stats)
    });
    tally.record(&format!("{} from {}", c.key, reference.src), checked).map(|st| (secs, st))
}

/// One traced search that passed its checks.
pub struct Traced {
    /// Wall seconds of the call.
    pub secs: f64,
    /// Vertices the search reached.
    pub reached: usize,
    /// What the run recorded.
    pub stats: RunStats,
}

/// Per contender, in roster order, what each passing search measured.
pub struct Pass {
    /// Untraced seconds per search.
    pub secs: Vec<Vec<f64>>,
    /// Untraced TEPS per search: input edges of the traversed
    /// component over the wall time of the call.
    pub teps: Vec<Vec<f64>>,
    /// Traced searches (traced passes only).
    pub traced: Vec<Vec<Traced>>,
    /// Rounds run so far.
    rounds: usize,
}

impl Pass {
    /// An empty pass over a roster of `k` contenders.
    pub fn new(k: usize) -> Self {
        let traced = (0..k).map(|_| Vec::new()).collect();
        Pass { secs: vec![Vec::new(); k], teps: vec![Vec::new(); k], traced, rounds: 0 }
    }

    /// Time the roster in rounds until `budget` has passed: round `r`
    /// searches from source `r mod |sources|` and starts with
    /// contender `r mod 5`, so a slow stretch of a shared host hits
    /// every contender alike. Only whole rounds run, at least one. A
    /// traced pass follows each untraced search with the same search
    /// traced (level stats, histograms, parents).
    pub fn extend(
        &mut self,
        s: &Setup,
        refs: &[Reference],
        budget: Duration,
        traced: bool,
        tally: &mut Tally,
    ) {
        let k = s.roster.len();
        let deadline = Instant::now() + budget;
        let first = self.rounds;
        while self.rounds == first || Instant::now() < deadline {
            let round = self.rounds;
            let reference = &refs[round % refs.len()];
            for j in 0..k {
                let ci = (round + j) % k;
                let c = &s.roster[ci];
                if let Some((secs, _)) = timed_search(s, c, reference, &c.opts, tally) {
                    self.secs[ci].push(secs);
                    self.teps[ci].push(reference.edges as f64 / secs);
                }
                if traced {
                    let opts = BfsOptions {
                        collect_level_stats: true,
                        collect_histograms: true,
                        record_parents: true,
                        ..c.opts.clone()
                    };
                    if let Some((secs, stats)) = timed_search(s, c, reference, &opts, tally) {
                        self.traced[ci].push(Traced { secs, reached: reference.reached, stats });
                    }
                }
            }
            self.rounds += 1;
        }
    }
}
