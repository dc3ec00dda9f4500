//! The workloads: the graphs, what each draws from the seed, and the
//! timed set-up that builds them.

use crate::search::{roster, Contender};
use crate::validate::{queue_bfs, UNREACHED};
use obfs_engine::{Engine, EngineConfig, Query};
use obfs_graph::gen::suite::PaperGraph;
use obfs_graph::gen::{rmat, RmatParams};
use obfs_graph::{CsrGraph, VertexId};
use obfs_runtime::LevelPool;
use obfs_util::Xoshiro256StarStar;
use std::sync::Arc;
use std::time::Instant;

/// A named workload. Each one times single searches on a large graph
/// and serves Zipf-skewed queries through the engine on a smaller graph
/// of the same family, so every run reports every end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scale-free, low diameter: RMAT searches at scale 18 (bottom-up
    /// levels, compaction, steals and duplicate exploration carry the
    /// time), engine queries on RMAT scale 14.
    Graph500Rmat,
    /// High diameter: the freescale circuit stand-in at divisor 4
    /// (≈300 small levels, so barriers and level ends dominate and
    /// compaction never fires), engine queries on the same stand-in at
    /// divisor 256.
    FreescaleMesh,
}

/// Full size for measurement, toy size for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the README documents.
    Full,
    /// Graphs small enough for a debug-build test.
    Toy,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Graph500Rmat, Workload::FreescaleMesh];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Graph500Rmat => "graph500-rmat",
            Workload::FreescaleMesh => "freescale-mesh",
        }
    }

    /// Parse a `--workload` name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The graph single searches run on.
    fn search_graph(self, size: Size) -> CsrGraph {
        let seed = GRAPH_SEED;
        match (self, size) {
            (Workload::Graph500Rmat, Size::Full) => symmetric_rmat(18, seed),
            (Workload::Graph500Rmat, Size::Toy) => symmetric_rmat(10, seed),
            (Workload::FreescaleMesh, Size::Full) => PaperGraph::Freescale.generate(4, seed),
            (Workload::FreescaleMesh, Size::Toy) => PaperGraph::Freescale.generate(1024, seed),
        }
    }

    /// The graph engine queries run on.
    fn query_graph(self, size: Size) -> CsrGraph {
        let seed = GRAPH_SEED ^ 0x51DE;
        match (self, size) {
            (Workload::Graph500Rmat, Size::Full) => symmetric_rmat(14, seed),
            (Workload::Graph500Rmat, Size::Toy) => symmetric_rmat(9, seed),
            (Workload::FreescaleMesh, Size::Full) => PaperGraph::Freescale.generate(256, seed),
            (Workload::FreescaleMesh, Size::Toy) => PaperGraph::Freescale.generate(4096, seed),
        }
    }
}

/// Graph500 convention: an undirected RMAT graph (a=.45, b=c=.15),
/// edge factor 16, stored with both directions of every edge.
fn symmetric_rmat(scale: u32, seed: u64) -> CsrGraph {
    rmat(scale, 16, RmatParams::default(), seed).symmetrized()
}

/// Generator seed of every graph. The graphs are fixed instances, as
/// the paper's input matrices are, and `--seed` draws the sources, the
/// query mix and the arrivals: instances of the freescale stand-in
/// differ in depth by about a tenth between generator seeds, which
/// alone spread `teps.cl_hyb` by 0.30 (quartiles over median) across
/// ten seeds.
pub const GRAPH_SEED: u64 = 1;
/// Distinct search sources drawn per run; timed rounds cycle over them.
pub const SEARCH_SOURCES: usize = 32;
/// Candidate query sources; Zipf ranks are drawn over them. Not taken
/// from a source: the pool is kept small so that each candidate's
/// reference is computed once, outside the timed windows. Its effect
/// on coalescing shows in `serve.distinct_share`.
pub const QUERY_CANDIDATES: usize = 128;
/// Open-loop arrival rate in queries per second: under a third of
/// what the engine serves solo on either query graph, so the queue is
/// mostly empty and most queries run alone.
pub const OPEN_RATE: f64 = 90.0;
/// Zipf exponent of the query-source ranks: the constant of YCSB's
/// `zipfian` request distribution (Cooper et al., "Benchmarking Cloud
/// Serving Systems with YCSB", SoCC 2010), the common yardstick for
/// skewed key popularity.
pub const ZIPF_S: f64 = 0.99;
/// Queries the closed-loop client keeps outstanding: two full
/// coalesced batches, so one is queued while the other runs.
pub const WINDOW: usize = 2 * obfs_core::MAX_BATCH;

/// Everything the timed passes use, built by [`Setup::build`].
pub struct Setup {
    /// The search graph.
    pub graph: CsrGraph,
    /// Its transpose (hybrid bottom-up probes, validation).
    pub inv: CsrGraph,
    /// The query graph the engine serves.
    pub qgraph: Arc<CsrGraph>,
    /// The worker pool single searches run on.
    pub pool: LevelPool,
    /// The query engine.
    pub engine: Engine,
    /// The contenders, configured for `pool`.
    pub roster: Vec<Contender>,
    /// Search sources.
    pub sources: Vec<VertexId>,
    /// Query-source candidates, by Zipf rank.
    pub candidates: Vec<VertexId>,
    /// Seconds spent generating the two graphs.
    pub gen_s: f64,
    /// Seconds spent transposing the search graph.
    pub transpose_s: f64,
    /// Seconds for the whole set-up, warm-up included.
    pub total_s: f64,
}

impl Setup {
    /// Generate the inputs, start the pool and the engine,
    /// and warm both up (one untimed search per contender, one
    /// coalesced batch and one solo query).
    pub fn build(w: Workload, size: Size, seed: u64, workers: usize) -> Setup {
        let t0 = Instant::now();
        let graph = w.search_graph(size);
        let qgraph = Arc::new(w.query_graph(size));
        let gen_s = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let inv = graph.transpose();
        let transpose_s = t.elapsed().as_secs_f64();
        let sources = giant_component_sources(&graph, SEARCH_SOURCES, seed ^ 0x5EA4C4);
        let candidates = giant_component_sources(&qgraph, QUERY_CANDIDATES, seed ^ 0xC0FFEE);
        let pool = LevelPool::new(workers);
        let engine = Engine::new(
            Arc::clone(&qgraph),
            EngineConfig { threads: workers, capacity: WINDOW, seed, ..Default::default() },
        );
        let roster = roster(workers);
        for c in &roster {
            // A failure here poisons the pool, so every timed search fails and counts.
            let _ = std::hint::black_box(c.run(&pool, &graph, &inv, sources[0], &c.opts));
        }
        let batch: Vec<_> = candidates
            .iter()
            .take(obfs_core::MAX_BATCH)
            .filter_map(|&s| engine.submit(Query::new(obfs_core::Algorithm::Bfscl, s)).ok())
            .collect();
        batch.into_iter().for_each(|h| drop(h.wait()));
        if let Ok(h) = engine.submit(Query::new(obfs_core::Algorithm::Bfscl, candidates[0])) {
            drop(h.wait());
        }
        let total_s = t0.elapsed().as_secs_f64();
        Setup {
            graph,
            inv,
            qgraph,
            pool,
            engine,
            roster,
            sources,
            candidates,
            gen_s,
            transpose_s,
            total_s,
        }
    }

    /// Bytes of the search graph's CSR plus its transpose.
    pub fn graph_bytes(&self) -> usize {
        self.graph.memory_bytes() + self.inv.memory_bytes()
    }
}

/// `k` distinct sources (fewer on a toy graph) drawn from the
/// component of the highest-degree vertex, so every search and query
/// traverses the giant component rather than a stray fragment.
fn giant_component_sources(g: &CsrGraph, k: usize, seed: u64) -> Vec<VertexId> {
    let levels = queue_bfs(g, g.max_degree().1);
    let mut pool: Vec<VertexId> =
        (0..g.num_vertices() as VertexId).filter(|&v| levels[v as usize] != UNREACHED).collect();
    let mut rng = Xoshiro256StarStar::new(seed);
    rng.shuffle(&mut pool);
    pool.truncate(k);
    pool
}
