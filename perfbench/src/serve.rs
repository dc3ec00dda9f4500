//! Engine queries: a closed loop for throughput and an open loop for
//! latency, both drawing sources by Zipf rank from the candidates.

use crate::inputs::Setup;
use crate::validate::Reference;
use crate::Tally;
use obfs_core::Algorithm;
use obfs_engine::{Query, QueryHandle, QueryResponse, QueryStatus, SubmitError};
use obfs_telemetry::{stage, SpanDump};
use obfs_util::Xoshiro256StarStar;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Zipf-distributed ranks over `0..k`: rank `r` has weight `1/(r+1)^s`.
pub struct Zipf(Vec<f64>);

impl Zipf {
    /// The cumulative distribution over `k` ranks.
    pub fn new(k: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=k)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Self(cdf)
    }

    /// Draw a rank.
    pub fn draw(&self, rng: &mut Xoshiro256StarStar) -> usize {
        let u = rng.next_f64();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// Every query asks BFS_CL for levels, the engine's common case.
fn query(s: &Setup, rank: usize) -> Query {
    Query::new(Algorithm::Bfscl, s.candidates[rank])
}

/// A response passes when it completed and its levels equal the
/// reference for its source.
fn check(s: &Setup, resp: QueryResponse, reference: &Reference) -> Result<QueryResponse, String> {
    if resp.status != QueryStatus::Complete {
        return Err(format!("query {} ended {:?}", resp.id, resp.status));
    }
    let levels = &resp.result.as_ref().ok_or("complete response without a result")?.levels;
    reference.check(&s.qgraph, levels)?;
    Ok(resp)
}

/// What the engine's own accounting says a response spent.
fn split_ms(r: &QueryResponse) -> (f64, f64) {
    let wait = r.wait_ns as f64 / 1e6;
    (wait, r.total_ns as f64 / 1e6 - wait)
}

/// Responses per throughput sample: four full coalesced batches.
const BLOCK: usize = 4 * obfs_core::MAX_BATCH;

/// Closed-loop figures over one or more windows.
#[derive(Default)]
pub struct Closed {
    /// Throughput samples: queries per second over each run of
    /// [`BLOCK`] consecutive passing responses inside a window, the
    /// first block of each window (the ramp) left out.
    pub block_qps: Vec<f64>,
    /// Engine counters over the loops: queries answered, batched runs,
    /// and queries those runs answered.
    pub answered: u64,
    /// See [`Closed::answered`].
    pub batched_runs: u64,
    /// See [`Closed::answered`].
    pub coalesced: u64,
    /// Queries the coalesced batches answered, and the distinct
    /// sources among them: the engine runs one kernel column per
    /// distinct source, so their ratio is the traversal work per
    /// answered query that the source skew leaves.
    pub batch_queries: u64,
    /// See [`Closed::batch_queries`].
    pub distinct: u64,
}

/// One client thread keeps [`crate::inputs::WINDOW`] queries
/// outstanding for `budget`, waiting on the oldest and replacing it,
/// and adds what it saw to `acc`. Queries answered after the window
/// closes are drained and checked but give no throughput sample.
pub fn closed_loop(
    s: &Setup,
    refs: &[Reference],
    zipf: &Zipf,
    rng: &mut Xoshiro256StarStar,
    budget: Duration,
    tally: &mut Tally,
    acc: &mut Closed,
) {
    let before = s.engine.stats();
    let mut outstanding = VecDeque::new();
    // A shed submit is a failed operation; a passing one is counted
    // once, when its response is checked.
    let submit = |rng: &mut Xoshiro256StarStar, out: &mut VecDeque<_>, tally: &mut Tally| {
        let rank = zipf.draw(rng);
        match s.engine.submit(query(s, rank)) {
            Ok(h) => out.push_back((rank, h)),
            Err(e) => drop(tally.record::<()>("closed-loop submit", Err(e.to_string()))),
        }
    };
    let mut stamps = Vec::new();
    let mut ranks = Vec::new();
    let t0 = Instant::now();
    for _ in 0..crate::inputs::WINDOW {
        submit(rng, &mut outstanding, tally);
    }
    while let Some((rank, h)) = outstanding.pop_front() {
        ranks.push((h.id(), rank));
        let resp = h.wait();
        let in_window = t0.elapsed() < budget;
        if tally.record("closed-loop query", check(s, resp, &refs[rank])).is_some() && in_window {
            stamps.push(t0.elapsed().as_secs_f64());
        }
        if in_window {
            submit(rng, &mut outstanding, tally);
        }
    }
    let after = s.engine.stats();
    let starts: Vec<f64> = stamps.iter().step_by(BLOCK).copied().collect();
    let before_blocks = acc.block_qps.len();
    acc.block_qps.extend(starts.windows(2).skip(1).map(|w| BLOCK as f64 / (w[1] - w[0])));
    if acc.block_qps.len() == before_blocks {
        // A window too short for a whole block past the ramp (toy
        // sizes) gives its overall rate instead.
        acc.block_qps.push(stamps.len() as f64 / budget.as_secs_f64());
    }
    acc.answered += after.completed - before.completed;
    acc.batched_runs += after.batched_runs - before.batched_runs;
    acc.coalesced += after.queries_coalesced - before.queries_coalesced;
    for batch in coalesced_batches(&s.engine.telemetry().spans(), &ranks) {
        acc.batch_queries += batch.len() as u64;
        acc.distinct += batch.into_iter().collect::<BTreeSet<_>>().len() as u64;
    }
}

/// The candidate ranks of every coalesced batch that `ranks`'
/// queries (query id, rank) ran in, leader first, read from the
/// engine's span log: each member's `COALESCED` span names its leader.
fn coalesced_batches(spans: &SpanDump, ranks: &[(u64, usize)]) -> Vec<Vec<usize>> {
    let rank: HashMap<u64, usize> = ranks.iter().copied().collect();
    let mut batches: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for e in spans.events.iter().filter(|e| e.stage == stage::COALESCED) {
        if let (Some(&member), Some(&leader)) = (rank.get(&e.id), rank.get(&e.info)) {
            batches.entry(e.info).or_insert_with(|| vec![leader]).push(member);
        }
    }
    batches.into_values().collect()
}

/// Open-loop result, one entry per passing query.
#[derive(Default)]
pub struct Open {
    /// Milliseconds from each query's due time to its response.
    pub latency_ms: Vec<f64>,
    /// Milliseconds the generator submitted late.
    pub lag_ms: Vec<f64>,
    /// Engine-reported admission-queue wait.
    pub wait_ms: Vec<f64>,
    /// Engine-reported run time (total minus wait).
    pub run_ms: Vec<f64>,
}

/// Submit `count` queries at seeded Poisson arrivals of
/// [`crate::inputs::OPEN_RATE`] per second, whatever the engine's progress. A collector thread waits on
/// the responses in order and checks them; each query is timed from
/// its due time: the generator's lag plus the engine's
/// submit-to-response time.
pub fn open_loop(
    s: &Setup,
    refs: &[Reference],
    zipf: &Zipf,
    rng: &mut Xoshiro256StarStar,
    count: usize,
    tally: &mut Tally,
) -> Open {
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, f64, Result<QueryHandle, SubmitError>)>();
        let collector = scope.spawn(move || {
            let mut out = Open::default();
            let mut tally = Tally::default();
            for (rank, lag_ms, handle) in rx {
                let resp =
                    handle.map_err(|e| e.to_string()).and_then(|h| check(s, h.wait(), &refs[rank]));
                if let Some(r) = tally.record("open-loop query", resp) {
                    let (wait, run) = split_ms(&r);
                    out.latency_ms.push(lag_ms + r.total_ns as f64 / 1e6);
                    out.lag_ms.push(lag_ms);
                    out.wait_ms.push(wait);
                    out.run_ms.push(run);
                }
            }
            (out, tally)
        });
        let t0 = Instant::now();
        let mut due = 0.0f64;
        for _ in 0..count {
            due += -(1.0 - rng.next_f64()).ln() / crate::inputs::OPEN_RATE;
            let now = t0.elapsed().as_secs_f64();
            if due > now {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            let lag_ms = (t0.elapsed().as_secs_f64() - due).max(0.0) * 1e3;
            let rank = zipf.draw(rng);
            let sent = tx.send((rank, lag_ms, s.engine.submit(query(s, rank))));
            sent.expect("open-loop collector hung up");
        }
        drop(tx);
        let (out, collected) = collector.join().expect("open-loop collector panicked");
        tally.merge(collected);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(128, 1.0);
        let mut rng = Xoshiro256StarStar::new(3);
        let mut hits = [0u32; 128];
        for _ in 0..20_000 {
            hits[z.draw(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[100]);
    }
}
