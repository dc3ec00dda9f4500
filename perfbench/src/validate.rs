//! Independent validation of every BFS output the benchmark times.
//!
//! The reference is a plain FIFO-queue BFS written here, apart from
//! `obfs-core::serial`, and each reference is itself checked against
//! the Graph500 properties before any timed output is compared to it.
//! An output that equals a property-checked reference exactly has the
//! properties too; equality is checked by a 64-bit fingerprint.

use obfs_graph::{CsrGraph, VertexId};
use std::collections::VecDeque;

/// Level of a vertex the search did not reach.
pub const UNREACHED: u32 = u32::MAX;

/// Plain queue BFS from `src`: `levels[v]` is the hop distance, or
/// [`UNREACHED`].
pub fn queue_bfs(g: &CsrGraph, src: VertexId) -> Vec<u32> {
    let mut levels = vec![UNREACHED; g.num_vertices()];
    let mut queue = VecDeque::new();
    levels[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let next = levels[u as usize] + 1;
        for &v in g.neighbors(u) {
            if levels[v as usize] == UNREACHED {
                levels[v as usize] = next;
                queue.push_back(v);
            }
        }
    }
    levels
}

/// The Graph500 search properties of `levels` as a BFS from `src` over
/// `g`, whose in-edges are `inv` (`g.transpose()`):
/// 1. the source is at level 0 and is the only vertex there;
/// 2. every edge `u → v` with `u` reached spans at most one level
///    (`levels[v] ≤ levels[u] + 1`), so no unreached vertex has a
///    reached in-neighbour;
/// 3. every reached non-source vertex has an in-neighbour one level up.
pub fn check_graph500(
    g: &CsrGraph,
    inv: &CsrGraph,
    src: VertexId,
    levels: &[u32],
) -> Result<(), String> {
    let n = g.num_vertices();
    if levels.len() != n {
        return Err(format!("levels has {} entries for {n} vertices", levels.len()));
    }
    if levels[src as usize] != 0 {
        return Err(format!("source {src} at level {}", levels[src as usize]));
    }
    for u in 0..n as VertexId {
        let lu = levels[u as usize];
        if lu == UNREACHED {
            continue;
        }
        if lu == 0 && u != src {
            return Err(format!("vertex {u} at level 0 is not the source"));
        }
        for &v in g.neighbors(u) {
            let lv = levels[v as usize];
            if lv == UNREACHED {
                return Err(format!("unreached {v} has reached in-neighbour {u}"));
            }
            if lv > lu + 1 {
                return Err(format!("edge {u}→{v} spans levels {lu}→{lv}"));
            }
        }
        if u != src && !inv.neighbors(u).iter().any(|&p| levels[p as usize] == lu - 1) {
            return Err(format!("vertex {u} at level {lu} has no in-neighbour one level up"));
        }
    }
    Ok(())
}

/// A 64-bit fingerprint of a levels array: a reference keeps this
/// instead of its levels, so the references do not swell the run's
/// peak memory.
pub fn fingerprint(levels: &[u32]) -> u64 {
    levels.iter().fold(levels.len() as u64, |h, &l| {
        (h ^ u64::from(l)).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
    })
}

/// `levels` must equal `reference` exactly.
pub fn check_levels(reference: &[u32], levels: &[u32]) -> Result<(), String> {
    if reference.len() != levels.len() {
        return Err(format!("{} levels for {} vertices", levels.len(), reference.len()));
    }
    match reference.iter().zip(levels).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(v) => {
            Err(format!("vertex {v}: level {} where the reference has {}", levels[v], reference[v]))
        }
    }
}

/// Each reached non-source vertex's parent must be an in-neighbour one
/// level up; the source is its own parent.
pub fn check_parents(
    inv: &CsrGraph,
    src: VertexId,
    levels: &[u32],
    parents: &[VertexId],
) -> Result<(), String> {
    if parents.len() != levels.len() {
        return Err(format!("{} parents for {} vertices", parents.len(), levels.len()));
    }
    if parents[src as usize] != src {
        return Err(format!("source {src} has parent {}", parents[src as usize]));
    }
    for (v, (&l, &p)) in levels.iter().zip(parents).enumerate() {
        if l == UNREACHED || v == src as usize {
            continue;
        }
        if (p as usize) >= levels.len() || levels[p as usize] != l - 1 {
            return Err(format!("vertex {v} at level {l} has parent {p} not one level up"));
        }
        if !inv.neighbors(v as VertexId).contains(&p) {
            return Err(format!("parent {p} of {v} is not an in-neighbour"));
        }
    }
    Ok(())
}

/// Input edges of the traversed component (the Graph500 TEPS
/// numerator): the out-degrees of every reached vertex, summed.
pub fn component_edges(g: &CsrGraph, levels: &[u32]) -> u64 {
    levels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l != UNREACHED)
        .map(|(v, _)| g.degree(v as VertexId) as u64)
        .sum()
}

/// A property-checked reference search.
pub struct Reference {
    /// The source searched from.
    pub src: VertexId,
    /// [`fingerprint`] of its levels.
    pub fingerprint: u64,
    /// [`component_edges`] of the search.
    pub edges: u64,
    /// Vertices the search reached.
    pub reached: usize,
}

impl Reference {
    /// Search `g` from `src` and check the result's Graph500
    /// properties; an `Err` means the benchmark's own BFS is wrong.
    pub fn new(g: &CsrGraph, inv: &CsrGraph, src: VertexId) -> Result<Self, String> {
        let levels = queue_bfs(g, src);
        check_graph500(g, inv, src, &levels)?;
        let edges = component_edges(g, &levels);
        let reached = levels.iter().filter(|&&l| l != UNREACHED).count();
        Ok(Self { src, fingerprint: fingerprint(&levels), edges, reached })
    }

    /// `levels` must be this search's levels. On a mismatch the
    /// reference is searched again to name the first wrong vertex.
    pub fn check(&self, g: &CsrGraph, levels: &[u32]) -> Result<(), String> {
        if levels.len() == g.num_vertices() && fingerprint(levels) == self.fingerprint {
            return Ok(());
        }
        check_levels(&queue_bfs(g, self.src), levels)
            .and(Err("levels differ from the reference".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_graph::gen::grid2d;

    fn grid() -> (CsrGraph, CsrGraph) {
        let g = grid2d(6, 7);
        let inv = g.transpose();
        (g, inv)
    }

    #[test]
    fn reference_passes_its_own_checks() {
        let (g, inv) = grid();
        let r = Reference::new(&g, &inv, 9).unwrap();
        assert_eq!((r.edges, r.reached), (g.num_edges(), g.num_vertices()));
        assert!(r.check(&g, &queue_bfs(&g, 9)).is_ok());
    }

    #[test]
    fn a_bumped_level_is_rejected() {
        let (g, inv) = grid();
        let r = Reference::new(&g, &inv, 0).unwrap();
        let levels = queue_bfs(&g, 0);
        let v = levels.iter().position(|&l| l == 3).unwrap();
        let mut bad = levels.clone();
        bad[v] += 1;
        assert!(r.check(&g, &bad).is_err());
        assert!(check_levels(&levels, &bad).is_err());
        assert!(check_graph500(&g, &inv, 0, &bad).is_err());
    }

    #[test]
    fn a_dropped_vertex_is_rejected() {
        let (g, inv) = grid();
        let r = Reference::new(&g, &inv, 0).unwrap();
        let mut bad = queue_bfs(&g, 0);
        bad[20] = UNREACHED;
        assert!(r.check(&g, &bad).is_err());
        assert!(check_graph500(&g, &inv, 0, &bad).is_err());
    }

    #[test]
    fn parents_must_be_in_neighbours_one_level_up() {
        let (g, inv) = grid();
        let levels = queue_bfs(&g, 0);
        let mut parents: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .map(|v| {
                if v == 0 {
                    0
                } else {
                    *inv.neighbors(v)
                        .iter()
                        .find(|&&p| levels[p as usize] + 1 == levels[v as usize])
                        .unwrap()
                }
            })
            .collect();
        assert!(check_parents(&inv, 0, &levels, &parents).is_ok());
        parents[8] = 0; // level 0, but vertex 8 is not adjacent to 0
        assert!(check_parents(&inv, 0, &levels, &parents).is_err());
    }
}
