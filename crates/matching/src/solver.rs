//! Reusable workspace for the exact assignment kernel.
//!
//! [`crate::maximum_weight_matching`] is correct but allocation-heavy when
//! called in a loop: every call re-sorts the edge tuples, rebuilds the
//! adjacency arrays and allocates ~10 scratch vectors before the first
//! Dijkstra phase runs. The Octopus α-search calls the kernel once per
//! candidate duration α, and all candidates of one greedy iteration share
//! the *same* edge topology — only the `g(i, j, α)` weight column differs.
//!
//! [`AssignmentSolver`] splits the kernel accordingly:
//!
//! * [`AssignmentSolver::load_topology`] ingests the shared edge list once,
//!   building a CSR adjacency in buffers that persist across solves;
//! * [`AssignmentSolver::solve_reweighted`] overwrites the weight column in
//!   place and re-runs the solve — zero heap allocation once the buffers
//!   have warmed up;
//! * [`AssignmentSolver::solve`] is the compatibility path: load topology
//!   and weights from a [`WeightedBipartiteGraph`] and solve, still reusing
//!   every buffer.
//!
//! Edges with non-positive weight are *skipped at solve time* rather than
//! filtered at construction, so one fixed topology serves weight columns
//! with different `g > 0` support. The skip reproduces exactly the edge set
//! [`WeightedBipartiteGraph`] would have kept, so results are bit-identical
//! to the one-shot kernel.
//!
//! ## Why every solve starts from canonical duals (no cross-α warm start)
//!
//! The tempting optimization — keep the previous α's dual potentials, repair
//! feasibility, and re-run phases only for vertices whose matched edge went
//! slack — is **unsound** under the determinism contract of this codebase.
//! The matching this algorithm returns is only unique up to ties, and which
//! optimal matching it lands on depends on the Dijkstra pop order, which
//! compares *reduced* distances `d_true + φ(s) − φ(v)`: different starting
//! potentials select different equal-weight optima. (Concretely: on the 2×2
//! complete graph with all weights equal, a cold solve matches the diagonal,
//! while a solver warm-started from weights favoring the anti-diagonal keeps
//! the anti-diagonal — same value, different matching.) Octopus weights are
//! rational hop weights with massive tie classes, so this is the common
//! case, not a corner. A history-dependent `eval(α)` would break the
//! guarantee that pruned-sequential, plain-sequential and threaded α-searches
//! return bit-identical schedules. Every solve therefore re-initializes
//! `φ_l(u) = max(0, max_v w(u, v))`, `φ_r = 0` — an `O(V)` fill, not an
//! allocation — making the result a pure function of `(topology, weights)`.
//!
//! ## What a solve's duals may be used for
//!
//! A finished solve's right-side prices ([`AssignmentSolver::right_duals`])
//! may **bound** another column of the same topology: for any `z ≥ 0`,
//! re-deriving `y_u = max_v (w(u, v) − z_v)⁺` from that column's weights
//! makes `(y, z)` dual-feasible, so `Σ_u y_u + Σ_v z_v` is at least every
//! matching weight of the column (weak duality). The α-search uses exactly
//! this to skip candidates whose bound falls below the incumbent — which
//! changes how many solves run, never what any solve returns. The duals
//! must **never seed a solve**: that is the warm start the section above
//! rules out.

use crate::WeightedBipartiteGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total order wrapper so `f64` distances can live in a [`BinaryHeap`].
#[derive(Debug, PartialEq)]
pub(crate) struct OrdF64(pub f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

const UNMATCHED: u32 = u32::MAX;

/// A reusable exact maximum-weight bipartite matching solver.
///
/// Owns the CSR topology, Johnson potentials, timestamped Dijkstra scratch
/// and the output buffer; see the module docs for the reuse contract.
///
/// ```
/// use octopus_matching::AssignmentSolver;
/// let mut solver = AssignmentSolver::new();
/// solver.load_topology(2, 2, &[(0, 0), (0, 1), (1, 1)]);
/// // 6.0 alone loses to 5.0 + 4.0.
/// assert_eq!(solver.solve_reweighted(&[5.0, 6.0, 4.0]), &[(0, 0), (1, 1)]);
/// // Same topology, new weight column: no rebuild, no allocation.
/// assert_eq!(solver.solve_reweighted(&[1.0, 10.0, 2.0]), &[(0, 1)]);
/// assert_eq!(solver.last_weight(), 10.0);
/// ```
#[derive(Debug, Default)]
pub struct AssignmentSolver {
    nl: usize,
    nr: usize,
    /// CSR row offsets, length `nl + 1`.
    start: Vec<u32>,
    /// CSR right endpoints, ascending within each row.
    ev: Vec<u32>,
    /// CSR weights, parallel to `ev`; overwritten by each reweight.
    ew: Vec<f64>,
    // Matching state (extended right ids: `0..nr` real, `nr + u` = dummy of u).
    match_l: Vec<u32>,
    match_r: Vec<u32>,
    pot_l: Vec<f64>,
    pot_r: Vec<f64>,
    // Timestamped scratch (avoids O(V) clears per phase).
    dist_l: Vec<f64>,
    dist_r: Vec<f64>,
    pred_r: Vec<u32>,
    stamp_l: Vec<u32>,
    stamp_r: Vec<u32>,
    done_r: Vec<bool>,
    phase: u32,
    heap: BinaryHeap<Reverse<(OrdF64, u32)>>,
    touched_l: Vec<u32>,
    touched_r: Vec<u32>,
    out: Vec<(u32, u32)>,
    last_weight: f64,
}

impl AssignmentSolver {
    /// Creates an empty workspace; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a fixed edge topology for subsequent
    /// [`AssignmentSolver::solve_reweighted`] calls.
    ///
    /// `edges` must be sorted by `(u, v)` with no duplicate pairs (the order
    /// [`WeightedBipartiteGraph::edges`] and the scheduler's link snapshots
    /// already produce). Weights are supplied per solve, in this exact edge
    /// order.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range; debug-asserts sortedness.
    pub fn load_topology(&mut self, n_left: u32, n_right: u32, edges: &[(u32, u32)]) {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be (u, v)-sorted and unique"
        );
        self.nl = n_left as usize;
        self.nr = n_right as usize;
        self.start.clear();
        self.start.resize(self.nl + 1, 0);
        for &(u, v) in edges {
            assert!(u < n_left, "left endpoint {u} out of range");
            assert!(v < n_right, "right endpoint {v} out of range");
            self.start[u as usize + 1] += 1;
        }
        for i in 0..self.nl {
            self.start[i + 1] += self.start[i];
        }
        self.ev.clear();
        self.ev.extend(edges.iter().map(|&(_, v)| v));
        self.ew.clear();
        self.ew.resize(edges.len(), 0.0);
    }

    /// Number of edges in the loaded topology.
    pub fn num_edges(&self) -> usize {
        self.ev.len()
    }

    /// Solves with a fresh weight column over the loaded topology.
    ///
    /// `weights[i]` is the weight of the `i`-th edge passed to
    /// [`AssignmentSolver::load_topology`]; entries `<= 0.0` disable their
    /// edge for this solve (mirroring [`WeightedBipartiteGraph`]'s dropping
    /// of non-positive edges). Returns the matched `(left, right)` pairs
    /// sorted by left index — bit-identical to
    /// [`crate::maximum_weight_matching`] on the equivalent graph; the
    /// result is a pure function of `(topology, weights)`, independent of
    /// any previous solve (see the module docs on warm starts).
    ///
    /// # Panics
    /// Panics if `weights.len()` differs from the loaded edge count or a
    /// weight is NaN.
    pub fn solve_reweighted(&mut self, weights: &[f64]) -> &[(u32, u32)] {
        assert_eq!(
            weights.len(),
            self.ev.len(),
            "one weight per loaded edge required"
        );
        debug_assert!(
            weights.iter().all(|w| !w.is_nan()),
            "weights must not be NaN"
        );
        self.ew.copy_from_slice(weights);
        self.run()
    }

    /// Compatibility path: loads topology and weights from `g` (reusing all
    /// buffers) and solves. Bit-identical to
    /// [`crate::maximum_weight_matching`], which is now a thin wrapper over
    /// a fresh workspace.
    pub fn solve(&mut self, g: &WeightedBipartiteGraph) -> &[(u32, u32)] {
        self.nl = g.n_left() as usize;
        self.nr = g.n_right() as usize;
        let edges = g.edges();
        self.start.clear();
        self.start.resize(self.nl + 1, 0);
        for e in edges {
            self.start[e.u as usize + 1] += 1;
        }
        for i in 0..self.nl {
            self.start[i + 1] += self.start[i];
        }
        self.ev.clear();
        self.ev.extend(edges.iter().map(|e| e.v));
        self.ew.clear();
        self.ew.extend(edges.iter().map(|e| e.weight));
        self.run()
    }

    /// The matching of the most recent solve (sorted by left index).
    pub fn matching(&self) -> &[(u32, u32)] {
        &self.out
    }

    /// Moves the most recent solve's matching out of the workspace (the
    /// output buffer is left empty and regrows on the next solve).
    pub fn take_matching(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.out)
    }

    /// Total weight of the most recent solve's matching, summed in matching
    /// order (bit-identical to [`crate::matching_weight`] on the same
    /// matching).
    pub fn last_weight(&self) -> f64 {
        self.last_weight
    }

    /// Fills `out` with the most recent solve's right-side dual prices
    /// `z_v = max(0, −pot_r[v])` (one entry per real right node; dummy
    /// extensions are dropped). Empty before the first solve.
    ///
    /// The duals satisfy `w(u, v) ≤ pot_l[u] + z_v` on every edge, so for
    /// **any** `z ≥ 0` — these, or arbitrarily stale ones — the re-derived
    /// bound `Σ_u max_v (w(u,v) − z_v)⁺ + Σ_v z_v` upper-bounds every
    /// matching weight of any weight column (weak duality, re-proved from
    /// scratch each use). That is their only sanctioned use: the module
    /// docs explain why they must never seed a subsequent solve.
    pub fn right_duals(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.pot_r[..self.nr.min(self.pot_r.len())]
                .iter()
                .map(|&p| (-p).max(0.0)),
        );
    }

    /// Resets per-solve state without touching the topology; O(V) fills over
    /// retained buffers, no allocation after warm-up.
    fn reset_state(&mut self) {
        let nr_ext = self.nr + self.nl;
        self.match_l.clear();
        self.match_l.resize(self.nl, UNMATCHED);
        self.match_r.clear();
        self.match_r.resize(nr_ext, UNMATCHED);
        // Canonical potentials: row maxima left, zero right (see module docs
        // for why these must not be warm-started across weight changes).
        self.pot_l.clear();
        self.pot_l.reserve(self.nl);
        for u in 0..self.nl {
            let row = &self.ew[self.start[u] as usize..self.start[u + 1] as usize];
            self.pot_l.push(row.iter().copied().fold(0.0, f64::max));
        }
        self.pot_r.clear();
        self.pot_r.resize(nr_ext, 0.0);
        self.dist_l.clear();
        self.dist_l.resize(self.nl, f64::INFINITY);
        self.dist_r.clear();
        self.dist_r.resize(nr_ext, f64::INFINITY);
        self.pred_r.clear();
        self.pred_r.resize(nr_ext, u32::MAX);
        self.stamp_l.clear();
        self.stamp_l.resize(self.nl, 0);
        self.stamp_r.clear();
        self.stamp_r.resize(nr_ext, 0);
        self.done_r.clear();
        self.done_r.resize(nr_ext, false);
        self.phase = 0;
        self.heap.clear();
    }

    /// The successive-shortest-path assignment solve over the loaded CSR.
    ///
    /// Identical, operation for operation, to the historical one-shot
    /// kernel: left vertices are inserted in index order; each insertion
    /// runs one Dijkstra over alternating paths in reduced costs (non-
    /// positive-weight edges skipped) and augments to the cheapest free
    /// extended-right vertex; Johnson potentials keep reduced costs
    /// non-negative.
    fn run(&mut self) -> &[(u32, u32)] {
        self.reset_state();
        let nl = self.nl;
        let nr = self.nr;

        for s in 0..nl as u32 {
            // A vertex with no positive edge stays unmatched (its potential
            // is exactly 0.0 iff every incident weight is <= 0).
            if self.pot_l[s as usize] <= 0.0 {
                continue;
            }
            self.phase += 1;
            let phase = self.phase;
            self.heap.clear();
            self.touched_l.clear();
            self.touched_r.clear();

            // Seed with s at distance 0.
            self.dist_l[s as usize] = 0.0;
            self.stamp_l[s as usize] = phase;
            self.touched_l.push(s);
            self.relax_left(s, 0.0, phase);

            // Dijkstra until a free (extended) right vertex is finalized.
            let mut target: Option<(u32, f64)> = None;
            while let Some(Reverse((OrdF64(d), v))) = self.heap.pop() {
                let vi = v as usize;
                if self.stamp_r[vi] != phase || self.done_r[vi] || d > self.dist_r[vi] {
                    continue; // stale entry
                }
                self.done_r[vi] = true;
                let u = self.match_r[vi];
                if u == UNMATCHED {
                    target = Some((v, d));
                    break;
                }
                // Traverse the matched edge backwards at reduced cost 0.
                let ui = u as usize;
                if self.stamp_l[ui] != phase || d < self.dist_l[ui] {
                    self.stamp_l[ui] = phase;
                    self.dist_l[ui] = d;
                    self.touched_l.push(u);
                    self.relax_left(u, d, phase);
                }
            }

            // The dummy sink guarantees an augmenting path for every seeded
            // vertex; if the heap nonetheless drained without finalizing a
            // free right vertex, leave `s` unmatched rather than abort the
            // whole solve.
            let Some((t, big_d)) = target else {
                for &v in &self.touched_r {
                    self.done_r[v as usize] = false;
                }
                continue;
            };

            // Johnson potential update: every finalized vertex x with
            // d(x) <= D gets pot[x] -= (D - d(x)); this keeps reduced costs
            // >= 0 and makes the augmenting path tight.
            for &u in &self.touched_l {
                let ui = u as usize;
                if self.dist_l[ui] <= big_d {
                    self.pot_l[ui] -= big_d - self.dist_l[ui];
                }
            }
            for &v in &self.touched_r {
                let vi = v as usize;
                if self.done_r[vi] && self.dist_r[vi] <= big_d {
                    self.pot_r[vi] -= big_d - self.dist_r[vi];
                }
            }
            // Reset done flags for touched right vertices (stamps handle
            // dist).
            for &v in &self.touched_r {
                self.done_r[v as usize] = false;
            }

            // Augment: walk predecessor pointers from the target back to s.
            let mut v_cur = t;
            loop {
                let u = self.pred_r[v_cur as usize];
                let prev_v = self.match_l[u as usize];
                self.match_l[u as usize] = v_cur;
                self.match_r[v_cur as usize] = u;
                if prev_v == UNMATCHED {
                    break;
                }
                v_cur = prev_v;
            }
        }

        self.out.clear();
        self.last_weight = 0.0;
        for u in 0..nl {
            let v = self.match_l[u];
            if v != UNMATCHED && (v as usize) < nr {
                self.out.push((u as u32, v));
                // Row scan for the matched edge's weight (rows are short and
                // v-sorted); summed in output order for bit-parity with
                // `matching_weight`.
                let (lo, hi) = (self.start[u] as usize, self.start[u + 1] as usize);
                let idx = lo + self.ev[lo..hi].partition_point(|&x| x < v);
                self.last_weight += self.ew[idx];
            }
        }
        // match_l is filled in left order, so `out` is already sorted.
        &self.out
    }

    /// Relaxes all positive-weight edges of left vertex `u` (plus its dummy
    /// sink), given its finalized distance `d_u`.
    fn relax_left(&mut self, u: u32, d_u: f64, phase: u32) {
        let ui = u as usize;
        let (lo, hi) = (self.start[ui] as usize, self.start[ui + 1] as usize);
        for idx in lo..hi {
            let w = self.ew[idx];
            if w <= 0.0 {
                continue; // disabled for this weight column
            }
            let v = self.ev[idx] as usize;
            let rc = -w + self.pot_l[ui] - self.pot_r[v];
            self.relax(u, v, rc, d_u, phase);
        }
        // Dummy sink of u: cost 0 edge.
        let dv = self.nr + ui;
        let rc = self.pot_l[ui] - self.pot_r[dv];
        self.relax(u, dv, rc, d_u, phase);
    }

    #[inline]
    fn relax(&mut self, u: u32, v: usize, rc: f64, d_u: f64, phase: u32) {
        debug_assert!(rc >= -1e-9, "reduced cost must stay non-negative: {rc}");
        let nd = d_u + rc.max(0.0);
        if self.stamp_r[v] != phase {
            self.stamp_r[v] = phase;
            self.done_r[v] = false;
            self.dist_r[v] = f64::INFINITY;
            self.touched_r.push(v as u32);
        }
        if !self.done_r[v] && nd < self.dist_r[v] {
            self.dist_r[v] = nd;
            self.pred_r[v] = u;
            self.heap.push(Reverse((OrdF64(nd), v as u32)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute, matching_weight, maximum_weight_matching};

    #[test]
    fn reweighted_matches_cold_solve_on_fixed_topology() {
        let edges = vec![(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)];
        let mut solver = AssignmentSolver::new();
        solver.load_topology(3, 3, &edges);
        let columns: Vec<Vec<f64>> = vec![
            vec![7.0, 8.0, 9.0, 2.0, 3.0, 4.0],
            vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            vec![0.0, 5.0, -1.0, 2.0, 0.0, 8.0],
            vec![7.0, 8.0, 9.0, 2.0, 3.0, 4.0], // revisit an earlier column
        ];
        for col in &columns {
            let warm = solver.solve_reweighted(col).to_vec();
            let tuples: Vec<(u32, u32, f64)> = edges
                .iter()
                .zip(col)
                .map(|(&(u, v), &w)| (u, v, w))
                .collect();
            let g = WeightedBipartiteGraph::from_tuples(3, 3, tuples);
            assert_eq!(warm, maximum_weight_matching(&g), "column {col:?}");
            assert!((solver.last_weight() - matching_weight(&g, &warm)).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_matches_one_shot_kernel() {
        let g = WeightedBipartiteGraph::from_tuples(
            4,
            2,
            [
                (0, 0, 3.0),
                (1, 0, 4.0),
                (2, 1, 1.0),
                (3, 1, 2.0),
                (0, 1, 5.0),
            ],
        );
        let mut solver = AssignmentSolver::new();
        assert_eq!(solver.solve(&g), maximum_weight_matching(&g).as_slice());
        assert!((solver.last_weight() - matching_weight(&g, solver.matching())).abs() < 1e-12);
        // Reuse across differently-shaped graphs.
        let g2 = WeightedBipartiteGraph::from_tuples(2, 2, [(0, 0, 5.0), (0, 1, 6.0), (1, 1, 4.0)]);
        assert_eq!(solver.solve(&g2), maximum_weight_matching(&g2).as_slice());
    }

    #[test]
    fn nonpositive_weights_disable_edges() {
        let mut solver = AssignmentSolver::new();
        solver.load_topology(2, 2, &[(0, 0), (0, 1), (1, 1)]);
        assert_eq!(
            solver.solve_reweighted(&[0.0, -3.0, 0.0]),
            &[] as &[(u32, u32)]
        );
        assert_eq!(solver.last_weight(), 0.0);
        assert_eq!(solver.solve_reweighted(&[0.0, 2.0, 0.0]), &[(0, 1)]);
    }

    #[test]
    fn empty_topology() {
        let mut solver = AssignmentSolver::new();
        solver.load_topology(3, 3, &[]);
        assert!(solver.solve_reweighted(&[]).is_empty());
    }

    #[test]
    fn randomized_reweight_agrees_with_brute_force() {
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut solver = AssignmentSolver::new();
        for trial in 0..200 {
            let nl = 1 + (next() % 5) as u32;
            let nr = 1 + (next() % 5) as u32;
            let mut edges: Vec<(u32, u32)> = (0..(next() % 12) as usize)
                .map(|_| (next() as u32 % nl, next() as u32 % nr))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            solver.load_topology(nl, nr, &edges);
            for _ in 0..4 {
                let col: Vec<f64> = edges
                    .iter()
                    .map(|_| ((next() % 100) as f64) - 20.0)
                    .collect();
                let got = solver.solve_reweighted(&col).to_vec();
                let tuples: Vec<(u32, u32, f64)> = edges
                    .iter()
                    .zip(&col)
                    .map(|(&(u, v), &w)| (u, v, w))
                    .collect();
                let g = WeightedBipartiteGraph::from_tuples(nl, nr, tuples);
                let want = brute::max_weight_matching_brute(&g);
                assert!(
                    (matching_weight(&g, &got) - want).abs() < 1e-6,
                    "trial {trial}: got weight {}, brute {want}",
                    matching_weight(&g, &got)
                );
                assert_eq!(got, maximum_weight_matching(&g), "trial {trial}");
            }
        }
    }
}
