//! The lazy multi-α sweep against the eager merge walk it replaced.
//!
//! [`LinkQueues::weighted_edges_multi_with`] no longer stores a links ×
//! candidates weight matrix: it computes the per-candidate bounds in one
//! bound-only walk and builds a weight column only when
//! [`MultiAlphaEdges::column`] is first called. The α-search prunes and
//! compares on these numbers, so both must keep their exact bits. The oracle
//! here is the eager algorithm, spelled out: one [`LinkQueueRef::g_multi`]
//! row per link over the (bonus-shifted) candidates, and per candidate the
//! dense row/column maxima summed with `Iterator::sum`.
//!
//! The candidate lists include α = 0, αs past every link's last class, and
//! a non-zero per-link bonus (the `LocalFabric` persistence bonus).

use octopus_core::{LinkQueues, MultiAlphaEdges};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The eager sweep: per-link `g` rows (link-major) and per-candidate bounds.
fn eager(
    queues: &LinkQueues,
    alphas: &[u64],
    bonus: &dyn Fn((u32, u32)) -> u64,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = queues.n() as usize;
    let rows: Vec<Vec<f64>> = queues
        .links()
        .map(|(i, j)| {
            let q = queues.queue(i, j).expect("live link");
            let shifted: Vec<u64> = alphas.iter().map(|&a| a + bonus((i, j))).collect();
            let mut row = vec![0.0; alphas.len()];
            q.g_multi(&shifted, &mut row);
            row
        })
        .collect();
    let links: Vec<(u32, u32)> = queues.links().collect();
    let ubs = (0..alphas.len())
        .map(|k| {
            let mut row_max = vec![0.0f64; n];
            let mut col_max = vec![0.0f64; n];
            for (e, &(i, j)) in links.iter().enumerate() {
                let g = rows[e][k];
                if g > row_max[i as usize] {
                    row_max[i as usize] = g;
                }
                if g > col_max[j as usize] {
                    col_max[j as usize] = g;
                }
            }
            let rs: f64 = row_max.iter().sum();
            let cs: f64 = col_max.iter().sum();
            rs.min(cs)
        })
        .collect();
    (rows, ubs)
}

/// Random snapshot: up to 24 `(link, weight, count)` triples on an
/// `n`-node fabric, weights drawn from the hop-weight classes `1/k` plus
/// zero (a link that may carry only zero-weight packets).
fn snapshot() -> impl Strategy<Value = LinkQueues> {
    (2u32..8).prop_flat_map(|n| {
        let triple = (0..n, 0..n, 0usize..5, 1u64..80);
        prop::collection::vec(triple, 0..24).prop_map(move |raw| {
            let weights = [0.0, 1.0, 0.5, 1.0 / 3.0, 0.25];
            LinkQueues::from_weighted_counts(
                n,
                raw.into_iter()
                    .filter(|&(i, j, _, _)| i != j)
                    .map(|(i, j, w, c)| ((i, j), weights[w], c)),
            )
        })
    })
}

/// Ascending candidates: the snapshot's own boundaries, α = 0, random αs
/// and αs past every class (the largest boundary plus up to 50).
fn candidates(queues: &LinkQueues, extra: &[u64], past: u64) -> Vec<u64> {
    let own = queues.alpha_candidates(u64::MAX);
    let last = own.last().copied().unwrap_or(0);
    let mut alphas: Vec<u64> = own.into_iter().chain(extra.iter().copied()).collect();
    alphas.extend([0, last + 1, last + past]);
    alphas.sort_unstable();
    alphas.dedup();
    alphas
}

fn check(
    sweep: &MultiAlphaEdges,
    queues: &LinkQueues,
    alphas: &[u64],
    bonus: &dyn Fn((u32, u32)) -> u64,
    order: &[usize],
) -> Result<(), TestCaseError> {
    let (rows, ubs) = eager(queues, alphas, bonus);
    prop_assert_eq!(sweep.alphas(), alphas);
    prop_assert_eq!(sweep.edges().to_vec(), queues.links().collect::<Vec<_>>());
    prop_assert_eq!(
        sweep.built_columns(),
        0,
        "the sweep itself builds no column"
    );
    for (k, ub) in ubs.iter().enumerate() {
        prop_assert_eq!(
            sweep.upper_bound(k).to_bits(),
            ub.to_bits(),
            "bound differs at alpha {}",
            alphas[k]
        );
    }
    // Columns in a shuffled order: each is built on first read only.
    let mut read = std::collections::BTreeSet::new();
    for &k in order {
        let k = k % alphas.len();
        read.insert(k);
        let col = sweep.column(k);
        prop_assert_eq!(col.len(), rows.len());
        for (e, row) in rows.iter().enumerate() {
            prop_assert_eq!(
                col[e].to_bits(),
                row[k].to_bits(),
                "edge {} differs at alpha {}",
                e,
                alphas[k]
            );
        }
        prop_assert_eq!(sweep.built_columns(), read.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lazy_columns_and_bounds_match_the_eager_merge_walk(
        queues in snapshot(),
        extra in prop::collection::vec(1u64..400, 0..6),
        past in 2u64..50,
        order in prop::collection::vec(0usize..1000, 1..12),
    ) {
        let alphas = candidates(&queues, &extra, past);
        let sweep = queues.weighted_edges_multi(&alphas);
        check(&sweep, &queues, &alphas, &|_| 0, &order)?;
    }

    #[test]
    fn lazy_columns_with_a_per_link_bonus_match_the_eager_merge_walk(
        queues in snapshot(),
        extra in prop::collection::vec(1u64..400, 0..6),
        past in 2u64..50,
        order in prop::collection::vec(0usize..1000, 1..12),
        delta in 1u64..40,
        parity in 0u32..2,
    ) {
        // Every other source node's links persist and get the Δ bonus.
        let alphas = candidates(&queues, &extra, past);
        let bonus = |(i, _): (u32, u32)| if i % 2 == parity { delta } else { 0 };
        let sweep = queues.weighted_edges_multi_with(&alphas, bonus);
        check(&sweep, &queues, &alphas, &bonus, &order)?;
        // A clone carries its built columns and builds the rest itself.
        let copy = sweep.clone();
        prop_assert_eq!(copy.built_columns(), sweep.built_columns());
        check_clone(&copy, &sweep)?;
    }
}

fn check_clone(copy: &MultiAlphaEdges, orig: &MultiAlphaEdges) -> Result<(), TestCaseError> {
    for k in 0..orig.alphas().len() {
        let a: Vec<u64> = copy.column(k).iter().map(|w| w.to_bits()).collect();
        let b: Vec<u64> = orig.column(k).iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(a, b);
    }
    Ok(())
}
