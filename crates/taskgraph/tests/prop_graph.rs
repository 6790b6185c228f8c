//! Property-based tests for the task-graph engine: every execution
//! strategy computes the same values on randomly shaped DAGs, CSE never
//! changes results, and dead-node pruning never executes unreachable work.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use eda_taskgraph::graph::{NodeId, Payload, TaskGraph};
use eda_taskgraph::key::TaskKey;
use eda_taskgraph::morsel;
use eda_taskgraph::scheduler::{run_pool, run_single_thread};
use proptest::prelude::*;

fn int(v: i64) -> Payload {
    Arc::new(v)
}

fn get(p: &Payload) -> i64 {
    *p.downcast_ref::<i64>().expect("i64")
}

/// A random DAG spec: `ops[k] = (opcode, dep_a, dep_b)` where deps point
/// at earlier nodes (or sources when the graph is still small).
#[derive(Debug, Clone)]
struct DagSpec {
    sources: Vec<i64>,
    ops: Vec<(u8, usize, usize)>,
}

fn arb_dag() -> impl Strategy<Value = DagSpec> {
    (
        prop::collection::vec(-100i64..100, 1..6),
        prop::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 0..40),
    )
        .prop_map(|(sources, ops)| DagSpec { sources, ops })
}

/// Build the graph; returns all node ids in creation order.
fn build(spec: &DagSpec, dedup: bool) -> (TaskGraph, Vec<NodeId>) {
    let mut g = if dedup { TaskGraph::new() } else { TaskGraph::without_dedup() };
    let mut nodes: Vec<NodeId> = Vec::new();
    for (i, &v) in spec.sources.iter().enumerate() {
        nodes.push(g.source("src", TaskKey::leaf("src", i as u64), move || int(v)));
    }
    for &(code, a, b) in &spec.ops {
        let da = nodes[a % nodes.len()];
        let db = nodes[b % nodes.len()];
        let node = match code % 3 {
            0 => g.op("add", 0, vec![da, db], |d| int(get(&d[0]).wrapping_add(get(&d[1])))),
            1 => g.op("mul", 0, vec![da, db], |d| {
                int(get(&d[0]).wrapping_mul(get(&d[1])))
            }),
            _ => g.op("neg", 0, vec![da], |d| int(-get(&d[0]))),
        };
        nodes.push(node);
    }
    (g, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_schedulers_agree(spec in arb_dag(), workers in 1usize..5) {
        let (g, nodes) = build(&spec, true);
        let outputs = vec![*nodes.last().expect("non-empty"), nodes[0]];
        let single = run_single_thread(&g, &outputs);
        let pooled = run_pool(&g, &outputs, workers, Duration::ZERO);
        let single_out = single.outputs();
        let pooled_out = pooled.outputs();
        for (a, b) in single_out.iter().zip(&pooled_out) {
            prop_assert_eq!(get(a), get(b));
        }
        prop_assert_eq!(single.stats.tasks_run, pooled.stats.tasks_run);
    }

    #[test]
    fn dedup_never_changes_values(spec in arb_dag()) {
        let (g1, n1) = build(&spec, true);
        let (g2, n2) = build(&spec, false);
        let o1 = vec![*n1.last().expect("non-empty")];
        let o2 = vec![*n2.last().expect("non-empty")];
        let r1 = run_single_thread(&g1, &o1);
        let r2 = run_single_thread(&g2, &o2);
        prop_assert_eq!(get(&r1.outputs()[0]), get(&r2.outputs()[0]));
        // Dedup can only shrink the graph.
        prop_assert!(g1.len() <= g2.len());
    }

    #[test]
    fn pruning_skips_unreachable_tasks(spec in arb_dag()) {
        // Instrument every source with a counter, request only node 0.
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        for (i, &v) in spec.sources.iter().enumerate() {
            let c = Arc::clone(&counter);
            nodes.push(g.source("src", TaskKey::leaf("src", i as u64), move || {
                c.fetch_add(1, Ordering::SeqCst);
                int(v)
            }));
        }
        let r = run_pool(&g, &[nodes[0]], 2, Duration::ZERO);
        prop_assert_eq!(get(&r.outputs()[0]), spec.sources[0]);
        prop_assert_eq!(counter.load(Ordering::SeqCst), 1);
        prop_assert_eq!(r.stats.pruned(), g.len() - 1);
    }

    #[test]
    fn repeated_execution_is_deterministic(spec in arb_dag()) {
        let (g, nodes) = build(&spec, true);
        let outputs = vec![*nodes.last().expect("non-empty")];
        let a = run_pool(&g, &outputs, 3, Duration::ZERO);
        let b = run_pool(&g, &outputs, 3, Duration::ZERO);
        prop_assert_eq!(get(&a.outputs()[0]), get(&b.outputs()[0]));
    }

    #[test]
    fn morsel_split_tiles_rows_in_order(
        nrows in 0usize..5000,
        row_bytes in 1usize..64,
        morsel_bytes in 0usize..4096,
    ) {
        // For ANY morsel size the stage driver must hand out ranges that
        // tile `0..nrows` exactly once, and fold them in index order —
        // so a morsel-split fold equals the whole-partition fold for
        // every mergeable accumulator, not just commutative ones.
        let _ctx = morsel::engage(morsel_bytes, None);
        let rs = morsel::run_rows(
            nrows,
            row_bytes,
            |r| vec![r],
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        if morsel::morsel_rows(row_bytes, morsel_bytes) >= nrows {
            // No splitting configured (0 bytes means unbounded morsels)
            // or the range fits in one morsel: one inline call over the
            // whole range.
            prop_assert_eq!(rs, vec![0..nrows]);
        } else {
            prop_assert!(rs.len() > 1);
            let mut next = 0usize;
            for r in &rs {
                prop_assert_eq!(r.start, next);
                prop_assert!(r.end > r.start);
                next = r.end;
            }
            prop_assert_eq!(next, nrows);
        }
    }
}
