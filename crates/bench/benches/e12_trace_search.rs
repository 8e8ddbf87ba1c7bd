//! E12 — deep-trace search: per-extension run cost vs. depth, and the guard-evaluation
//! fixed cost, both on the `audit` workload.
//!
//! Three groups isolate the remaining hot-path representations:
//!
//! * `extend_at_depth/<depth>` — clone a depth-`d` extended run and push one transition,
//!   exactly what the explorer's trace search does per frontier child. A run spine stored
//!   as `Vec<BConfig>` pays O(d) per extension (the whole vector is cloned); the
//!   persistent spine pays O(1). The baseline ceilings on the deep depths lock the O(1)
//!   behaviour in: the `Vec` representation fails them by an order of magnitude.
//! * `guard_answers/<streams>` — evaluate every action guard of a `streams`-wide audit
//!   system against a post-seed configuration (one `answers` call per action, the fixed
//!   cost each successor enumeration pays per configuration). This is the `eval_set`
//!   measurement: a per-query-node `BTreeSet<Substitution>` representation pays one tree
//!   allocation per row per node, the sorted-row representation a handful of flat `Vec`s.
//! * `property_check/{invariant,true}` — a whole trace search (inventory, width 2, 3
//!   permits, bound 3, depth 6, one thread) under `templates::invariant` of a holding
//!   state query, and under `true`. Both enumerate the same prefix tree; the difference
//!   is the cost of evaluating the property. Evaluating each prefix from scratch
//!   re-evaluates every ancestor position's atoms (the invariant leg ran 11.7–13.1× the
//!   `true` leg); per-position letters shared along the prefix tree evaluate each
//!   position once. The ratio lock in `baseline.json` (invariant ≤ 4× true) holds the
//!   shared-letter behaviour in place.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdms_checker::{Explorer, ExplorerConfig};
use rdms_core::{ExtendedRun, RecencySemantics};
use rdms_db::answers_with_constants;
use rdms_logic::{templates, MsoFo};
use rdms_workloads::{audit, inventory};

const STREAMS: usize = 4;

/// The deterministic audit run of the given depth.
fn run_at_depth(sem: &RecencySemantics<'_>, depth: usize) -> ExtendedRun {
    let mut run = ExtendedRun::new(sem.dms().initial_bconfig());
    for _ in 0..depth {
        let mut succs = sem.successors(run.last()).expect("audit successors");
        assert_eq!(succs.len(), 1, "audit runs are deterministic");
        let (step, next) = succs.pop().expect("one successor");
        run.push(step, next);
    }
    run
}

fn bench_trace_search(c: &mut Criterion) {
    let dms = audit::dms(STREAMS);
    let b = audit::recency_bound(STREAMS);
    let sem = RecencySemantics::new(&dms, b);

    let mut group = c.benchmark_group("e12_trace_search");
    for depth in [16usize, 64, 256, 1024] {
        let run = run_at_depth(&sem, depth);
        let (step, next) = sem
            .successors(run.last())
            .expect("audit successors")
            .pop()
            .expect("one successor");
        group.bench_with_input(
            BenchmarkId::new("extend_at_depth", depth),
            &depth,
            |bench, _| {
                bench.iter(|| {
                    // the explorer's per-child trace-search step: clone the prefix, push
                    let mut child = run.clone();
                    child.push(step.clone(), next.clone());
                    assert_eq!(child.len(), depth + 1);
                    child
                })
            },
        );
    }
    for streams in [4usize, 16, 64] {
        let dms = audit::dms(streams);
        let sem = RecencySemantics::new(&dms, audit::recency_bound(streams));
        let run = run_at_depth(&sem, streams.min(8));
        let instance = run.last().instance().clone();
        // hoist what the successor enumeration hoists, so the measurement isolates the
        // per-guard `eval_set` cost rather than active-domain/constant recomputation
        let adom = instance.active_domain();
        let constants: Vec<_> = dms
            .actions()
            .iter()
            .map(|action| action.guard().constants())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("guard_answers", streams),
            &streams,
            |bench, _| {
                bench.iter(|| {
                    // the fixed guard-evaluation cost of one successor enumeration
                    let mut total = 0usize;
                    for (action, consts) in dms.actions().iter().zip(constants.iter()) {
                        total += answers_with_constants(&instance, &adom, consts, action.guard())
                            .expect("guards")
                            .len();
                    }
                    assert_eq!(total, 1, "exactly one action is enabled");
                    total
                })
            },
        );
    }
    let dms = inventory::finite_dms(2, 3);
    let explorer = Explorer::new(&dms, 3).with_config(ExplorerConfig {
        depth: 6,
        max_configs: 1_000_000,
        threads: 1,
        ..ExplorerConfig::default()
    });
    let properties = [
        (
            "invariant",
            templates::invariant(inventory::lifecycle_stages_are_exclusive()),
        ),
        ("true", MsoFo::True),
    ];
    // a whole search costs milliseconds: enough iterations that the ratio lock does not
    // rest on one or two samples under the smoke budget
    group.min_iterations(8);
    for (name, property) in properties {
        group.bench_function(BenchmarkId::new("property_check", name), |bench| {
            bench.iter(|| {
                let verdict = explorer.check(&property);
                assert!(verdict.holds(), "both properties hold on every prefix");
                verdict.stats().prefixes_checked
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trace_search);
criterion_main!(benches);
