//! E2 — construction cost of the reduction formula (Section 6.6).
//!
//! The paper states that building `ϕ_valid ∧ ¬⌊ψ⌋` takes time
//! `O((b + |R| + |acts|)^{O(a + n)})`. This bench measures the construction time as `b`
//! grows and as the schema grows, on the running example and on randomly generated DMSs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdms_checker::encoding::RunEncoder;
use rdms_checker::formulas::Formulas;
use rdms_checker::phi_valid::PhiValid;
use rdms_checker::translate::Translator;
use rdms_workloads::figure1;
use rdms_workloads::random::{random_dms, RandomDmsConfig};

fn bench_phi_valid(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_phi_valid_vs_b");
    group.sample_size(10);
    let dms = figure1::dms();
    for b in 1..=2usize {
        group.bench_with_input(BenchmarkId::new("example_3_1", b), &b, |bench, &b| {
            bench.iter(|| {
                let encoder = RunEncoder::new(&dms, b);
                let formulas = Formulas::new(&dms, encoder.alphabet());
                PhiValid::new(&dms, &formulas).build().size()
            })
        });
    }
    group.finish();
}

fn bench_guard_consistency_vs_schema(c: &mut Criterion) {
    // the guard-consistency condition of ϕ_valid exercises the ⌊·⌋_{α,s,x} translation for
    // every action of the schema; its construction time grows with |R| and |acts| (b fixed
    // at 1 to isolate the schema dimension)
    let mut group = c.benchmark_group("e2_guard_consistency_vs_schema");
    group.sample_size(10);
    for relations in [2usize, 4, 6] {
        let dms = random_dms(&RandomDmsConfig {
            relations,
            actions: relations,
            seed: 11,
            ..Default::default()
        });
        group.bench_with_input(
            BenchmarkId::new("relations_and_actions", relations),
            &relations,
            |bench, _| {
                bench.iter(|| {
                    let encoder = RunEncoder::new(&dms, 1);
                    let formulas = Formulas::new(&dms, encoder.alphabet());
                    PhiValid::new(&dms, &formulas).guard_consistency().size()
                })
            },
        );
    }
    group.finish();
}

fn bench_specification_translation(c: &mut Criterion) {
    // ⌊ψ⌋ for the introduction's response property, as b grows
    let dms = figure1::dms();
    let property = rdms_logic::templates::response(
        rdms_db::Var::new("u"),
        rdms_db::Query::atom(rdms_db::RelName::new("R"), [rdms_db::Var::new("u")]),
        rdms_db::Query::atom(rdms_db::RelName::new("Q"), [rdms_db::Var::new("u")]),
    );
    let mut group = c.benchmark_group("e2_spec_translation_vs_b");
    group.sample_size(10);
    for b in 1..=2usize {
        group.bench_with_input(BenchmarkId::new("response_property", b), &b, |bench, &b| {
            bench.iter(|| {
                let encoder = RunEncoder::new(&dms, b);
                let formulas = Formulas::new(&dms, encoder.alphabet());
                Translator::new(&formulas).specification(&property).size()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_phi_valid,
    bench_guard_consistency_vs_schema,
    bench_specification_translation
);
criterion_main!(benches);
