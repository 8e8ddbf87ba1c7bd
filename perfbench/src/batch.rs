//! `batch-check`: one caller sends a seeded list of check requests through
//! `Explorer::run`, closed loop, and an auditor re-verifies every emitted certificate
//! with the engine-free `rdms-cert` checker.
//!
//! The traced variant replays each distinct problem's state space through the public
//! layer functions — `RecencySemantics::successors`, `answers::answers`,
//! `iso::canonical_config_key`, `KeyInterner::intern_new`, `eval::holds_boolean`,
//! `msofo::eval_sentence` — inside spans, and checks that the replay finds exactly the
//! states `Explorer::reachable_state_count` finds.

use crate::calib::Calibration;
use crate::report::{Metrics, Tally};
use crate::rng::{grid, shuffle, InputDigest, Rng};
use crate::stats::{mean, quantile, CpuClock};
use crate::trace::{write_csv, Tracer};
use rdms_checker::{CheckRequest, CheckTarget, Explorer, ExplorerConfig, Verdict};
use rdms_core::cert::Certificate;
use rdms_core::iso::{canonical_config_key, KeyInterner};
use rdms_core::{BConfig, Dms, ExtendedRun, RecencySemantics};
use rdms_db::{answers::answers, eval::holds_boolean, Query};
use rdms_logic::msofo::eval_sentence;
use rdms_logic::templates;
use rdms_workloads::{audit, booking, enrollment, inventory, wide};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Budget for saturating searches: far beyond the permit-capped graphs' diameters.
const SATURATING_DEPTH: usize = 64;
const MAX_CONFIGS: usize = 2_000_000;

/// The answer a from-scratch reading of the workload says the check must give.
#[derive(Clone, Copy, Debug)]
struct Expected {
    holds: bool,
    /// Whether the search must cover the whole space (`Some(true)` for saturating
    /// searches and violations); `None` when that depends on the depth bound.
    complete: Option<bool>,
}

pub struct Problem {
    label: String,
    dms: Arc<Dms>,
    bound: usize,
    depth: usize,
    target: CheckTarget,
    /// A trace invariant's state-invariant twin, which must give the same verdict.
    twin: Option<Query>,
    emit_certificate: bool,
    expected: Expected,
}

pub struct BatchInputs {
    /// Per round, one shuffled cycle; repeated requests share one `Problem`.
    rounds: Vec<Vec<Arc<Problem>>>,
}

impl BatchInputs {
    pub fn requests(&self) -> impl Iterator<Item = &Arc<Problem>> {
        self.rounds.iter().flatten()
    }
}

fn inventory_invariant(which: usize) -> (&'static str, Query, bool) {
    match which {
        0 => (
            "lifecycle",
            inventory::lifecycle_stages_are_exclusive(),
            true,
        ),
        1 => (
            "off-shelf",
            inventory::reserved_items_are_off_the_shelf(),
            true,
        ),
        _ => ("never-shipped", inventory::something_shipped().not(), false),
    }
}

/// One cycle of the request mix: every kind's whole parameter grid, repeated this many
/// times. 105 requests — 44 saturating, 21 depth-bounded, 40 trace.
const CYCLE: [(Kind, usize); 6] = [
    (Kind::SaturatingInventory, 1),
    (Kind::SaturatingBooking, 4),
    (Kind::BoundedAudit, 1),
    (Kind::BoundedWide, 1),
    (Kind::TraceInventory, 1),
    (Kind::TraceEnrollment, 2),
];
const CYCLE_LEN: usize = 105;

#[derive(Clone, Copy)]
enum Kind {
    SaturatingInventory,
    SaturatingBooking,
    BoundedAudit,
    BoundedWide,
    TraceInventory,
    TraceEnrollment,
}

impl Kind {
    /// The values of each parameter the kind takes.
    fn parameters(self) -> &'static [&'static [usize]] {
        match self {
            // width, permits, bound, invariant (the third one is violated)
            Kind::SaturatingInventory => &[&[1, 2], &[2, 3], &[2, 3, 4], &[0, 1, 2]],
            // bound
            Kind::SaturatingBooking => &[&[2, 3]],
            // streams, depth
            Kind::BoundedAudit => &[&[3, 4, 5], &[8, 10, 12]],
            // relations, bound, depth
            Kind::BoundedWide => &[&[6, 8, 10], &[2, 3], &[4, 6]],
            // width, permits, bound, depth, invariant
            Kind::TraceInventory => &[&[1, 2], &[2, 3], &[2, 3], &[5, 6], &[0, 1]],
            // bound, depth
            Kind::TraceEnrollment => &[&[1, 2], &[5, 6]],
        }
    }
}

fn problem(kind: Kind, params: &[usize], systems: &mut BTreeMap<String, Arc<Dms>>) -> Problem {
    let mut system = |key: String, build: &dyn Fn() -> Dms| {
        Arc::clone(systems.entry(key).or_insert_with(|| Arc::new(build())))
    };
    let holds = Expected {
        holds: true,
        complete: Some(true),
    };
    match (kind, params) {
        // saturating invariant checks, certificate emission on
        (Kind::SaturatingInventory, &[width, permits, bound, which]) => {
            let (name, invariant, invariant_holds) = inventory_invariant(which);
            Problem {
                label: format!("inventory w{width} p{permits} b{bound} {name}"),
                dms: system(format!("inventory {width} {permits}"), &|| {
                    inventory::finite_dms(width, permits)
                }),
                bound,
                depth: SATURATING_DEPTH,
                target: CheckTarget::invariant(invariant),
                twin: None,
                emit_certificate: true,
                expected: Expected {
                    holds: invariant_holds,
                    complete: Some(true),
                },
            }
        }
        (Kind::SaturatingBooking, &[bound]) => Problem {
            label: format!("booking p2 b{bound} offer-state"),
            dms: system("booking 2".into(), &|| {
                booking::finite(&booking::BookingConfig::default(), 2).dms
            }),
            bound,
            depth: SATURATING_DEPTH,
            target: CheckTarget::invariant(booking::offer_state_invariant()),
            twin: None,
            emit_certificate: true,
            expected: holds,
        },
        // depth-bounded invariants on systems whose histories grow without bound; whether
        // the canonical space saturates within the depth depends on the parameters, so
        // only the verdict is expected
        (Kind::BoundedAudit, &[streams, depth]) => Problem {
            label: format!("audit s{streams} d{depth} head"),
            dms: system(format!("audit {streams}"), &|| audit::dms(streams)),
            bound: audit::recency_bound(streams),
            depth,
            target: CheckTarget::invariant(audit::first_stream_has_a_head()),
            twin: None,
            emit_certificate: false,
            expected: Expected {
                holds: true,
                complete: None,
            },
        },
        (Kind::BoundedWide, &[relations, bound, depth]) => Problem {
            label: format!("wide r{relations} b{bound} d{depth} populated"),
            dms: system(format!("wide {relations}"), &|| wide::dms(relations)),
            bound,
            depth,
            target: CheckTarget::invariant(wide::first_ledger_stays_populated()),
            twin: None,
            emit_certificate: false,
            expected: Expected {
                holds: true,
                complete: None,
            },
        },
        // MSO-FO trace properties: prefix enumeration without dedup
        (Kind::TraceInventory, &[width, permits, bound, depth, which]) => {
            let (name, invariant, _) = inventory_invariant(which);
            Problem {
                label: format!("trace inventory w{width} p{permits} b{bound} d{depth} {name}"),
                dms: system(format!("inventory {width} {permits}"), &|| {
                    inventory::finite_dms(width, permits)
                }),
                bound,
                depth,
                target: CheckTarget::property(templates::invariant(invariant.clone())),
                twin: Some(invariant),
                emit_certificate: false,
                expected: holds,
            }
        }
        (Kind::TraceEnrollment, &[bound, depth]) => Problem {
            label: format!("trace enrollment b{bound} d{depth} graduation"),
            dms: system("enrollment".into(), &|| enrollment::dms()),
            bound,
            depth,
            target: CheckTarget::property(enrollment::graduation_property()),
            twin: None,
            emit_certificate: false,
            expected: Expected {
                holds: false,
                complete: Some(true),
            },
        },
        _ => unreachable!("parameter tuples match their kind"),
    }
}

/// The request lists: one shuffled copy of the cycle per round. Every seed sends exactly
/// the same multiset of problems, in its own order.
pub fn generate(seed: u64, rounds: usize, digest: &mut InputDigest) -> BatchInputs {
    let mut rng = Rng::fork(seed, 1);
    let mut systems = BTreeMap::new();
    let mut distinct: BTreeMap<String, Arc<Problem>> = BTreeMap::new();
    let mut cycle: Vec<Arc<Problem>> = Vec::with_capacity(CYCLE_LEN);
    for &(kind, times) in &CYCLE {
        for params in grid(kind.parameters()) {
            let problem = problem(kind, &params, &mut systems);
            let problem = Arc::clone(
                distinct
                    .entry(problem.label.clone())
                    .or_insert_with(|| Arc::new(problem)),
            );
            cycle.extend(std::iter::repeat_n(problem, times));
        }
    }
    debug_assert_eq!(cycle.len(), CYCLE_LEN);
    let rounds = (0..rounds)
        .map(|_| {
            shuffle(&mut cycle, &mut rng);
            for problem in &cycle {
                digest.feed(&problem.label);
            }
            cycle.clone()
        })
        .collect();
    BatchInputs { rounds }
}

fn config(problem: &Problem, threads: usize, emit: bool) -> ExplorerConfig {
    ExplorerConfig {
        depth: problem.depth,
        max_configs: MAX_CONFIGS,
        threads,
        ..ExplorerConfig::default()
    }
    .with_emit_certificate(emit)
}

fn check(problem: &Problem, threads: usize, emit: bool) -> Verdict {
    Explorer::new(&problem.dms, problem.bound)
        .with_config(config(problem, threads, emit))
        .run(CheckRequest::new(problem.target.clone()))
}

fn complete(verdict: &Verdict) -> bool {
    match verdict {
        Verdict::Holds { complete, .. } => *complete,
        Verdict::Violated { .. } => true,
    }
}

/// The auditor's side: parse the certificate's wire JSON and verify it, timed in CPU
/// milliseconds.
fn verify_certificate(json: &str) -> (bool, f64) {
    let start = CpuClock::now();
    let ok = Certificate::from_json(json).is_ok_and(|cert| cert.verify().is_ok());
    (ok, start.elapsed_ms())
}

/// One check and its milliseconds. On one explorer thread they are CPU milliseconds: the
/// wall time less what the host took away from the virtual CPU. A pool's workers spin
/// and steal while they wait for work, so their CPU time is not progress, and with
/// more than one thread the check is timed on the wall clock. (How fast the pool gets
/// through a check depends on when the host runs each virtual CPU, which one thread's
/// calibration cannot see, so wall times are not normalised either; the pool's
/// work stealing already evens out a slow virtual CPU.)
fn timed_check(problem: &Problem, threads: usize) -> (Verdict, f64) {
    if threads == 1 {
        let start = CpuClock::now();
        let verdict = check(problem, threads, problem.emit_certificate);
        (verdict, start.elapsed_ms())
    } else {
        let start = Instant::now();
        let verdict = check(problem, threads, problem.emit_certificate);
        (verdict, start.elapsed().as_secs_f64() * 1e3)
    }
}

/// One round's measurements in milliseconds, and what to divide them by for reference
/// time: the host's slowdown meanwhile, or 1 for a check timed on the wall clock.
struct Round {
    check_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    check_scale: f64,
    verify_scale: f64,
}

#[derive(Default)]
pub struct BatchResult {
    rounds: Vec<Round>,
    /// Trace invariants' twin verdicts, computed once each.
    twins: BTreeMap<String, bool>,
}

/// One round of the closed loop. Only `Explorer::run` is inside `check_ms`; certificate
/// verification is timed apart and the twin/expected-answer oracles are outside both.
pub fn run_round(
    inputs: &BatchInputs,
    round: usize,
    threads: usize,
    result: &mut BatchResult,
    tally: &mut Tally,
) {
    let requests = &inputs.rounds[round];
    let mut check_ms = Vec::with_capacity(requests.len());
    let mut verify_ms = Vec::new();
    let mut calibration = Calibration::start();
    for problem in requests {
        calibration.tick();
        let (verdict, ms) = timed_check(problem, threads);
        check_ms.push(ms);

        let complete = complete(&verdict);
        let mut ok = verdict.holds() == problem.expected.holds
            && problem.expected.complete.is_none_or(|c| c == complete);
        if problem.emit_certificate {
            match verdict.certificate() {
                Some(cert) => {
                    let (verified, ms) = verify_certificate(&cert.to_json());
                    verify_ms.push(ms);
                    ok &= verified;
                }
                None => ok = false,
            }
        }
        if let Some(twin) = &problem.twin {
            let twin_holds = *result
                .twins
                .entry(problem.label.clone())
                .or_insert_with(|| {
                    Explorer::new(&problem.dms, problem.bound)
                        .with_config(config(problem, 1, false))
                        .run(CheckRequest::invariant(twin.clone()))
                        .holds()
                });
            ok &= twin_holds == verdict.holds();
        }
        tally.record(ok, || {
            format!(
                "batch-check {}: holds {} complete {complete}, expected {:?}",
                problem.label,
                verdict.holds(),
                problem.expected
            )
        });
    }
    result.rounds.push(Round {
        check_ms,
        verify_ms,
        check_scale: if threads == 1 {
            calibration.slowdown()
        } else {
            1.0
        },
        verify_scale: calibration.slowdown(),
    });
}

/// Each metric per round in reference time (see [`timed_check`] and [`Round`]),
/// reported as the median over rounds.
pub fn end_to_end(result: &BatchResult, metrics: &mut Metrics) {
    let per_round = |f: &dyn Fn(&Round) -> f64| result.rounds.iter().map(f).collect::<Vec<_>>();
    metrics.put_rounds(
        "checks_per_s",
        &per_round(&|r| {
            r.check_ms.len() as f64 * 1e3 * r.check_scale / r.check_ms.iter().sum::<f64>()
        }),
        "1/s",
    );
    metrics.put_rounds(
        "check_ms_p99",
        &per_round(&|r| quantile(&r.check_ms, 0.99) / r.check_scale),
        "ms",
    );
    metrics.put_rounds(
        "cert_verify_ms_p50",
        &per_round(&|r| quantile(&r.verify_ms, 0.5) / r.verify_scale),
        "ms",
    );
}

// ---------------------------------------------------------------------------------------
// traced replay
// ---------------------------------------------------------------------------------------

#[derive(Default)]
struct ReplayCounts {
    answer_rows: u64,
    successors: u64,
    intern_attempts: u64,
    intern_new: u64,
}

/// One configuration's successors, with the guard answers of every action re-computed
/// apart (the successor call evaluates the same guards internally).
fn expand(
    semantics: &RecencySemantics<'_>,
    config: &BConfig,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Vec<(rdms_core::Step, BConfig)> {
    for action in semantics.dms().actions() {
        let rows = tracer.span("db.answers", || answers(config.instance(), action.guard()));
        counts.answer_rows += rows.map_or(0, |rows| rows.len() as u64);
    }
    let successors = tracer
        .span("core.successors", || semantics.successors(config))
        .expect("explored configurations have well-formed successors");
    counts.successors += successors.len() as u64;
    successors
}

/// Canonicalise and intern one configuration; `true` when it was new.
fn admit(
    config: &BConfig,
    constants: &BTreeSet<rdms_db::DataValue>,
    interner: &KeyInterner,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> bool {
    let key = tracer.span("core.canon", || canonical_config_key(config, constants));
    let (_, new) = tracer.span("core.intern", || interner.intern_new(key));
    counts.intern_attempts += 1;
    counts.intern_new += u64::from(new);
    new
}

/// Breadth-first replay of an invariant problem's state space (states within the depth
/// bound, deduplicated modulo isomorphism); returns (distinct states, violated).
fn replay_invariant(
    problem: &Problem,
    invariant: &Query,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> (usize, bool) {
    let semantics = RecencySemantics::new(&problem.dms, problem.bound);
    let constants = problem.dms.constants().clone();
    let interner = KeyInterner::new();
    let mut violated = false;
    let holds = |config: &BConfig, tracer: &mut Tracer| {
        tracer
            .span("db.eval", || holds_boolean(config.instance(), invariant))
            .unwrap_or(false)
    };
    let root = problem.dms.initial_bconfig();
    admit(&root, &constants, &interner, tracer, counts);
    violated |= !holds(&root, tracer);
    let mut frontier = vec![root];
    for _ in 0..problem.depth {
        let mut next = Vec::new();
        for config in &frontier {
            for (_, successor) in expand(&semantics, config, tracer, counts) {
                if admit(&successor, &constants, &interner, tracer, counts) {
                    violated |= !holds(&successor, tracer);
                    next.push(successor);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    (interner.len(), violated)
}

/// Depth-first replay of a trace property over every run prefix within the depth bound,
/// stopping at the first violating prefix as the explorer does; returns (prefixes
/// evaluated, violated).
fn replay_property(
    problem: &Problem,
    property: &rdms_logic::MsoFo,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> (usize, bool) {
    let semantics = RecencySemantics::new(&problem.dms, problem.bound);
    let mut stack = vec![ExtendedRun::new(problem.dms.initial_bconfig())];
    let mut prefixes = 0;
    while let Some(run) = stack.pop() {
        prefixes += 1;
        let instances = run.instances();
        if !tracer.span("logic.eval", || eval_sentence(&instances, property)) {
            return (prefixes, true);
        }
        if run.len() < problem.depth {
            for (step, next) in expand(&semantics, run.last(), tracer, counts) {
                let mut child = run.clone();
                child.push(step, next);
                stack.push(child);
            }
        }
    }
    (prefixes, false)
}

fn replay(problem: &Problem, tracer: &mut Tracer, counts: &mut ReplayCounts) -> (usize, bool) {
    match &problem.target {
        CheckTarget::Invariant(invariant) => replay_invariant(problem, invariant, tracer, counts),
        CheckTarget::Property(property) => replay_property(problem, property, tracer, counts),
    }
}

/// The traced run: every distinct problem once through `Explorer::run` (stats, the run
/// span, emission on vs off) and once through the traced replay, whose distinct-state
/// count must equal `reachable_state_count`.
pub fn traced(
    inputs: &BatchInputs,
    threads: usize,
    spans: &Path,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> std::io::Result<()> {
    let mut seen = BTreeSet::new();
    let problems: Vec<&Arc<Problem>> = inputs
        .requests()
        .filter(|p| seen.insert(p.label.clone()))
        .collect();

    let mut run_ms_sequential = 0.0;
    let (mut states, mut dedup_hits, mut peak_frontier, mut reported_threads) = (0, 0, 0, 0);
    let (mut shared, mut materialized) = (0u64, 0u64);
    let (mut emit_on_ms, mut emit_off_ms) = (Vec::new(), Vec::new());
    let mut cert_tracer = Tracer::new(true);
    let mut cert_bytes = Vec::new();
    for problem in &problems {
        let verdict = check(problem, threads, false);
        let stats = verdict.stats();
        states += stats.configs_explored;
        dedup_hits += stats.configs_deduplicated;
        peak_frontier = peak_frontier.max(stats.peak_frontier);
        reported_threads = reported_threads.max(stats.threads);
        shared += stats.relations_shared;
        materialized += stats.relations_materialized;

        let start = Instant::now();
        check(problem, 1, false);
        run_ms_sequential += start.elapsed().as_secs_f64() * 1e3;

        if problem.emit_certificate {
            let start = Instant::now();
            check(problem, threads, false);
            emit_off_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            let emitted = check(problem, threads, true);
            emit_on_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let json = emitted
                .certificate()
                .map(|c| c.to_json())
                .unwrap_or_default();
            cert_bytes.push(json.len() as f64);
            let verified = cert_tracer.span("cert.verify", || {
                Certificate::from_json(&json).is_ok_and(|cert| cert.verify().is_ok())
            });
            tally.record(verified, || {
                format!("traced certificate of {}", problem.label)
            });
        }
    }

    // the replay, untraced then traced: the ratio is the tracing overhead
    let start = Instant::now();
    for problem in &problems {
        replay(
            problem,
            &mut Tracer::new(false),
            &mut ReplayCounts::default(),
        );
    }
    let untraced_s = start.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(true);
    let mut counts = ReplayCounts::default();
    let start = Instant::now();
    for problem in &problems {
        // one parent span per problem: its layer spans are the children
        let open = tracer.enter("batch.problem");
        let (count, violated) = replay(problem, &mut tracer, &mut counts);
        tracer.exit(open);
        let mut ok = violated != problem.expected.holds;
        if problem.target.is_invariant() {
            let (expected_count, _) = Explorer::new(&problem.dms, problem.bound)
                .with_config(config(problem, 1, false))
                .reachable_state_count();
            ok &= count == expected_count;
            tally.record(ok, || {
                format!(
                    "replay of {}: {count} states (explorer: {expected_count}), violated {violated}",
                    problem.label
                )
            });
        } else {
            tally.record(ok, || {
                format!("replay of {}: violated {violated}", problem.label)
            });
        }
    }
    let traced_s = start.elapsed().as_secs_f64();

    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (answers_t, successors_t, canon_t, intern_t) = (
        get("db.answers"),
        get("core.successors"),
        get("core.canon"),
        get("core.intern"),
    );
    let (eval_t, logic_t) = (get("db.eval"), get("logic.eval"));
    metrics.put("db.answers.calls", answers_t.calls as f64, "count");
    metrics.put("db.answers.self_ms", answers_t.self_ms(), "ms");
    metrics.put(
        "db.answers.rows_per_call",
        counts.answer_rows as f64 / answers_t.calls.max(1) as f64,
        "rows",
    );
    metrics.put("db.eval.calls", eval_t.calls as f64, "count");
    metrics.put("db.eval.self_ms", eval_t.self_ms(), "ms");
    metrics.put("core.apply.calls", counts.successors as f64, "count");
    // the successor call evaluates the same guards that were timed apart as db.answers
    metrics.put(
        "core.apply.self_ms",
        successors_t.self_ms() - answers_t.self_ms(),
        "ms",
    );
    metrics.put(
        "core.cow.shared_ratio",
        shared as f64 / (shared + materialized).max(1) as f64,
        "ratio",
    );
    metrics.put("core.canon.self_ms", canon_t.self_ms(), "ms");
    metrics.put("core.intern.self_ms", intern_t.self_ms(), "ms");
    metrics.put(
        "core.intern.new_ratio",
        counts.intern_new as f64 / counts.intern_attempts.max(1) as f64,
        "ratio",
    );
    metrics.put("logic.eval.calls", logic_t.calls as f64, "count");
    metrics.put("logic.eval.self_ms", logic_t.self_ms(), "ms");
    let layers_ms = successors_t.self_ms()
        + canon_t.self_ms()
        + intern_t.self_ms()
        + eval_t.self_ms()
        + logic_t.self_ms();
    metrics.put("checker.run.self_ms", run_ms_sequential - layers_ms, "ms");
    metrics.put("checker.states", states as f64, "count");
    metrics.put(
        "checker.dedup_hit_rate",
        dedup_hits as f64 / (states + dedup_hits).max(1) as f64,
        "ratio",
    );
    metrics.put("checker.threads", reported_threads as f64, "count");
    metrics.put("checker.peak_frontier", peak_frontier as f64, "count");
    metrics.put(
        "checker.emit.overhead_ms",
        mean(&emit_on_ms) - mean(&emit_off_ms),
        "ms",
    );
    let cert_t = cert_tracer
        .totals()
        .get("cert.verify")
        .copied()
        .unwrap_or_default();
    metrics.put("cert.verify.calls", cert_t.calls as f64, "count");
    metrics.put("cert.verify.self_ms", cert_t.self_ms(), "ms");
    metrics.put("cert.bytes", mean(&cert_bytes), "bytes");
    metrics.put("trace.overhead.batch_check", traced_s / untraced_s, "ratio");
    metrics.put("trace.spans.batch_check", tracer.len() as f64, "count");
    write_csv(&[&tracer, &cert_tracer], spans)
}
