//! `revise-loop`: one embedder running seeded editing sessions. Each session is a cold
//! `Workspace` on the permit-capped inventory followed by a script of edits, each
//! answered by `Workspace::check`; every answer is compared, outside the timed region,
//! with a from-scratch `Explorer` run on the same inputs.

use crate::calib::Calibration;
use crate::report::{Metrics, Tally};
use crate::rng::{grid, shuffle, InputDigest, Rng};
use crate::stats::{quantile, CpuClock};
use crate::trace::{write_csv, Tracer};
use rdms_checker::{
    CheckRequest, CheckTarget, Explorer, ExplorerConfig, Reuse, Verdict, Workspace,
};
use rdms_core::{dms_fingerprint, Dms};
use rdms_db::Query;
use rdms_workloads::inventory;
use std::collections::BTreeMap;
use std::path::Path;

/// Two-wide receive batches, as in bench E16: wide enough that per-state φ evaluation
/// is a real cost the φ-memo can recover (one-wide sessions answer every edit in well
/// under a millisecond).
const WIDTH: usize = 2;
const DEPTH: usize = 64;
const MAX_CONFIGS: usize = 2_000_000;

/// The inputs a recheck depends on; also the from-scratch oracle's memo key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Inputs {
    /// Whether `cancel` is gated on the dock (`finite_dms_with_gated_cancel`).
    gated: bool,
    permits: usize,
    bound: usize,
    /// 0, 1: the two holding invariants; 2: the violated `¬something_shipped`.
    target: usize,
}

#[derive(Clone, Copy, Debug)]
enum Edit {
    /// `set_dms` with a value-identical system.
    Noop,
    ToggleGatedCancel,
    /// Recency bound ±1 within 2–4.
    Bound,
    /// Swap the invariant.
    Target,
    /// Permits 2 ↔ 3.
    Permits,
}

pub struct EditSession {
    start: Inputs,
    edits: Vec<(Edit, Inputs)>,
}

pub struct ReviseInputs {
    /// The inventory variants by (gated, permits), built once.
    systems: BTreeMap<(bool, usize), Dms>,
    targets: [Query; 3],
    /// Per round: its editing sessions, one per starting point, in a seeded order.
    rounds: Vec<Vec<EditSession>>,
}

fn target_query(target: usize) -> Query {
    match target {
        0 => inventory::lifecycle_stages_are_exclusive(),
        1 => inventory::reserved_items_are_off_the_shelf(),
        _ => inventory::something_shipped().not(),
    }
}

/// Every session runs this sequence of edits, so every round meets the same mix of
/// reuse paths; the bound directions and the targets are drawn per session.
const SCRIPT: [Edit; 20] = {
    use Edit::*;
    [
        Target,
        Bound,
        Noop,
        ToggleGatedCancel,
        Target,
        Bound,
        Permits,
        ToggleGatedCancel,
        Target,
        Noop,
        Bound,
        ToggleGatedCancel,
        Target,
        Permits,
        Bound,
        Noop,
        ToggleGatedCancel,
        Target,
        Bound,
        Permits,
    ]
};

fn draw_session(start: &[usize], rng: &mut Rng) -> EditSession {
    let mut at = Inputs {
        gated: false,
        permits: start[0],
        bound: start[1],
        target: start[2],
    };
    let start = at;
    let edits = SCRIPT
        .iter()
        .map(|&edit| {
            match edit {
                Edit::Noop => {}
                Edit::ToggleGatedCancel => at.gated = !at.gated,
                Edit::Bound => {
                    let up = match at.bound {
                        2 => true,
                        4 => false,
                        _ => rng.range(0, 1) == 0,
                    };
                    at.bound = if up { at.bound + 1 } else { at.bound - 1 };
                }
                Edit::Target => {
                    // swap between the holding invariants, visiting the violated one a
                    // third of the time (which is what carries violations over bounds)
                    at.target = match (at.target, rng.range(0, 2)) {
                        (2, pick) => pick % 2,
                        (_, 2) => 2,
                        (t, _) => 1 - t,
                    };
                }
                Edit::Permits => at.permits = 5 - at.permits,
            }
            (edit, at)
        })
        .collect();
    EditSession { start, edits }
}

/// Sessions per round: one per starting (permits, bound, holding invariant), each with
/// its own edit script.
pub const SESSIONS_PER_ROUND: usize = 12;

/// Draws the sessions' bound directions and targets. A bound of 4 or a visit to the
/// violated invariant costs far more than its alternative, so scripts drawn from the
/// run's seed would give each seed a different amount of work; instead every seed
/// runs the same sessions, and the seed draws the order they run in, as batch-check
/// does with its problems.
const SCRIPT_SEED: u64 = 0x5EED_ED17;

pub fn generate(seed: u64, rounds: usize, digest: &mut InputDigest) -> ReviseInputs {
    let mut rng = Rng::fork(seed, 3);
    let mut scripts = Rng::new(SCRIPT_SEED);
    let mut systems = BTreeMap::new();
    for permits in 2..=3 {
        systems.insert((false, permits), inventory::finite_dms(WIDTH, permits));
        systems.insert(
            (true, permits),
            inventory::finite_dms_with_gated_cancel(WIDTH, permits),
        );
    }
    let starts = grid(&[&[2, 3], &[2, 3, 4], &[0, 1]]);
    debug_assert_eq!(starts.len(), SESSIONS_PER_ROUND);
    let rounds = (0..rounds)
        .map(|_| {
            let mut sessions: Vec<EditSession> = starts
                .iter()
                .map(|start| draw_session(start, &mut scripts))
                .collect();
            shuffle(&mut sessions, &mut rng);
            for session in &sessions {
                digest.feed(&format!("{:?}", session.start));
                for (_, at) in &session.edits {
                    digest.feed(&format!("{at:?}"));
                }
            }
            sessions
        })
        .collect();
    ReviseInputs {
        systems,
        targets: [target_query(0), target_query(1), target_query(2)],
        rounds,
    }
}

impl ReviseInputs {
    pub fn sessions(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    fn dms(&self, at: Inputs) -> &Dms {
        &self.systems[&(at.gated, at.permits)]
    }
}

/// What one recheck answered, kept for the oracle and the per-layer report.
struct Answer {
    at: Inputs,
    holds: bool,
    complete: bool,
    distinct_states: Option<usize>,
    reuse: Reuse,
    ms: f64,
    re_expansions: usize,
    actions_recomputed: usize,
    edges_reused: usize,
    phi_evaluations: usize,
    phi_memo_hits: usize,
    memory_bytes: usize,
}

fn complete(verdict: &Verdict) -> bool {
    match verdict {
        Verdict::Holds { complete, .. } => *complete,
        Verdict::Violated { .. } => true,
    }
}

/// One round's sessions, with a calibration pass between rechecks when one is due.
/// With a tracer, each DMS or target edit's content fingerprint is also computed apart,
/// inside a `core.fingerprint` span.
fn embed(
    inputs: &ReviseInputs,
    round: usize,
    tracer: &mut Tracer,
    calibration: &mut Calibration,
) -> Vec<Answer> {
    let mut answers = Vec::new();
    for session in &inputs.rounds[round] {
        let at = session.start;
        let mut workspace = Workspace::new(
            inputs.dms(at).clone(),
            at.bound,
            inputs.targets[at.target].clone(),
        )
        .with_depth(DEPTH)
        .with_max_configs(MAX_CONFIGS);
        let start = CpuClock::now();
        let verdict = workspace.check();
        answers.push(answer(at, &verdict, &workspace, start));
        for &(edit, at) in &session.edits {
            calibration.tick();
            let start = CpuClock::now();
            let open = tracer.enter("revision.recheck");
            match edit {
                Edit::Noop | Edit::ToggleGatedCancel | Edit::Permits => {
                    let dms = inputs.dms(at);
                    if tracer.enabled() {
                        tracer.span("core.fingerprint", || dms_fingerprint(dms));
                    }
                    workspace.set_dms(dms.clone());
                }
                Edit::Bound => {
                    workspace.set_bound(at.bound);
                }
                Edit::Target => {
                    let target = CheckTarget::invariant(inputs.targets[at.target].clone());
                    if tracer.enabled() {
                        tracer.span("core.fingerprint", || target.fingerprint());
                    }
                    workspace.set_target(target);
                }
            }
            let verdict = workspace.check();
            tracer.exit(open);
            answers.push(answer(at, &verdict, &workspace, start));
        }
    }
    answers
}

fn answer(at: Inputs, verdict: &Verdict, workspace: &Workspace, start: CpuClock) -> Answer {
    let ms = start.elapsed_ms();
    let report = workspace.last_report();
    Answer {
        at,
        holds: verdict.holds(),
        complete: complete(verdict),
        distinct_states: workspace.distinct_states(),
        reuse: report.reuse.clone(),
        ms,
        re_expansions: report.re_expansions,
        actions_recomputed: report.actions_recomputed,
        edges_reused: report.edges_reused,
        phi_evaluations: report.phi_evaluations,
        phi_memo_hits: report.phi_memo_hits,
        memory_bytes: workspace.memory_bytes(),
    }
}

/// One round; returns the answers, the CPU seconds they took (calibration passes taken
/// out) and the host's slowdown meanwhile.
fn run_sessions(
    inputs: &ReviseInputs,
    round: usize,
    tracer: &mut Tracer,
) -> (Vec<Answer>, f64, f64) {
    let mut calibration = Calibration::start();
    let start = CpuClock::now();
    let answers = embed(inputs, round, tracer, &mut calibration);
    let cpu_s = start.elapsed_s() - calibration.kernel_ms() * 1e-3;
    (answers, cpu_s, calibration.slowdown())
}

/// The from-scratch answer for each distinct input, computed once.
fn oracle(inputs: &ReviseInputs, answers: &[Answer], tally: &mut Tally) {
    let mut scratch: BTreeMap<Inputs, (bool, bool, usize)> = BTreeMap::new();
    for a in answers {
        let &mut (holds, complete_, states) = scratch.entry(a.at).or_insert_with(|| {
            let dms = inputs.dms(a.at);
            let explorer = Explorer::new(dms, a.at.bound).with_config(ExplorerConfig {
                depth: DEPTH,
                max_configs: MAX_CONFIGS,
                threads: 1,
                ..ExplorerConfig::default()
            });
            let verdict =
                explorer.run(CheckRequest::invariant(inputs.targets[a.at.target].clone()));
            let (states, _) = explorer.reachable_state_count();
            (verdict.holds(), complete(&verdict), states)
        });
        let mut ok = a.holds == holds && a.complete == complete_;
        if let Some(distinct) = a.distinct_states {
            ok &= distinct == states;
        }
        tally.record(ok, || {
            format!(
                "revise-loop {:?} via {:?}: holds {} complete {} states {:?}; scratch {holds} {complete_} {states}",
                a.at, a.reuse, a.holds, a.complete, a.distinct_states
            )
        });
    }
}

/// One round's measurements, in CPU time, and the host's slowdown meanwhile.
struct Round {
    ms: Vec<f64>,
    cpu_s: f64,
    slowdown: f64,
}

#[derive(Default)]
pub struct ReviseResult {
    rounds: Vec<Round>,
    answers: Vec<Answer>,
}

pub fn run_round(inputs: &ReviseInputs, round: usize, result: &mut ReviseResult) {
    let (answers, cpu_s, slowdown) = run_sessions(inputs, round, &mut Tracer::new(false));
    result.rounds.push(Round {
        ms: answers.iter().map(|a| a.ms).collect(),
        cpu_s,
        slowdown,
    });
    result.answers.extend(answers);
}

/// The oracle, after every round: each answer against a from-scratch run.
pub fn check_answers(inputs: &ReviseInputs, result: &ReviseResult, tally: &mut Tally) {
    oracle(inputs, &result.answers, tally);
}

/// Each metric per round in reference CPU time (the round's CPU time over the host's
/// slowdown), reported as the median over rounds.
pub fn end_to_end(result: &ReviseResult, metrics: &mut Metrics) {
    let per_round = |f: &dyn Fn(&Round) -> f64| result.rounds.iter().map(f).collect::<Vec<_>>();
    metrics.put_rounds(
        "rechecks_per_s",
        &per_round(&|r| r.ms.len() as f64 * r.slowdown / r.cpu_s),
        "1/s",
    );
    metrics.put_rounds(
        "recheck_ms_p50",
        &per_round(&|r| quantile(&r.ms, 0.5) / r.slowdown),
        "ms",
    );
    metrics.put_rounds(
        "recheck_ms_p99",
        &per_round(&|r| quantile(&r.ms, 0.99) / r.slowdown),
        "ms",
    );
}

/// Per-`Reuse`-variant metric names.
const KINDS: [&str; 6] = [
    "full_run",
    "cached_verdict",
    "violation_carried_over",
    "bound_seeded",
    "explored_set_reused",
    "delta_re_expansion",
];

fn kind(reuse: &Reuse) -> usize {
    match reuse {
        Reuse::FullRun => 0,
        Reuse::CachedVerdict => 1,
        Reuse::ViolationCarriedOver { .. } => 2,
        Reuse::BoundSeeded { .. } => 3,
        Reuse::ExploredSetReused => 4,
        Reuse::DeltaReExpansion => 5,
    }
}

pub fn traced(
    inputs: &ReviseInputs,
    spans: &Path,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> std::io::Result<()> {
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut answers = Vec::new();
    let mut tracer = Tracer::new(true);
    for round in 0..inputs.rounds.len() {
        untraced_s += run_sessions(inputs, round, &mut Tracer::new(false)).1;
        let (round_answers, cpu_s, _) = run_sessions(inputs, round, &mut tracer);
        traced_s += cpu_s;
        answers.extend(round_answers);
    }
    oracle(inputs, &answers, tally);

    let mut count = [0usize; 6];
    let mut ms = [0f64; 6];
    for a in &answers {
        count[kind(&a.reuse)] += 1;
        ms[kind(&a.reuse)] += a.ms;
    }
    for (i, name) in KINDS.iter().enumerate() {
        metrics.put(
            format!("revision.reuse.{name}.count"),
            count[i] as f64,
            "count",
        );
        metrics.put(format!("revision.reuse.{name}.ms"), ms[i], "ms");
    }
    let sum = |f: fn(&Answer) -> usize| answers.iter().map(f).sum::<usize>() as f64;
    metrics.put("revision.re_expansions", sum(|a| a.re_expansions), "count");
    let reused = sum(|a| a.edges_reused);
    metrics.put(
        "revision.edges_reused_ratio",
        reused / (reused + sum(|a| a.actions_recomputed)).max(1.0),
        "ratio",
    );
    let hits = sum(|a| a.phi_memo_hits);
    metrics.put(
        "revision.phi_memo_hit_ratio",
        hits / (hits + sum(|a| a.phi_evaluations)).max(1.0),
        "ratio",
    );
    let memo_bytes = answers.iter().map(|a| a.memory_bytes).max().unwrap_or(0);
    metrics.put("revision.memo_bytes", memo_bytes as f64, "bytes");
    let fingerprint = tracer
        .totals()
        .get("core.fingerprint")
        .copied()
        .unwrap_or_default();
    metrics.put("core.fingerprint.self_ms", fingerprint.self_ms(), "ms");
    metrics.put("trace.overhead.revise_loop", traced_s / untraced_s, "ratio");
    write_csv(&[&tracer], spans)
}
