//! Oracles for MSO-FO trace-property evaluation.
//!
//! The engines evaluate a property through `rdms_logic::msofo::CompiledFormula`: one
//! letter per run position (the truth of every `Q@x` atom there), shared along the
//! explorer's prefix tree. This file checks that machinery against the plain recursive
//! Appendix B semantics kept below as [`reference`]:
//!
//! * on random sentences over random instance sequences, the compiled evaluator (and the
//!   `eval_sentence` wrapper) agree with the reference;
//! * explorer trace searches at one and two threads, and resumed from a checkpoint, reach
//!   the verdict, `prefixes_checked` and counterexample of a depth-first search written
//!   here that evaluates every prefix with the reference.

use proptest::prelude::*;
use rdms::checker::checkpoint::{CheckpointPolicy, SearchCheckpoint};
use rdms::checker::{Explorer, ExplorerConfig, Verdict};
use rdms::core::{CancelToken, Dms, ExtendedRun, RecencySemantics};
use rdms::db::{DataValue, Instance, Query, RelName, Term, Var};
use rdms::logic::msofo::{eval_sentence, CompiledFormula, Letter};
use rdms::logic::{templates, MsoFo, PosVar, SetVar};
use rdms::workloads::random::{random_dms, RandomDmsConfig};

/// The recursive evaluator of Appendix B, transcribed directly: every quantifier clones
/// the assignment, every atom re-evaluates its query on the instance.
mod reference {
    use rdms::db::{eval as query_eval, DataValue, Instance, Substitution, Var};
    use rdms::logic::msofo::global_adom;
    use rdms::logic::{MsoFo, PosVar, SetVar};
    use std::collections::{BTreeMap, BTreeSet};

    #[derive(Clone, Default)]
    struct Assignment {
        pos: BTreeMap<PosVar, usize>,
        sets: BTreeMap<SetVar, BTreeSet<usize>>,
        data: Substitution,
    }

    pub fn eval_sentence(run: &[Instance], formula: &MsoFo) -> bool {
        eval(run, &Assignment::default(), formula)
    }

    fn eval(run: &[Instance], assignment: &Assignment, formula: &MsoFo) -> bool {
        match formula {
            MsoFo::True => true,
            MsoFo::QueryAt(q, x) => {
                let instance = &run[assignment.pos[x]];
                let free: Vec<Var> = q.free_vars().into_iter().collect();
                let sub = assignment.data.restrict(free.iter());
                // every free data variable must be bound and denote an active value of I_x
                let adom = instance.active_domain();
                for u in &free {
                    match sub.get(*u) {
                        Some(value) if adom.contains(&value) => {}
                        _ => return false,
                    }
                }
                query_eval::holds(instance, &sub, q).unwrap_or(false)
            }
            MsoFo::Less(x, y) => assignment.pos[x] < assignment.pos[y],
            MsoFo::PosEq(x, y) => assignment.pos[x] == assignment.pos[y],
            MsoFo::In(x, set) => assignment.sets[set].contains(&assignment.pos[x]),
            MsoFo::Not(p) => !eval(run, assignment, p),
            MsoFo::And(a, b) => eval(run, assignment, a) && eval(run, assignment, b),
            MsoFo::Or(a, b) => eval(run, assignment, a) || eval(run, assignment, b),
            MsoFo::ExistsPos(x, p) => {
                (0..run.len()).any(|i| eval(run, &with_pos(assignment, *x, i), p))
            }
            MsoFo::ForallPos(x, p) => {
                (0..run.len()).all(|i| eval(run, &with_pos(assignment, *x, i), p))
            }
            MsoFo::ExistsSet(x, p) => {
                subsets(run.len()).any(|s| eval(run, &with_set(assignment, *x, s), p))
            }
            MsoFo::ForallSet(x, p) => {
                subsets(run.len()).all(|s| eval(run, &with_set(assignment, *x, s), p))
            }
            MsoFo::ExistsData(u, p) => global_adom(run)
                .into_iter()
                .any(|e| eval(run, &with_data(assignment, *u, e), p)),
            MsoFo::ForallData(u, p) => global_adom(run)
                .into_iter()
                .all(|e| eval(run, &with_data(assignment, *u, e), p)),
        }
    }

    fn with_pos(assignment: &Assignment, x: PosVar, i: usize) -> Assignment {
        let mut a = assignment.clone();
        a.pos.insert(x, i);
        a
    }

    fn with_set(assignment: &Assignment, x: SetVar, s: BTreeSet<usize>) -> Assignment {
        let mut a = assignment.clone();
        a.sets.insert(x, s);
        a
    }

    fn with_data(assignment: &Assignment, u: Var, e: DataValue) -> Assignment {
        let mut a = assignment.clone();
        a.data.bind(u, e);
        a
    }

    fn subsets(n: usize) -> impl Iterator<Item = BTreeSet<usize>> {
        (0u64..(1u64 << n)).map(move |mask| (0..n).filter(|i| mask & (1 << i) != 0).collect())
    }
}

// -----------------------------------------------------------------------------------------
// random sentences over random instance sequences
// -----------------------------------------------------------------------------------------

/// SplitMix64: a tiny deterministic generator for the formula shapes.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

fn r(name: &str) -> RelName {
    RelName::new(name)
}

/// Values 1–4 occur in the random instances; 5 never does, so a constant `e5` is never
/// active and exercises the per-binding path of open atoms.
fn value(g: &mut Gen) -> DataValue {
    DataValue::e(1 + g.below(5))
}

/// A random instance over `P/0`, `A/1`, `B/2` with values 1–4.
fn random_instance(g: &mut Gen) -> Instance {
    let mut facts = Vec::new();
    if g.below(2) == 0 {
        facts.push((r("P"), vec![]));
    }
    for _ in 0..g.below(4) {
        facts.push((r("A"), vec![DataValue::e(1 + g.below(4))]));
    }
    for _ in 0..g.below(4) {
        facts.push((
            r("B"),
            vec![DataValue::e(1 + g.below(4)), DataValue::e(1 + g.below(4))],
        ));
    }
    Instance::from_facts(facts)
}

/// A random FOL(R) query whose free variables are drawn from `scope` (data variables
/// bound by enclosing `∃g`/`∀g`); it may quantify variables of its own and name constants.
fn random_query(g: &mut Gen, scope: &mut Vec<Var>, depth: u32) -> Query {
    let term = |g: &mut Gen, scope: &[Var]| -> Term {
        if scope.is_empty() || g.below(4) == 0 {
            Term::Value(value(g))
        } else {
            Term::Var(g.pick(scope))
        }
    };
    let choice = if depth == 0 { g.below(4) } else { g.below(8) };
    match choice {
        0 => Query::prop(r("P")),
        1 => Query::atom(r("A"), [term(g, scope)]),
        2 => Query::atom(r("B"), [term(g, scope), term(g, scope)]),
        3 => Query::eq(term(g, scope), term(g, scope)),
        4 => random_query(g, scope, depth - 1).not(),
        5 => random_query(g, scope, depth - 1).and(random_query(g, scope, depth - 1)),
        6 => random_query(g, scope, depth - 1).or(random_query(g, scope, depth - 1)),
        _ => {
            let w = Var::numbered("w", scope.len());
            scope.push(w);
            let body = random_query(g, scope, depth - 1);
            scope.pop();
            if g.below(2) == 0 {
                Query::exists(w, body)
            } else {
                Query::forall(w, body)
            }
        }
    }
}

/// Variables in scope while generating a formula.
#[derive(Default)]
struct Scope {
    pos: Vec<PosVar>,
    sets: Vec<SetVar>,
    data: Vec<Var>,
}

/// A random MSO-FO formula whose position and set variables are all bound (a sentence
/// when `scope` is empty). Data variables come from `∃g`/`∀g` binders; an atom whose
/// binding is not active at its position is false (the Appendix B proviso), which random
/// instance sequences hit constantly.
fn random_formula(g: &mut Gen, scope: &mut Scope, depth: u32) -> MsoFo {
    let leaf = depth == 0;
    let choice = if leaf { g.below(5) } else { 5 + g.below(9) };
    match choice {
        0 => MsoFo::True,
        1 | 2 if !scope.pos.is_empty() => {
            let x = g.pick(&scope.pos);
            let mut data = scope.data.clone();
            MsoFo::QueryAt(random_query(g, &mut data, 2), x)
        }
        3 if !scope.pos.is_empty() => {
            let (x, y) = (g.pick(&scope.pos), g.pick(&scope.pos));
            if g.below(2) == 0 {
                MsoFo::Less(x, y)
            } else {
                MsoFo::PosEq(x, y)
            }
        }
        4 if !scope.pos.is_empty() && !scope.sets.is_empty() => {
            MsoFo::In(g.pick(&scope.pos), g.pick(&scope.sets))
        }
        1..=4 => MsoFo::True.not(),
        5 => random_formula(g, scope, depth - 1).not(),
        6 => random_formula(g, scope, depth - 1).and(random_formula(g, scope, depth - 1)),
        7 => random_formula(g, scope, depth - 1).or(random_formula(g, scope, depth - 1)),
        8 | 9 => {
            // reuse a name sometimes, so inner binders shadow outer ones
            let x = PosVar(g.below(3) as u32);
            scope.pos.push(x);
            let body = random_formula(g, scope, depth - 1);
            scope.pos.pop();
            if choice == 8 {
                MsoFo::exists_pos(x, body)
            } else {
                MsoFo::forall_pos(x, body)
            }
        }
        10 => {
            let s = SetVar(g.below(2) as u32);
            scope.sets.push(s);
            let body = random_formula(g, scope, depth - 1);
            scope.sets.pop();
            if g.below(2) == 0 {
                MsoFo::exists_set(s, body)
            } else {
                MsoFo::forall_set(s, body)
            }
        }
        _ => {
            let u = Var::numbered("u", g.below(2) as usize);
            scope.data.push(u);
            let body = random_formula(g, scope, depth - 1);
            scope.data.pop();
            if g.below(2) == 0 {
                MsoFo::exists_data(u, body)
            } else {
                MsoFo::forall_data(u, body)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The compiled evaluator, over per-position letters, agrees with the recursive
    /// reference on random sentences — position, set and data quantifiers, negation,
    /// constants (active and never-active), shadowed binders, and open atoms whose binding
    /// is inactive at the position.
    #[test]
    fn compiled_evaluation_agrees_with_the_reference(seed in 0u64..u64::MAX, len in 1usize..6) {
        let mut g = Gen(seed);
        let run: Vec<Instance> = (0..len).map(|_| random_instance(&mut g)).collect();
        let phi = random_formula(&mut g, &mut Scope::default(), 5);
        let expected = reference::eval_sentence(&run, &phi);

        let compiled = CompiledFormula::sentence(&phi).expect("generated formulas are sentences");
        let letters: Vec<Letter> = run.iter().map(|i| compiled.letter(i)).collect();
        let letters: Vec<&Letter> = letters.iter().collect();
        prop_assert_eq!(compiled.holds(&letters), expected, "{:?}", phi);
        prop_assert_eq!(eval_sentence(&run, &phi), expected, "{:?}", phi);
    }
}

// -----------------------------------------------------------------------------------------
// explorer trace searches against a reference depth-first search
// -----------------------------------------------------------------------------------------

const DEPTH: usize = 3;

fn config(threads: usize) -> ExplorerConfig {
    ExplorerConfig {
        depth: DEPTH,
        max_configs: 1_000_000,
        threads,
        // force the work-stealing engine even on tiny searches
        parallel_threshold: 0,
        ..ExplorerConfig::default()
    }
}

/// `R` holds with `u` in its first column (other columns projected away).
fn first_column(dms: &Dms, rel: RelName, u: Var) -> Query {
    let arity = dms.schema().arity(rel).expect("declared relation");
    let rest: Vec<Var> = (1..arity).map(|i| Var::numbered("rest", i)).collect();
    let args = std::iter::once(u).chain(rest.iter().copied());
    Query::exists_many(rest.iter().copied(), Query::atom(rel, args))
}

/// Trace properties over a random DMS (relations `R0…R2`): some hold on every prefix,
/// some fail deep in the prefix tree, one quantifies a set.
fn properties(dms: &Dms) -> Vec<MsoFo> {
    let u = Var::new("u");
    let (x, y) = (PosVar(0), PosVar(1));
    let r0 = first_column(dms, r("R0"), u);
    let r1 = first_column(dms, r("R1"), u);
    vec![
        templates::invariant(Query::True),
        templates::invariant(Query::exists(u, r0.clone()).not()),
        // a value of R0 stays in R0 at every later position
        MsoFo::forall_pos(
            x,
            MsoFo::forall_data(
                u,
                MsoFo::query_at(r0.clone(), x).implies(MsoFo::forall_pos(
                    y,
                    MsoFo::Less(x, y).implies(MsoFo::query_at(r0.clone(), y)),
                )),
            ),
        ),
        // every R0 value eventually shows up in R1 — or the prefix is short
        MsoFo::forall_data(
            u,
            MsoFo::forall_pos(
                x,
                MsoFo::query_at(r0, x).implies(MsoFo::exists_pos(
                    y,
                    MsoFo::query_at(r1, y).or(MsoFo::Less(y, x).not().and(MsoFo::PosEq(x, y))),
                )),
            ),
        ),
        // some set of positions holds exactly the positions where R2 is non-empty —
        // trivially true, but it enumerates sets on every prefix
        {
            let set = SetVar(0);
            let r2 = Query::exists(u, first_column(dms, r("R2"), u));
            MsoFo::exists_set(
                set,
                MsoFo::forall_pos(
                    x,
                    MsoFo::In(x, set)
                        .implies(MsoFo::query_at(r2.clone(), x))
                        .and(MsoFo::query_at(r2, x).implies(MsoFo::In(x, set))),
                ),
            )
        },
    ]
}

/// What the reference search found: the first violating prefix (if any) and how many
/// prefixes were evaluated up to and including it.
struct Expected {
    hit: Option<ExtendedRun>,
    prefixes: usize,
}

/// The sequential explorer's order: a LIFO stack, successors pushed in order, each popped
/// prefix evaluated (with the reference) before it is expanded. `stop_after` pops at most
/// that many prefixes and returns the remaining stack too — the frontier a checkpoint
/// taken at that point would hold.
fn reference_dfs(
    sem: &RecencySemantics<'_>,
    phi: &MsoFo,
    stop_after: usize,
) -> (Expected, Vec<ExtendedRun>, usize) {
    let mut stack = vec![ExtendedRun::new(sem.dms().initial_bconfig())];
    let (mut prefixes, mut admitted) = (0, 0);
    while let Some(run) = stack.pop() {
        if prefixes == stop_after {
            stack.push(run);
            break;
        }
        prefixes += 1;
        if !reference::eval_sentence(&run.instances(), phi) {
            return (
                Expected {
                    hit: Some(run),
                    prefixes,
                },
                Vec::new(),
                admitted,
            );
        }
        if run.len() < DEPTH {
            for (step, next) in sem.successors(run.last()).expect("successors") {
                let mut child = run.clone();
                child.push(step, next);
                stack.push(child);
                admitted += 1;
            }
        }
    }
    (
        Expected {
            hit: None,
            prefixes,
        },
        stack,
        admitted,
    )
}

/// The parallel explorer's choice: the violating prefix with the least canonical path
/// (successor indices from the root), i.e. the first hit of an ascending pre-order walk.
fn least_hit(sem: &RecencySemantics<'_>, phi: &MsoFo, run: ExtendedRun) -> Option<ExtendedRun> {
    if !reference::eval_sentence(&run.instances(), phi) {
        return Some(run);
    }
    if run.len() >= DEPTH {
        return None;
    }
    sem.successors(run.last())
        .expect("successors")
        .into_iter()
        .find_map(|(step, next)| {
            let mut child = run.clone();
            child.push(step, next);
            least_hit(sem, phi, child)
        })
}

fn assert_matches(verdict: &Verdict, hit: Option<&ExtendedRun>, prefixes: Option<usize>) {
    assert_eq!(verdict.counterexample(), hit, "counterexample");
    assert_eq!(verdict.holds(), hit.is_none(), "verdict");
    if let Some(prefixes) = prefixes {
        assert_eq!(
            verdict.stats().prefixes_checked,
            prefixes,
            "prefixes_checked"
        );
    }
}

#[test]
fn explorer_trace_searches_match_the_reference_search() {
    let mut violated = 0;
    let mut held = 0;
    for seed in 0..6 {
        let dms = random_dms(&RandomDmsConfig {
            seed,
            ..Default::default()
        });
        for b in 1..=2 {
            let sem = RecencySemantics::new(&dms, b);
            for phi in properties(&dms) {
                let (expected, _, _) = reference_dfs(&sem, &phi, usize::MAX);
                match expected.hit {
                    Some(_) => violated += 1,
                    None => held += 1,
                }

                let sequential = Explorer::new(&dms, b).with_config(config(1)).check(&phi);
                assert_matches(&sequential, expected.hit.as_ref(), Some(expected.prefixes));

                // the parallel engine reports the least-path violation; how many prefixes
                // it evaluated before pruning depends on scheduling, so the count is
                // compared only when the search is exhaustive (no violation)
                let parallel = Explorer::new(&dms, b).with_config(config(2)).check(&phi);
                let least = least_hit(&sem, &phi, ExtendedRun::new(dms.initial_bconfig()));
                let exhaustive = least.is_none().then_some(expected.prefixes);
                assert_matches(&parallel, least.as_ref(), exhaustive);

                let (witness, stats) = Explorer::new(&dms, b)
                    .with_config(config(1))
                    .find_witness(&phi.clone().not());
                assert_eq!(witness, expected.hit, "find_witness of the negation");
                assert_eq!(stats.prefixes_checked, expected.prefixes);
            }
        }
    }
    assert!(violated > 5 && held > 5, "{violated} violated, {held} held");
}

#[test]
fn resumed_trace_searches_match_the_reference_search() {
    for seed in 0..4 {
        let dms = random_dms(&RandomDmsConfig {
            seed,
            ..Default::default()
        });
        let sem = RecencySemantics::new(&dms, 2);
        for phi in properties(&dms) {
            let (expected, _, _) = reference_dfs(&sem, &phi, usize::MAX);

            // an explorer-made checkpoint: cut before the first expansion
            let fired = CancelToken::new();
            fired.cancel();
            let policy = CheckpointPolicy::on_stop();
            Explorer::new(&dms, 2)
                .with_config(config(1).with_cancel(fired).with_checkpoint(policy.clone()))
                .check(&phi);
            let checkpoint = policy.take().expect("stop snapshot");
            let resumed = Explorer::new(&dms, 2).with_config(config(1)).check_from(
                &phi,
                SearchCheckpoint::from_json(&checkpoint.to_json()).unwrap(),
            );
            assert_matches(&resumed, expected.hit.as_ref(), Some(expected.prefixes));

            // mid-search cuts: the frontier holds deep prefixes whose letters were never
            // computed in the resuming process
            for cut in [1, 3, 7] {
                if cut >= expected.prefixes {
                    continue;
                }
                let (_, frontier, admitted) = reference_dfs(&sem, &phi, cut);
                let checkpoint = SearchCheckpoint {
                    bound: 2,
                    depth: DEPTH,
                    dedup: false,
                    seen: Vec::new(),
                    peak_frontier: frontier.len(),
                    frontier,
                    prefixes_checked: cut,
                    configs_explored: admitted,
                    configs_deduplicated: 0,
                    mem_used: 0,
                    depth_cutoff: false,
                };
                let json = checkpoint.to_json();
                let resumed = Explorer::new(&dms, 2)
                    .with_config(config(1))
                    .check_from(&phi, SearchCheckpoint::from_json(&json).unwrap());
                assert_matches(&resumed, expected.hit.as_ref(), Some(expected.prefixes));
            }
        }
    }
}
