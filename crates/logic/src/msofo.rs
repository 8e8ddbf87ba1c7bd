//! MSO-FO: monadic second-order logic over runs with FOL(R) queries as atoms (Section 4 and
//! Appendix B of the paper).

use rdms_db::{answers_within, eval as query_eval, DataValue, Instance, Query, Substitution, Var};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A first-order **position** variable (`x, y, …` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PosVar(pub u32);

/// A second-order **set-of-positions** variable (`X, Y, …`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SetVar(pub u32);

impl fmt::Debug for PosVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Debug for SetVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// An MSO-FO formula.
///
/// ```text
/// φ ::= Q@x | x < y | x ∈ X | ¬φ | φ ∧ φ | ∃x.φ | ∃X.φ | ∃g u.φ
/// ```
///
/// As for the other logics in this workspace, `∨`, `∀` and `∀g` are kept as first-class
/// constructors.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsoFo {
    /// The constant true.
    True,
    /// `Q@x`: the FOL(R) query `Q` holds in the database instance at position `x`. Free data
    /// variables of `Q` refer to enclosing `∃g`/`∀g` binders (or to the ambient data
    /// assignment).
    QueryAt(Query, PosVar),
    /// `x < y`.
    Less(PosVar, PosVar),
    /// `x = y`.
    PosEq(PosVar, PosVar),
    /// `x ∈ X`.
    In(PosVar, SetVar),
    /// Negation.
    Not(Box<MsoFo>),
    /// Conjunction.
    And(Box<MsoFo>, Box<MsoFo>),
    /// Disjunction.
    Or(Box<MsoFo>, Box<MsoFo>),
    /// `∃x.φ`.
    ExistsPos(PosVar, Box<MsoFo>),
    /// `∀x.φ`.
    ForallPos(PosVar, Box<MsoFo>),
    /// `∃X.φ`.
    ExistsSet(SetVar, Box<MsoFo>),
    /// `∀X.φ`.
    ForallSet(SetVar, Box<MsoFo>),
    /// `∃g u.φ`: there is a data value in the *global* active domain of the run.
    ExistsData(Var, Box<MsoFo>),
    /// `∀g u.φ`.
    ForallData(Var, Box<MsoFo>),
}

impl MsoFo {
    /// The constant false.
    pub fn false_() -> MsoFo {
        MsoFo::True.not()
    }

    /// `Q@x`.
    pub fn query_at(query: Query, x: PosVar) -> MsoFo {
        MsoFo::QueryAt(query, x)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> MsoFo {
        MsoFo::Not(Box::new(self))
    }

    /// Conjunction.
    pub fn and(self, other: MsoFo) -> MsoFo {
        MsoFo::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: MsoFo) -> MsoFo {
        MsoFo::Or(Box::new(self), Box::new(other))
    }

    /// Implication.
    pub fn implies(self, other: MsoFo) -> MsoFo {
        self.not().or(other)
    }

    /// `∃x.φ`.
    pub fn exists_pos(x: PosVar, body: MsoFo) -> MsoFo {
        MsoFo::ExistsPos(x, Box::new(body))
    }

    /// `∀x.φ`.
    pub fn forall_pos(x: PosVar, body: MsoFo) -> MsoFo {
        MsoFo::ForallPos(x, Box::new(body))
    }

    /// `∃X.φ`.
    pub fn exists_set(x: SetVar, body: MsoFo) -> MsoFo {
        MsoFo::ExistsSet(x, Box::new(body))
    }

    /// `∀X.φ`.
    pub fn forall_set(x: SetVar, body: MsoFo) -> MsoFo {
        MsoFo::ForallSet(x, Box::new(body))
    }

    /// `∃g u.φ`.
    pub fn exists_data(u: Var, body: MsoFo) -> MsoFo {
        MsoFo::ExistsData(u, Box::new(body))
    }

    /// `∀g u.φ`.
    pub fn forall_data(u: Var, body: MsoFo) -> MsoFo {
        MsoFo::ForallData(u, Box::new(body))
    }

    /// Conjunction of many formulae.
    pub fn conj<I: IntoIterator<Item = MsoFo>>(items: I) -> MsoFo {
        let mut iter = items.into_iter();
        match iter.next() {
            None => MsoFo::True,
            Some(first) => iter.fold(first, MsoFo::and),
        }
    }

    /// Disjunction of many formulae.
    pub fn disj<I: IntoIterator<Item = MsoFo>>(items: I) -> MsoFo {
        let mut iter = items.into_iter();
        match iter.next() {
            None => MsoFo::false_(),
            Some(first) => iter.fold(first, MsoFo::or),
        }
    }

    /// The free position variables.
    pub fn free_pos_vars(&self) -> BTreeSet<PosVar> {
        let mut free = BTreeSet::new();
        self.walk_free(
            &mut BTreeSet::new(),
            &mut BTreeSet::new(),
            &mut BTreeSet::new(),
            &mut |v, bound| {
                if let FreeOccurrence::Pos(x) = v {
                    if !bound {
                        free.insert(x);
                    }
                }
            },
        );
        free
    }

    /// The free set variables.
    pub fn free_set_vars(&self) -> BTreeSet<SetVar> {
        let mut free = BTreeSet::new();
        self.walk_free(
            &mut BTreeSet::new(),
            &mut BTreeSet::new(),
            &mut BTreeSet::new(),
            &mut |v, bound| {
                if let FreeOccurrence::Set(x) = v {
                    if !bound {
                        free.insert(x);
                    }
                }
            },
        );
        free
    }

    /// The free data variables (data variables of embedded queries not bound by `∃g`/`∀g`).
    pub fn free_data_vars(&self) -> BTreeSet<Var> {
        let mut free = BTreeSet::new();
        self.walk_free(
            &mut BTreeSet::new(),
            &mut BTreeSet::new(),
            &mut BTreeSet::new(),
            &mut |v, bound| {
                if let FreeOccurrence::Data(x) = v {
                    if !bound {
                        free.insert(x);
                    }
                }
            },
        );
        free
    }

    /// Whether the formula is a sentence.
    pub fn is_sentence(&self) -> bool {
        self.free_pos_vars().is_empty()
            && self.free_set_vars().is_empty()
            && self.free_data_vars().is_empty()
    }

    /// Whether the formula is first-order (contains no set quantifier and no set atom) —
    /// the FO-LTL-expressible fragment handled natively by the explorer engine.
    pub fn is_first_order(&self) -> bool {
        match self {
            MsoFo::In(..) | MsoFo::ExistsSet(..) | MsoFo::ForallSet(..) => false,
            MsoFo::True | MsoFo::QueryAt(..) | MsoFo::Less(..) | MsoFo::PosEq(..) => true,
            MsoFo::Not(p)
            | MsoFo::ExistsPos(_, p)
            | MsoFo::ForallPos(_, p)
            | MsoFo::ExistsData(_, p)
            | MsoFo::ForallData(_, p) => p.is_first_order(),
            MsoFo::And(a, b) | MsoFo::Or(a, b) => a.is_first_order() && b.is_first_order(),
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            MsoFo::True | MsoFo::Less(..) | MsoFo::PosEq(..) | MsoFo::In(..) => 1,
            MsoFo::QueryAt(q, _) => 1 + q.size(),
            MsoFo::Not(p)
            | MsoFo::ExistsPos(_, p)
            | MsoFo::ForallPos(_, p)
            | MsoFo::ExistsSet(_, p)
            | MsoFo::ForallSet(_, p)
            | MsoFo::ExistsData(_, p)
            | MsoFo::ForallData(_, p) => 1 + p.size(),
            MsoFo::And(a, b) | MsoFo::Or(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// The number of data variables appearing in the formula (the parameter `n` in the
    /// paper's complexity statement of Section 6.6).
    pub fn num_data_vars(&self) -> usize {
        let mut vars: BTreeSet<Var> = BTreeSet::new();
        self.visit(&mut |f| {
            if let MsoFo::QueryAt(q, _) = f {
                vars.extend(q.all_vars());
            }
            if let MsoFo::ExistsData(u, _) | MsoFo::ForallData(u, _) = f {
                vars.insert(*u);
            }
        });
        vars.len()
    }

    /// Visit every subformula (pre-order).
    pub fn visit<F: FnMut(&MsoFo)>(&self, f: &mut F) {
        f(self);
        match self {
            MsoFo::True
            | MsoFo::QueryAt(..)
            | MsoFo::Less(..)
            | MsoFo::PosEq(..)
            | MsoFo::In(..) => {}
            MsoFo::Not(p)
            | MsoFo::ExistsPos(_, p)
            | MsoFo::ForallPos(_, p)
            | MsoFo::ExistsSet(_, p)
            | MsoFo::ForallSet(_, p)
            | MsoFo::ExistsData(_, p)
            | MsoFo::ForallData(_, p) => p.visit(f),
            MsoFo::And(a, b) | MsoFo::Or(a, b) => {
                a.visit(f);
                b.visit(f);
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn walk_free(
        &self,
        bound_pos: &mut BTreeSet<PosVar>,
        bound_set: &mut BTreeSet<SetVar>,
        bound_data: &mut BTreeSet<Var>,
        report: &mut impl FnMut(FreeOccurrence, bool),
    ) {
        match self {
            MsoFo::True => {}
            MsoFo::QueryAt(q, x) => {
                report(FreeOccurrence::Pos(*x), bound_pos.contains(x));
                for u in q.free_vars() {
                    report(FreeOccurrence::Data(u), bound_data.contains(&u));
                }
            }
            MsoFo::Less(x, y) | MsoFo::PosEq(x, y) => {
                report(FreeOccurrence::Pos(*x), bound_pos.contains(x));
                report(FreeOccurrence::Pos(*y), bound_pos.contains(y));
            }
            MsoFo::In(x, set) => {
                report(FreeOccurrence::Pos(*x), bound_pos.contains(x));
                report(FreeOccurrence::Set(*set), bound_set.contains(set));
            }
            MsoFo::Not(p) => p.walk_free(bound_pos, bound_set, bound_data, report),
            MsoFo::And(a, b) | MsoFo::Or(a, b) => {
                a.walk_free(bound_pos, bound_set, bound_data, report);
                b.walk_free(bound_pos, bound_set, bound_data, report);
            }
            MsoFo::ExistsPos(x, p) | MsoFo::ForallPos(x, p) => {
                let newly = bound_pos.insert(*x);
                p.walk_free(bound_pos, bound_set, bound_data, report);
                if newly {
                    bound_pos.remove(x);
                }
            }
            MsoFo::ExistsSet(x, p) | MsoFo::ForallSet(x, p) => {
                let newly = bound_set.insert(*x);
                p.walk_free(bound_pos, bound_set, bound_data, report);
                if newly {
                    bound_set.remove(x);
                }
            }
            MsoFo::ExistsData(u, p) | MsoFo::ForallData(u, p) => {
                let newly = bound_data.insert(*u);
                p.walk_free(bound_pos, bound_set, bound_data, report);
                if newly {
                    bound_data.remove(u);
                }
            }
        }
    }
}

enum FreeOccurrence {
    Pos(PosVar),
    Set(SetVar),
    Data(Var),
}

impl fmt::Debug for MsoFo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsoFo::True => write!(f, "true"),
            MsoFo::QueryAt(q, x) => write!(f, "({q})@{x:?}"),
            MsoFo::Less(x, y) => write!(f, "{x:?} < {y:?}"),
            MsoFo::PosEq(x, y) => write!(f, "{x:?} = {y:?}"),
            MsoFo::In(x, s) => write!(f, "{x:?} ∈ {s:?}"),
            MsoFo::Not(p) => write!(f, "¬({p:?})"),
            MsoFo::And(a, b) => write!(f, "({a:?} ∧ {b:?})"),
            MsoFo::Or(a, b) => write!(f, "({a:?} ∨ {b:?})"),
            MsoFo::ExistsPos(x, p) => write!(f, "∃{x:?}.({p:?})"),
            MsoFo::ForallPos(x, p) => write!(f, "∀{x:?}.({p:?})"),
            MsoFo::ExistsSet(x, p) => write!(f, "∃{x:?}.({p:?})"),
            MsoFo::ForallSet(x, p) => write!(f, "∀{x:?}.({p:?})"),
            MsoFo::ExistsData(u, p) => write!(f, "∃g {u}.({p:?})"),
            MsoFo::ForallData(u, p) => write!(f, "∀g {u}.({p:?})"),
        }
    }
}

/// An assignment of the free variables of an MSO-FO formula over a (finite prefix of a) run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunAssignment {
    /// Position variables.
    pub pos: BTreeMap<PosVar, usize>,
    /// Set variables.
    pub sets: BTreeMap<SetVar, BTreeSet<usize>>,
    /// Data variables.
    pub data: Substitution,
}

impl RunAssignment {
    /// The empty assignment.
    pub fn new() -> RunAssignment {
        RunAssignment::default()
    }
}

/// Evaluate an MSO-FO formula over a **finite run prefix** `ρ = I₀ … I_{n−1}` under an
/// assignment (Appendix B semantics, with positions ranging over the prefix).
///
/// The paper's runs are infinite; every verification engine in this workspace works with
/// finite prefixes of a user-chosen depth (the README's "Trace properties" section discusses
/// this substitution), so this evaluator is the reference semantics for those engines.
///
/// Note the Appendix B proviso on `Q@x`: the data substitution must land inside `adom(I_x)`;
/// values outside make the atom false rather than erroneous.
///
/// This compiles the formula and computes one [`Letter`] per instance; engines that
/// evaluate one formula on many prefixes sharing positions use [`CompiledFormula`] directly
/// and reuse the letters.
///
/// # Panics
///
/// When a free position or set variable of the formula is not assigned, when an assigned
/// set holds a position of 64 or more, or when a set quantifier ranges over more than 20
/// positions (see [`CompiledFormula::holds_under`]).
pub fn eval(run: &[Instance], assignment: &RunAssignment, formula: &MsoFo) -> bool {
    let compiled = CompiledFormula::new(formula);
    let letters: Vec<Letter> = run
        .iter()
        .map(|instance| compiled.letter(instance))
        .collect();
    let letters: Vec<&Letter> = letters.iter().collect();
    compiled.holds_under(&letters, assignment)
}

/// Evaluate a sentence over a finite run prefix.
pub fn eval_sentence(run: &[Instance], formula: &MsoFo) -> bool {
    eval(run, &RunAssignment::new(), formula)
}

/// The global active domain `Gadom(ρ)` of a run prefix.
pub fn global_adom(run: &[Instance]) -> BTreeSet<rdms_db::DataValue> {
    run.iter().flat_map(|i| i.active_domain()).collect()
}

/// Largest prefix over which a set quantifier is enumerated (`2^n` candidate sets).
const MAX_SET_POSITIONS: usize = 20;

/// A formula that was required to be a sentence has free position or set variables.
/// (Free data variables are allowed: unbound, they make their atoms false.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotASentence {
    /// The free position variables.
    pub pos: Vec<PosVar>,
    /// The free set variables.
    pub sets: Vec<SetVar>,
}

impl fmt::Display for NotASentence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "the MSO-FO property is not a sentence: free")?;
        let names = self
            .pos
            .iter()
            .map(|x| format!("{x:?}"))
            .chain(self.sets.iter().map(|s| format!("{s:?}")));
        for (i, name) in names.enumerate() {
            write!(f, "{}{name}", if i == 0 { " " } else { ", " })?;
        }
        Ok(())
    }
}

impl std::error::Error for NotASentence {}

/// An MSO-FO formula compiled for evaluation over **letters**.
///
/// The paper reads a run as a word: `Q@x` looks at instance `x` alone, so everything a
/// formula asks of one position can be computed once, from that position's instance, into
/// a [`Letter`]. Compilation numbers the distinct FOL(R) atoms and moves every variable
/// into a slot (positions as indices, sets as `u64` bitmasks, data values as options), so
/// evaluating the formula over a prefix is a walk over slots and letter bits. An engine
/// that evaluates one formula on many prefixes sharing their positions — the explorer's
/// prefix tree — computes each position's letter once and shares it.
#[derive(Clone, Debug)]
pub struct CompiledFormula {
    root: Node,
    atoms: Vec<Atom>,
    pos_slots: Vec<PosVar>,
    set_slots: Vec<SetVar>,
    data_slots: Vec<Var>,
    free_pos: Vec<PosVar>,
    free_sets: Vec<SetVar>,
    /// Some atom has free data variables or the formula quantifies data: letters then
    /// carry `adom(I_x)` (for the Appendix B proviso and for `Gadom`).
    needs_adom: bool,
    quantifies_data: bool,
}

/// One distinct FOL(R) query occurring under `@`.
#[derive(Clone, Debug)]
struct Atom {
    query: Query,
    /// Free data variables of the query, sorted: the column order of the answer table.
    vars: Vec<Var>,
    /// The data slot of each of `vars`.
    slots: Vec<usize>,
    /// Constants of the query (see [`CompiledFormula::letter`]).
    constants: BTreeSet<DataValue>,
}

/// The compiled formula tree; variables are slot indices.
#[derive(Clone, Debug)]
enum Node {
    True,
    QueryAt { atom: usize, pos: usize },
    Less(usize, usize),
    PosEq(usize, usize),
    In(usize, usize),
    Not(Box<Node>),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    ExistsPos(usize, Box<Node>),
    ForallPos(usize, Box<Node>),
    ExistsSet(usize, Box<Node>),
    ForallSet(usize, Box<Node>),
    ExistsData(usize, Box<Node>),
    ForallData(usize, Box<Node>),
}

/// What one run position contributes to a [`CompiledFormula`]'s evaluation: the truth of
/// every atom at that position, computed once from the position's instance.
///
/// A letter belongs to the formula that computed it (atoms are indexed per formula).
#[derive(Clone, Debug)]
pub struct Letter {
    /// `adom(I_x)`, sorted (empty when the formula never needs it).
    adom: Vec<DataValue>,
    atoms: Vec<AtomValue>,
    /// The instance, kept only when some atom is [`AtomValue::PerBinding`].
    instance: Option<Instance>,
}

#[derive(Clone, Debug)]
enum AtomValue {
    /// A query without free data variables: one bit.
    Closed(bool),
    /// The answers of a query with free data variables over `adom(I_x)`: rows of the
    /// atom's `vars` columns, flattened and sorted.
    Table(Vec<DataValue>),
    /// The answer table could not be built exactly: evaluate per binding.
    PerBinding,
}

impl CompiledFormula {
    /// Compile any formula. Free variables are read from the assignment passed to
    /// [`holds_under`](Self::holds_under).
    pub fn new(formula: &MsoFo) -> CompiledFormula {
        let mut compiler = Compiler::default();
        let root = compiler.compile(formula);
        let quantifies_data = compiler.quantifies_data;
        let needs_adom = quantifies_data || compiler.atoms.iter().any(|a| !a.vars.is_empty());
        CompiledFormula {
            root,
            atoms: compiler.atoms,
            pos_slots: compiler.pos.into_iter().collect(),
            set_slots: compiler.sets.into_iter().collect(),
            data_slots: compiler.data.into_iter().collect(),
            free_pos: formula.free_pos_vars().into_iter().collect(),
            free_sets: formula.free_set_vars().into_iter().collect(),
            needs_adom,
            quantifies_data,
        }
    }

    /// Compile a sentence: a formula with no free position or set variable (free data
    /// variables stay allowed — unbound, their atoms are false). The error names the free
    /// variables.
    pub fn sentence(formula: &MsoFo) -> Result<CompiledFormula, NotASentence> {
        let compiled = CompiledFormula::new(formula);
        if compiled.free_pos.is_empty() && compiled.free_sets.is_empty() {
            Ok(compiled)
        } else {
            Err(NotASentence {
                pos: compiled.free_pos,
                sets: compiled.free_sets,
            })
        }
    }

    /// The letter of one position: every atom evaluated on `instance`, with `adom(I_x)`
    /// computed once and shared by the atoms.
    ///
    /// A closed atom is one bit from [`rdms_db::eval::holds`]. An open atom is its answer
    /// table from [`answers_within`], whose universe is `adom(I_x)` extended with the
    /// query's constants — so the table is used only when those constants are active at
    /// `x` (then it agrees with `holds` binding by binding, which the reference semantics
    /// uses). Otherwise, or when the answers cannot be enumerated (e.g.
    /// [`rdms_db::DbError::AnswerSpaceOverflow`]), the atom is evaluated per binding.
    pub fn letter(&self, instance: &Instance) -> Letter {
        let adom = if self.needs_adom {
            instance.active_domain()
        } else {
            BTreeSet::new()
        };
        let mut per_binding = false;
        let atoms = self
            .atoms
            .iter()
            .map(|atom| {
                if atom.vars.is_empty() {
                    return AtomValue::Closed(
                        query_eval::holds(instance, &Substitution::empty(), &atom.query)
                            .unwrap_or(false),
                    );
                }
                if atom.constants.is_subset(&adom) {
                    if let Ok(answers) = answers_within(instance, &adom, &atom.query) {
                        return AtomValue::Table(answer_table(&atom.vars, &answers));
                    }
                }
                per_binding = true;
                AtomValue::PerBinding
            })
            .collect();
        Letter {
            adom: adom.into_iter().collect(),
            atoms,
            instance: per_binding.then(|| instance.clone()),
        }
    }

    /// Evaluate the sentence over the prefix whose positions have these letters.
    ///
    /// # Panics
    ///
    /// As [`holds_under`](Self::holds_under) with the empty assignment (in particular when
    /// the formula has a free position or set variable).
    pub fn holds(&self, letters: &[&Letter]) -> bool {
        self.holds_under(letters, &RunAssignment::new())
    }

    /// Evaluate the formula over the prefix whose positions have these letters, reading
    /// free variables from `assignment`.
    ///
    /// # Panics
    ///
    /// When a free position or set variable is not assigned, when an assigned set holds a
    /// position of 64 or more (set values are bitmasks), or when a set quantifier would
    /// enumerate the subsets of more than 20 positions.
    pub fn holds_under(&self, letters: &[&Letter], assignment: &RunAssignment) -> bool {
        let mut evaluator = Evaluator {
            letters,
            atoms: &self.atoms,
            pos: vec![usize::MAX; self.pos_slots.len()],
            sets: vec![0; self.set_slots.len()],
            data: self
                .data_slots
                .iter()
                .map(|&u| assignment.data.get(u))
                .collect(),
            gadom: Vec::new(),
            key: Vec::new(),
        };
        for x in &self.free_pos {
            let slot = slot_of(&self.pos_slots, x);
            evaluator.pos[slot] = *assignment
                .pos
                .get(x)
                .unwrap_or_else(|| panic!("free position variable {x:?} is not assigned"));
        }
        for set in &self.free_sets {
            let slot = slot_of(&self.set_slots, set);
            let members = assignment
                .sets
                .get(set)
                .unwrap_or_else(|| panic!("free set variable {set:?} is not assigned"));
            evaluator.sets[slot] = members.iter().fold(0u64, |mask, &i| {
                assert!(i < 64, "set variable {set:?} holds position {i}; sets are limited to positions below 64");
                mask | 1 << i
            });
        }
        if self.quantifies_data {
            let gadom: BTreeSet<DataValue> = letters
                .iter()
                .flat_map(|letter| letter.adom.iter().copied())
                .collect();
            evaluator.gadom = gadom.into_iter().collect();
        }
        evaluator.eval(&self.root)
    }
}

fn slot_of<T: Ord>(slots: &[T], var: &T) -> usize {
    slots.binary_search(var).expect("every variable has a slot")
}

/// Lower answer substitutions to flat rows over `vars`, sorted and deduplicated.
fn answer_table(vars: &[Var], answers: &[Substitution]) -> Vec<DataValue> {
    let row = |sub: &Substitution| -> Vec<DataValue> {
        vars.iter()
            .map(|&u| sub.get(u).expect("answers bind every free variable"))
            .collect()
    };
    let mut rows: Vec<Vec<DataValue>> = answers.iter().map(row).collect();
    rows.sort_unstable();
    rows.dedup();
    rows.concat()
}

/// Whether the flat sorted `table` of `arity`-wide rows contains `key`.
fn table_contains(table: &[DataValue], arity: usize, key: &[DataValue]) -> bool {
    let (mut lo, mut hi) = (0, table.len() / arity);
    while lo < hi {
        let mid = (lo + hi) / 2;
        match table[mid * arity..(mid + 1) * arity].cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Compilation state: the variables seen so far (their sorted position is their slot) and
/// the distinct atoms.
#[derive(Default)]
struct Compiler {
    pos: BTreeSet<PosVar>,
    sets: BTreeSet<SetVar>,
    data: BTreeSet<Var>,
    quantifies_data: bool,
    atoms: Vec<Atom>,
}

impl Compiler {
    /// Collect every variable first (so slots are final), then lower the tree.
    fn compile(&mut self, formula: &MsoFo) -> Node {
        formula.visit(&mut |f| match f {
            MsoFo::QueryAt(q, x) => {
                self.pos.insert(*x);
                self.data.extend(q.free_vars());
            }
            MsoFo::Less(x, y) | MsoFo::PosEq(x, y) => {
                self.pos.insert(*x);
                self.pos.insert(*y);
            }
            MsoFo::In(x, set) => {
                self.pos.insert(*x);
                self.sets.insert(*set);
            }
            MsoFo::ExistsPos(x, _) | MsoFo::ForallPos(x, _) => {
                self.pos.insert(*x);
            }
            MsoFo::ExistsSet(set, _) | MsoFo::ForallSet(set, _) => {
                self.sets.insert(*set);
            }
            MsoFo::ExistsData(u, _) | MsoFo::ForallData(u, _) => {
                self.data.insert(*u);
                self.quantifies_data = true;
            }
            _ => {}
        });
        self.lower(formula)
    }

    fn pos_slot(&self, x: &PosVar) -> usize {
        self.pos.iter().position(|y| y == x).expect("collected")
    }

    fn set_slot(&self, set: &SetVar) -> usize {
        self.sets.iter().position(|y| y == set).expect("collected")
    }

    fn data_slot(&self, u: &Var) -> usize {
        self.data.iter().position(|v| v == u).expect("collected")
    }

    fn atom(&mut self, query: &Query) -> usize {
        if let Some(i) = self.atoms.iter().position(|a| a.query == *query) {
            return i;
        }
        let vars: Vec<Var> = query.free_vars().into_iter().collect();
        let slots = vars.iter().map(|u| self.data_slot(u)).collect();
        self.atoms.push(Atom {
            query: query.clone(),
            vars,
            slots,
            constants: query.constants(),
        });
        self.atoms.len() - 1
    }

    fn lower(&mut self, formula: &MsoFo) -> Node {
        let sub = |this: &mut Self, p: &MsoFo| Box::new(this.lower(p));
        match formula {
            MsoFo::True => Node::True,
            MsoFo::QueryAt(q, x) => Node::QueryAt {
                atom: self.atom(q),
                pos: self.pos_slot(x),
            },
            MsoFo::Less(x, y) => Node::Less(self.pos_slot(x), self.pos_slot(y)),
            MsoFo::PosEq(x, y) => Node::PosEq(self.pos_slot(x), self.pos_slot(y)),
            MsoFo::In(x, set) => Node::In(self.pos_slot(x), self.set_slot(set)),
            MsoFo::Not(p) => Node::Not(sub(self, p)),
            MsoFo::And(a, b) => Node::And(sub(self, a), sub(self, b)),
            MsoFo::Or(a, b) => Node::Or(sub(self, a), sub(self, b)),
            MsoFo::ExistsPos(x, p) => Node::ExistsPos(self.pos_slot(x), sub(self, p)),
            MsoFo::ForallPos(x, p) => Node::ForallPos(self.pos_slot(x), sub(self, p)),
            MsoFo::ExistsSet(s, p) => Node::ExistsSet(self.set_slot(s), sub(self, p)),
            MsoFo::ForallSet(s, p) => Node::ForallSet(self.set_slot(s), sub(self, p)),
            MsoFo::ExistsData(u, p) => Node::ExistsData(self.data_slot(u), sub(self, p)),
            MsoFo::ForallData(u, p) => Node::ForallData(self.data_slot(u), sub(self, p)),
        }
    }
}

/// One evaluation: the slot values, `Gadom` (computed once) and a scratch key buffer.
struct Evaluator<'a> {
    letters: &'a [&'a Letter],
    atoms: &'a [Atom],
    pos: Vec<usize>,
    sets: Vec<u64>,
    data: Vec<Option<DataValue>>,
    gadom: Vec<DataValue>,
    key: Vec<DataValue>,
}

impl Evaluator<'_> {
    fn eval(&mut self, node: &Node) -> bool {
        match node {
            Node::True => true,
            Node::QueryAt { atom, pos } => self.query_at(*atom, self.pos[*pos]),
            Node::Less(x, y) => self.pos[*x] < self.pos[*y],
            Node::PosEq(x, y) => self.pos[*x] == self.pos[*y],
            Node::In(x, set) => {
                let i = self.pos[*x];
                i < 64 && self.sets[*set] >> i & 1 == 1
            }
            Node::Not(p) => !self.eval(p),
            Node::And(a, b) => self.eval(a) && self.eval(b),
            Node::Or(a, b) => self.eval(a) || self.eval(b),
            Node::ExistsPos(x, p) => self.over_positions(*x, p, true),
            Node::ForallPos(x, p) => !self.over_positions(*x, p, false),
            Node::ExistsSet(s, p) => self.over_sets(*s, p, true),
            Node::ForallSet(s, p) => !self.over_sets(*s, p, false),
            Node::ExistsData(u, p) => self.over_gadom(*u, p, true),
            Node::ForallData(u, p) => !self.over_gadom(*u, p, false),
        }
    }

    /// Whether `body` evaluates to `target` for some position bound to `slot` (∃ with
    /// `target = true`; ∀ is the negation of the search for a `false`).
    fn over_positions(&mut self, slot: usize, body: &Node, target: bool) -> bool {
        let saved = self.pos[slot];
        let mut found = false;
        for i in 0..self.letters.len() {
            self.pos[slot] = i;
            if self.eval(body) == target {
                found = true;
                break;
            }
        }
        self.pos[slot] = saved;
        found
    }

    fn over_sets(&mut self, slot: usize, body: &Node, target: bool) -> bool {
        let n = self.letters.len();
        assert!(
            n <= MAX_SET_POSITIONS,
            "second-order enumeration over {n} positions is infeasible; restrict to the FO fragment"
        );
        let saved = self.sets[slot];
        let mut found = false;
        for mask in 0u64..(1u64 << n) {
            self.sets[slot] = mask;
            if self.eval(body) == target {
                found = true;
                break;
            }
        }
        self.sets[slot] = saved;
        found
    }

    fn over_gadom(&mut self, slot: usize, body: &Node, target: bool) -> bool {
        let saved = self.data[slot];
        let mut found = false;
        for i in 0..self.gadom.len() {
            self.data[slot] = Some(self.gadom[i]);
            if self.eval(body) == target {
                found = true;
                break;
            }
        }
        self.data[slot] = saved;
        found
    }

    /// `Q@x`: the atom's bit, or — for an open atom — whether the binding of its free
    /// variables is active at `x` (the Appendix B proviso) and is an answer there.
    fn query_at(&mut self, atom: usize, x: usize) -> bool {
        let letter = self.letters[x];
        let spec = &self.atoms[atom];
        if let AtomValue::Closed(bit) = letter.atoms[atom] {
            return bit;
        }
        self.key.clear();
        for &slot in &spec.slots {
            match self.data[slot] {
                Some(value) if letter.adom.binary_search(&value).is_ok() => self.key.push(value),
                _ => return false,
            }
        }
        match &letter.atoms[atom] {
            AtomValue::Table(table) => table_contains(table, spec.vars.len(), &self.key),
            _ => {
                let binding = Substitution::from_pairs(
                    spec.vars.iter().copied().zip(self.key.iter().copied()),
                );
                let instance = letter
                    .instance
                    .as_ref()
                    .expect("a letter with per-binding atoms keeps its instance");
                query_eval::holds(instance, &binding, &spec.query).unwrap_or(false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_db::{DataValue, RelName};

    fn r(name: &str) -> RelName {
        RelName::new(name)
    }
    fn v(name: &str) -> Var {
        Var::new(name)
    }
    fn e(i: u64) -> DataValue {
        DataValue::e(i)
    }
    fn x(i: u32) -> PosVar {
        PosVar(i)
    }

    /// A little three-instance run: p holds at positions 0 and 2; e1 is enrolled at 0 and
    /// graduated at 2; e2 is enrolled at 1 and never graduates.
    fn student_run() -> Vec<Instance> {
        let i0 = Instance::from_facts([(r("p"), vec![]), (r("Enrolled"), vec![e(1)])]);
        let i1 = Instance::from_facts([(r("Enrolled"), vec![e(1)]), (r("Enrolled"), vec![e(2)])]);
        let i2 = Instance::from_facts([
            (r("p"), vec![]),
            (r("Graduated"), vec![e(1)]),
            (r("Enrolled"), vec![e(2)]),
        ]);
        vec![i0, i1, i2]
    }

    #[test]
    fn query_at_and_order() {
        let run = student_run();
        let phi = MsoFo::query_at(Query::prop(r("p")), x(0));
        let a0 = RunAssignment {
            pos: BTreeMap::from([(x(0), 0)]),
            ..Default::default()
        };
        let a1 = RunAssignment {
            pos: BTreeMap::from([(x(0), 1)]),
            ..Default::default()
        };
        assert!(eval(&run, &a0, &phi));
        assert!(!eval(&run, &a1, &phi));

        let reach = MsoFo::exists_pos(x(0), MsoFo::query_at(Query::prop(r("p")), x(0)));
        assert!(eval_sentence(&run, &reach));
        let invariant = MsoFo::forall_pos(x(0), MsoFo::query_at(Query::prop(r("p")), x(0)));
        assert!(!eval_sentence(&run, &invariant));
    }

    #[test]
    fn introduction_student_example() {
        // ∀x ∀g u. Enrolled(u)@x ⇒ ∃y. y > x ∧ Graduated(u)@y
        let run = student_run();
        let u = v("u");
        let phi = MsoFo::forall_pos(
            x(0),
            MsoFo::forall_data(
                u,
                MsoFo::query_at(Query::atom(r("Enrolled"), [u]), x(0)).implies(MsoFo::exists_pos(
                    x(1),
                    MsoFo::Less(x(0), x(1))
                        .and(MsoFo::query_at(Query::atom(r("Graduated"), [u]), x(1))),
                )),
            ),
        );
        // e2 enrolls but never graduates in this prefix: the property fails
        assert!(!eval_sentence(&run, &phi));

        // restricted to student e1 only, it holds
        let phi_e1 = MsoFo::forall_pos(
            x(0),
            MsoFo::query_at(
                Query::atom(r("Enrolled"), [rdms_db::Term::Value(e(1))]),
                x(0),
            )
            .implies(MsoFo::exists_pos(
                x(1),
                MsoFo::Less(x(0), x(1)).and(MsoFo::query_at(
                    Query::atom(r("Graduated"), [rdms_db::Term::Value(e(1))]),
                    x(1),
                )),
            )),
        );
        // note: constant-valued queries are allowed here because evaluation only requires the
        // *free variables* of Q to be active.
        assert!(eval_sentence(&run, &phi_e1));
    }

    #[test]
    fn global_quantification_ranges_over_gadom() {
        let run = student_run();
        assert_eq!(global_adom(&run), BTreeSet::from([e(1), e(2)]));
        // ∃g u. Graduated(u)@2 — true via e1 even though e1 ∉ adom(I₁)
        let u = v("u");
        let phi = MsoFo::exists_data(
            u,
            MsoFo::exists_pos(
                x(0),
                MsoFo::query_at(Query::atom(r("Graduated"), [u]), x(0)),
            ),
        );
        assert!(eval_sentence(&run, &phi));
    }

    #[test]
    fn query_at_requires_active_values() {
        // Appendix B: the data substitution must land in adom(I_x). e1 is not active at
        // position 1, so Enrolled(e1)@1 is false even though the value exists globally.
        let run = student_run();
        let u = v("u");
        let a = RunAssignment {
            pos: BTreeMap::from([(x(0), 1)]),
            data: Substitution::from_pairs([(u, e(1))]),
            ..Default::default()
        };
        // Enrolled(u) with u ↦ e1 is syntactically in I₁ — but wait, Enrolled(e1) *is* in I₁.
        // Use Graduated instead: Graduated(u)@1 with u ↦ e1: e1 is active at 1 (Enrolled(e1)),
        // but Graduated(e1) ∉ I₁ → false by query evaluation.
        assert!(!eval(
            &run,
            &a,
            &MsoFo::query_at(Query::atom(r("Graduated"), [u]), x(0))
        ));
        // and at a position where the value is not active at all, the atom is false outright
        let run2 = vec![
            Instance::from_facts([(r("Enrolled"), vec![e(5)])]),
            Instance::from_facts([(r("Other"), vec![e(6)])]),
        ];
        let a2 = RunAssignment {
            pos: BTreeMap::from([(x(0), 1)]),
            data: Substitution::from_pairs([(u, e(5))]),
            ..Default::default()
        };
        assert!(!eval(
            &run2,
            &a2,
            &MsoFo::query_at(Query::atom(r("Enrolled"), [u]), x(0))
        ));
    }

    #[test]
    fn open_atoms_naming_an_inactive_constant_keep_the_active_domain_semantics() {
        // Q(u) = A(u) ∧ ∀w. ¬(w = e5): quantifiers range over adom(I_x), where e5 does not
        // occur, so Q(e1) holds at the only position. An answer table over adom ∪ {e5}
        // would refute the ∀ on w = e5; the letter must not use one here.
        let (u, w) = (v("u"), v("w"));
        let run = vec![Instance::from_facts([(r("A"), vec![e(1)])])];
        let q = Query::atom(r("A"), [u]).and(Query::forall(
            w,
            Query::eq(w, rdms_db::Term::Value(e(5))).not(),
        ));
        let phi = MsoFo::exists_data(u, MsoFo::exists_pos(x(0), MsoFo::query_at(q, x(0))));
        assert!(eval_sentence(&run, &phi));
    }

    #[test]
    fn compiled_formulas_refuse_free_position_and_set_variables() {
        let phi = MsoFo::query_at(Query::prop(r("p")), x(2)).and(MsoFo::In(x(0), SetVar(4)));
        let err = CompiledFormula::sentence(&phi).expect_err("x0, x2 and X4 are free");
        assert_eq!(err.pos, vec![x(0), x(2)]);
        assert_eq!(err.sets, vec![SetVar(4)]);
        assert_eq!(
            err.to_string(),
            "the MSO-FO property is not a sentence: free x0, x2, X4"
        );
        // free data variables are allowed: unbound, their atoms are false
        let open_data =
            MsoFo::exists_pos(x(0), MsoFo::query_at(Query::atom(r("A"), [v("u")]), x(0)));
        assert!(CompiledFormula::sentence(&open_data).is_ok());
    }

    #[test]
    fn set_quantification() {
        let run = student_run();
        // ∃X. 0 ∈ X ∧ 2 ∈ X ∧ ¬(1 ∈ X) — trivially true; checks the machinery
        let set = SetVar(0);
        let phi = MsoFo::exists_set(
            set,
            MsoFo::conj([
                MsoFo::exists_pos(
                    x(0),
                    MsoFo::query_at(Query::prop(r("p")), x(0)).and(MsoFo::In(x(0), set)),
                ),
                MsoFo::forall_pos(
                    x(1),
                    MsoFo::In(x(1), set).implies(MsoFo::query_at(Query::prop(r("p")), x(1))),
                ),
            ]),
        );
        assert!(eval_sentence(&run, &phi));
        assert!(!phi.is_first_order());
        assert!(phi.is_sentence());
    }

    #[test]
    fn free_variable_computation() {
        let u = v("u");
        let phi = MsoFo::query_at(Query::atom(r("R"), [u]), x(0)).and(MsoFo::exists_data(
            u,
            MsoFo::query_at(Query::atom(r("R"), [u]), x(1)),
        ));
        assert_eq!(phi.free_pos_vars(), BTreeSet::from([x(0), x(1)]));
        assert_eq!(phi.free_data_vars(), BTreeSet::from([u]));
        assert!(phi.free_set_vars().is_empty());
        assert!(!phi.is_sentence());
        assert!(phi.is_first_order());
        assert!(phi.size() > 3);
        assert_eq!(phi.num_data_vars(), 1);
    }
}
