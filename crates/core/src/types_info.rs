//! Per-problem type information used by the gap deciders: the quantified set
//! of gap types and their connection relations.

use crate::Result;
use lcl_problem::NormalizedLcl;
use lcl_semigroup::{
    OutRelation, SemigroupBuilder, TransferSystem, TypeId, TypeSemigroup, WorkMeter,
};
use std::sync::Arc;

/// Everything the feasibility search needs to know about the problem's types:
/// the semigroup, the minimum gap length `L_min` (the computed stand-in for
/// `ℓ_pump`), the set `T` of types realized by gaps of length `≥ L_min`, and
/// the connection relation `C(τ) = E · R(τ) · E` of each such type. The
/// semigroup, which holds the classify's one transfer system, is shared with
/// the algorithms synthesized from it.
#[derive(Clone, Debug)]
pub struct GapTypes {
    semigroup: Arc<TypeSemigroup>,
    min_gap: usize,
    quantified: Vec<TypeId>,
    /// `positions[t]`: the position of type `t` within `quantified`, or
    /// [`GapTypes::UNQUANTIFIED`].
    positions: Vec<usize>,
    /// The connection relations computed so far, in `quantified` order:
    /// their packed words end to end, the same number per relation.
    connections: Vec<u64>,
}

/// The types stage of a classification ([`GapTypes::compute`]) in steps
/// that a [`WorkMeter`] can stop and a later [`TypesBuild::run`]
/// continues: the semigroup enumeration, then the connection relations,
/// one type at a time. Nothing finished before a stop is done again, except
/// a length profile cut short.
pub(crate) struct TypesBuild {
    /// The semigroup enumeration, until it finishes.
    enumerating: Option<SemigroupBuilder>,
    /// The type information once the semigroup is known; its connections
    /// are those computed so far.
    info: Option<GapTypes>,
}

impl TypesBuild {
    /// Starts the types stage, charging `meter` the transfer system.
    pub(crate) fn new(
        problem: &NormalizedLcl,
        type_budget: usize,
        meter: &mut WorkMeter,
    ) -> Result<Self> {
        meter.charge(GapTypes::transfer_units(problem))?;
        let builder = SemigroupBuilder::new(TransferSystem::new(problem), type_budget)?;
        Ok(TypesBuild {
            enumerating: Some(builder),
            info: None,
        })
    }

    /// Runs the stage to its end, charging `meter` the semigroup's walk
    /// ([`SemigroupBuilder::build`]) and each connection relation. After a
    /// stop, the next call continues where this one stopped.
    pub(crate) fn run(&mut self, meter: &mut WorkMeter) -> Result<()> {
        if let Some(builder) = &mut self.enumerating {
            builder.build(meter)?;
            let semigroup = self.enumerating.take().expect("just built").finish();
            self.info = Some(GapTypes::unconnected(semigroup));
        }
        self.info.as_mut().expect("enumerated").connect(meter)
    }

    /// The type information of a finished [`TypesBuild::run`].
    pub(crate) fn finish(self) -> GapTypes {
        self.info.expect("a finished run")
    }
}

impl GapTypes {
    /// The position of a type that is not quantified.
    const UNQUANTIFIED: usize = usize::MAX;

    /// Computes the type information of a problem. `type_budget` caps the
    /// number of semigroup elements.
    ///
    /// # Errors
    ///
    /// Returns an error if the semigroup exceeds the budget.
    pub fn compute(problem: &NormalizedLcl, type_budget: usize) -> Result<Self> {
        let meter = &mut WorkMeter::unlimited();
        let mut build = TypesBuild::new(problem, type_budget, meter)?;
        build.run(meter)?;
        Ok(build.finish())
    }

    /// The work units of building a problem's transfer system and starting
    /// its semigroup: per relation built (the edge relation, its transpose,
    /// each letter's relation and the two product tables), one unit per row
    /// and 64 for the relation itself.
    pub(crate) fn transfer_units(problem: &NormalizedLcl) -> u64 {
        ((problem.num_inputs() + 4) * (problem.num_outputs() + 64)) as u64
    }

    /// The type information of `semigroup` before any connection relation
    /// is computed ([`GapTypes::connect`]).
    fn unconnected(semigroup: TypeSemigroup) -> Self {
        let min_gap = semigroup.pump_threshold();
        let quantified = semigroup.length_profile().types_of_length_at_least(min_gap);
        let mut positions = vec![Self::UNQUANTIFIED; semigroup.len()];
        for (i, &t) in quantified.iter().enumerate() {
            positions[t.index()] = i;
        }
        let words = semigroup.system().edge_relation().words().len();
        GapTypes {
            connections: Vec::with_capacity(quantified.len() * words),
            semigroup: Arc::new(semigroup),
            min_gap,
            quantified,
            positions,
        }
    }

    /// The number of connection relations computed so far.
    fn connected(&self) -> usize {
        let words = self.system().edge_relation().words().len();
        self.connections.len().checked_div(words).unwrap_or(0)
    }

    /// Computes the connection relations not computed yet,
    /// `C(τ) = E · R(τ) · E` by the transfer system's product tables
    /// ([`TransferSystem::connection_into`]) into two reused buffers,
    /// appending each to the arena. Charges `meter` per relation before
    /// computing it: a unit per four lookups of its two table products
    /// (`β·⌈β/8⌉` each) and one per transpose.
    fn connect(&mut self, meter: &mut WorkMeter) -> Result<()> {
        let system = self.semigroup.system();
        let beta = system.dim();
        let units = ((beta * beta.div_ceil(8)).div_ceil(2) + 2) as u64;
        let (mut scratch, mut out) = (OutRelation::empty(0), OutRelation::empty(0));
        for i in self.connected()..self.quantified.len() {
            meter.charge(units)?;
            let relation = self.semigroup.relation(self.quantified[i]);
            system.connection_into(&relation, &mut scratch, &mut out)?;
            self.connections.extend_from_slice(out.words());
        }
        Ok(())
    }

    /// The problem.
    pub fn problem(&self) -> &NormalizedLcl {
        self.system().problem()
    }

    /// The transfer system.
    pub fn system(&self) -> &TransferSystem {
        self.semigroup.system()
    }

    /// The type semigroup.
    pub fn semigroup(&self) -> &TypeSemigroup {
        &self.semigroup
    }

    /// The type semigroup, shared.
    pub(crate) fn shared_semigroup(&self) -> &Arc<TypeSemigroup> {
        &self.semigroup
    }

    /// The minimum gap length the synthesized algorithms guarantee (and the
    /// minimum word length over which the feasibility conditions quantify).
    pub fn min_gap(&self) -> usize {
        self.min_gap
    }

    /// The quantified gap types, in a fixed order.
    pub fn quantified(&self) -> &[TypeId] {
        &self.quantified
    }

    /// The position of a type within [`Self::quantified`], if present: one
    /// look-up in a table indexed by type.
    pub fn position(&self, t: TypeId) -> Option<usize> {
        let position = *self.positions.get(t.index())?;
        (position != Self::UNQUANTIFIED).then_some(position)
    }

    /// The connection relation `C(τ)` of the `i`-th quantified type.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn connection(&self, i: usize) -> OutRelation<&[u64]> {
        let words = self.system().edge_relation().words().len();
        let relation = &self.connections[i * words..(i + 1) * words];
        OutRelation::from_words(self.system().dim(), relation)
    }

    /// Whether every *sufficiently long* cycle admits a valid labeling: the
    /// boolean trace of `R(w)·E` must be non-zero for every type realized by
    /// words of length `≥ L_min` (complexity is an asymptotic notion, so very
    /// short degenerate cycles — a triangle cannot be 2-coloured, a single
    /// node has itself as neighbour — do not make a problem unsolvable).
    /// Returns a witness word of length `≥ L_min` if some long cycle has no
    /// valid labeling.
    ///
    /// # Errors
    ///
    /// None: the check reads the relations the semigroup already holds. The
    /// `Result` is kept for callers of the public signature.
    pub fn solvability_witness(&self) -> Result<Option<Vec<lcl_problem::InLabel>>> {
        self.solvability_witness_metered(&mut WorkMeter::unlimited())
    }

    /// As [`Self::solvability_witness`], charging `meter` each cycle check
    /// ([`Self::cycle_check_units`]) and each step of the witness walk.
    pub(crate) fn solvability_witness_metered(
        &self,
        meter: &mut WorkMeter,
    ) -> Result<Option<Vec<lcl_problem::InLabel>>> {
        let check_units = self.cycle_check_units();
        for &t in &self.quantified {
            meter.charge(check_units)?;
            if !self.cycle_labelable(t) {
                return Ok(Some(self.long_witness(t, meter)?));
            }
        }
        Ok(None)
    }

    /// The work units of one [`Self::cycle_labelable`] check: three for the
    /// check and one per packed word it reads.
    pub(crate) fn cycle_check_units(&self) -> u64 {
        3 + self.system().edge_relation().words().len() as u64
    }

    /// Whether a cycle whose input word has type `t` admits a valid
    /// labeling ([`TransferSystem::closes_cycle`]).
    pub(crate) fn cycle_labelable(&self, t: TypeId) -> bool {
        self.system()
            .closes_cycle(&self.semigroup.relation(t))
            .expect("the semigroup's relations have the system's dimension")
    }

    /// A word of length `≥ L_min` whose type is `t` (which must be a
    /// quantified type): the shortest such length, and at that length the
    /// word whose last letter, and then each earlier letter in turn, comes
    /// from the first `(type, letter)` in index order that reaches the type
    /// needed — so every engine derives the same witness.
    ///
    /// The length profile says which types words of each length realize,
    /// so the length is the first one from `L_min` on whose set holds `t`,
    /// and the word is rebuilt backwards: a position whose word so far has
    /// type `τ` takes the first type `u` realized one letter shorter and
    /// the first letter `a` with `step(u, a) = τ`. This is the word a
    /// forward walk over the type automaton meets first when it keeps, for
    /// each type of each length, the first `(type, letter)` that reaches
    /// it. Each `(type, letter)` tried and each length looked at charges
    /// `meter` one unit.
    fn long_witness(&self, t: TypeId, meter: &mut WorkMeter) -> Result<Vec<lcl_problem::InLabel>> {
        let semigroup = &*self.semigroup;
        let profile = semigroup.length_profile();
        let letters = self.system().num_letters();
        let horizon = self.min_gap + profile.preperiod + profile.period + 1;
        for len in self.min_gap.max(2)..=horizon {
            meter.charge(1)?;
            if !profile.types_of_length(len).any(|u| u == t) {
                continue;
            }
            let mut word = vec![lcl_problem::InLabel(0); len];
            let mut ty = t;
            for k in (1..len).rev() {
                let mut found = None;
                'search: for u in profile.types_of_length(k) {
                    for a in (0..letters).map(lcl_problem::InLabel::from_index) {
                        meter.charge(1)?;
                        if semigroup.step(u, a) == ty {
                            found = Some((u, a));
                            break 'search;
                        }
                    }
                }
                (ty, word[k]) = found.expect("a type of length k + 1 extends one of length k");
            }
            word[0] = (0..letters)
                .map(lcl_problem::InLabel::from_index)
                .find(|&a| semigroup.type_of_word(&[a]) == Ok(ty))
                .expect("a type of length 1 is a letter's");
            return Ok(word);
        }
        // Fall back to the stored (possibly short) witness; unreachable for
        // quantified types.
        Ok(semigroup.witness(t).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_gen::{generate, Family, GenConfig};
    use lcl_problem::{InLabel, NormalizedLcl};
    use std::collections::HashSet;

    /// The forward walk over the type automaton that [`GapTypes::long_witness`]
    /// replaced, kept as its oracle: one `types`-long layer per length,
    /// keeping for each type the first `(prefix type, letter)` that reaches
    /// it.
    fn forward_walk_witness(info: &GapTypes, t: TypeId) -> Vec<InLabel> {
        let semigroup = info.semigroup();
        let letters = || (0..info.system().num_letters()).map(InLabel::from_index);
        let mut layers = vec![vec![None; semigroup.len()]];
        for a in letters() {
            if let Ok(ty) = semigroup.type_of_word(&[a]) {
                layers[0][ty.index()].get_or_insert((ty, a));
            }
        }
        let profile = semigroup.length_profile();
        let horizon = info.min_gap() + profile.preperiod + profile.period + 1;
        for len in 2..=horizon {
            let mut next = vec![None; semigroup.len()];
            let reached = &layers[len - 2];
            for ty in semigroup.iter().filter(|ty| reached[ty.index()].is_some()) {
                for a in letters() {
                    next[semigroup.step(ty, a).index()].get_or_insert((ty, a));
                }
            }
            layers.push(next);
            if len >= info.min_gap() && layers[len - 1][t.index()].is_some() {
                let (mut ty, mut word) = (t, vec![InLabel(0); len]);
                for (letter, layer) in word.iter_mut().zip(&layers).rev() {
                    (ty, *letter) = layer[ty.index()].expect("reached types have a prefix");
                }
                return word;
            }
        }
        semigroup.witness(t).to_vec()
    }

    /// The splitmix64 generator the repository benchmark draws its cold
    /// problem base with.
    struct Rng(u64);

    impl Rng {
        fn mix(x: u64) -> u64 {
            let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            Self::mix(self.0)
        }
    }

    /// The problems of both goldens (`tests/feasibility_golden.rs`, then the
    /// benchmark's cold base that `tests/verdict_golden.rs` adds), `run(L)`
    /// for `L = 2..=8` and 512 seeded draws.
    fn witness_oracle_problems() -> Vec<NormalizedLcl> {
        let draw = |i: usize| {
            GenConfig::new(i as u64)
                .family(Family::ALL[i % 4])
                .input_labels(1 + (i / 4) % 3)
                .output_labels(3 + (i / 12) % 8)
        };
        let mut out: Vec<NormalizedLcl> = (3..=14).map(lcl_problems::coloring).collect();
        out.extend((1..=16).map(lcl_problems::unconstrained));
        out.extend(lcl_problems::corpus().into_iter().map(|e| e.problem));
        out.extend((0..320).map(|i| generate(&draw(i)).unwrap()));
        // The cold base: ladders, then four new structures per cell.
        let mut rng = Rng(Rng::mix(0x636f_6c64_6261_7365 ^ 0x6c63_6c62_656e_6368));
        out.extend((3..=14).map(lcl_problems::coloring));
        out.extend((2..=16).map(lcl_problems::unconstrained));
        let mut seen: HashSet<Vec<u8>> = out[out.len() - 27..]
            .iter()
            .map(NormalizedLcl::structural_key)
            .collect();
        for family in Family::ALL {
            for inputs in 1..=3 {
                for outputs in 3..=8 {
                    let mut drawn = 0;
                    for _ in 0..80 {
                        if drawn == 4 {
                            break;
                        }
                        let seed = rng.next_u64() >> 1;
                        rng.next_u64();
                        rng.next_u64();
                        let config = GenConfig::new(seed)
                            .family(family)
                            .input_labels(inputs)
                            .output_labels(outputs);
                        let problem = generate(&config).unwrap();
                        if seen.insert(problem.structural_key()) {
                            out.push(problem);
                            drawn += 1;
                        }
                    }
                }
            }
        }
        out.extend((2..=8).map(lcl_problems::run));
        out.extend((0..512u64).map(|seed| {
            let config = GenConfig::new(1_000 + seed)
                .family(Family::ALL[seed as usize % 4])
                .input_labels(1 + seed as usize % 3)
                .output_labels(2 + seed as usize % 7);
            generate(&config).unwrap()
        }));
        out
    }

    #[test]
    fn witnesses_from_the_length_profile_equal_the_forward_walk() {
        let problems = witness_oracle_problems();
        assert_eq!(problems.len(), 673 + 7 + 512, "both goldens, run(L), draws");
        let (mut compared, mut unlabelable) = (0, 0);
        for problem in &problems {
            let Ok(info) = GapTypes::compute(problem, 10_000) else {
                continue;
            };
            for &t in info.quantified() {
                let witness = info.long_witness(t, &mut WorkMeter::unlimited()).unwrap();
                assert_eq!(
                    witness,
                    forward_walk_witness(&info, t),
                    "{}: type {t:?}",
                    problem.name()
                );
                assert_eq!(info.semigroup().type_of_word(&witness), Ok(t));
                compared += 1;
                unlabelable += usize::from(!info.cycle_labelable(t));
            }
        }
        eprintln!("{compared} witnesses compared, {unlabelable} of unlabelable types");
        assert!(compared >= 7_000, "only {compared} witnesses compared");
        assert!(unlabelable >= 500, "only {unlabelable} unlabelable types");
    }

    fn two_coloring() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("2-coloring");
        b.input_labels(&["x"]);
        b.output_labels(&["1", "2"]);
        b.allow_all_node_pairs();
        b.allow_edge_idx(0, 1);
        b.allow_edge_idx(1, 0);
        b.build().unwrap()
    }

    fn three_coloring() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("3-coloring");
        b.input_labels(&["x"]);
        b.output_labels(&["1", "2", "3"]);
        b.allow_all_node_pairs();
        for p in 0..3u16 {
            for q in 0..3u16 {
                if p != q {
                    b.allow_edge_idx(p, q);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn two_coloring_is_not_always_solvable() {
        let info = GapTypes::compute(&two_coloring(), 10_000).unwrap();
        let witness = info.solvability_witness().unwrap();
        assert!(witness.is_some(), "odd cycles are not 2-colorable");
        assert_eq!(info.problem().name(), "2-coloring");
    }

    #[test]
    fn witnesses_are_deterministic_long_and_unlabelable() {
        // Inputs are copied and `B → A` is forbidden: every cycle that mixes
        // both letters is unsolvable, so many words of one length witness it.
        let mut b = NormalizedLcl::builder("one-way");
        b.input_labels(&["a", "b"]);
        b.output_labels(&["A", "B"]);
        b.allow_node_idx(0, 0);
        b.allow_node_idx(1, 1);
        b.allow_edge_idx(0, 0);
        b.allow_edge_idx(0, 1);
        b.allow_edge_idx(1, 1);
        let problem = b.build().unwrap();
        let info = GapTypes::compute(&problem, 10_000).unwrap();
        let witness = info.solvability_witness().unwrap().expect("mixed cycles");
        assert!(witness.len() >= info.min_gap());
        let cycle = lcl_problem::Instance::cycle(witness.clone());
        assert!(!info.system().instance_solvable(&cycle).unwrap());
        for _ in 0..8 {
            let again = GapTypes::compute(&problem, 10_000).unwrap();
            assert_eq!(
                again.solvability_witness().unwrap().as_ref(),
                Some(&witness)
            );
        }
    }

    #[test]
    fn cycle_checks_equal_the_trace_of_the_cycle_relation() {
        let mut problems: Vec<NormalizedLcl> = lcl_problems::corpus()
            .into_iter()
            .map(|e| e.problem)
            .collect();
        problems.extend((2..=8).map(lcl_problems::run));
        // Rows of more than one word.
        problems.push(lcl_problems::coloring(70));
        problems.extend((0..64u64).map(|seed| {
            let config = lcl_gen::GenConfig::new(seed)
                .family(lcl_gen::Family::ALL[seed as usize % 4])
                .input_labels(1 + seed as usize % 3)
                .output_labels(3 + seed as usize % 6);
            lcl_gen::generate(&config).unwrap()
        }));
        let mut checked = 0;
        for problem in &problems {
            let info = GapTypes::compute(problem, 10_000).unwrap();
            for t in info.semigroup().iter() {
                let cycle = info.system().cycle_relation(&info.semigroup().relation(t));
                assert_eq!(
                    info.cycle_labelable(t),
                    cycle.unwrap().has_nonzero_diagonal(),
                    "{}: type {t:?}",
                    problem.name()
                );
                checked += 1;
            }
        }
        assert!(checked >= 1_000, "only {checked} types checked");
    }

    #[test]
    fn three_coloring_is_always_solvable() {
        let info = GapTypes::compute(&three_coloring(), 10_000).unwrap();
        assert!(info.solvability_witness().unwrap().is_none());
        assert!(!info.quantified().is_empty());
        assert!(info.min_gap() >= 1);
        // For 3-coloring with a unary input alphabet the semigroup collapses
        // to very few types; all quantified types have a connection relation.
        for i in 0..info.quantified().len() {
            assert_eq!(info.connection(i).dim(), 3);
        }
        let t = info.quantified()[0];
        assert_eq!(info.position(t), Some(0));
        assert!(!info.semigroup().is_empty());
        assert_eq!(info.system().dim(), 3);
    }
}
