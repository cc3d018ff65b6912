//! Allocation guards for a cold classify and for the `classify` request
//! front end.
//!
//! A counting global allocator counts the allocations each thread makes.
//! The tests take every problem of the feasibility golden (the colouring
//! and unconstrained ladders, the corpus and 320 seeded `lcl-gen` draws):
//! one classifies each with the uncached classifier, the other reads each
//! problem's canonical `classify` frame into the problem and its structural
//! key. Each bounds the mean number of allocations per problem. The counts
//! are deterministic: they depend on the problems and the code, not on
//! timing or on other threads.

use lcl_paths::classifier::{classify_with_options, ClassifierOptions};
use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{NormalizedLcl, RequestEnvelope};
use lcl_paths::problems;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (not frees) per thread, then defers to the system
/// allocator.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method defers to `System`, which upholds the contract.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The feasibility golden's problems, in its order.
fn golden_problems() -> Vec<NormalizedLcl> {
    let mut out: Vec<NormalizedLcl> = (3..=14).map(problems::coloring).collect();
    out.extend((1..=16).map(problems::unconstrained));
    out.extend(problems::corpus().into_iter().map(|e| e.problem));
    out.extend((0..320usize).map(|i| {
        let config = GenConfig::new(i as u64)
            .family(Family::ALL[i % Family::ALL.len()])
            .input_labels(1 + (i / 4) % 3)
            .output_labels(3 + (i / 12) % 8);
        generate(&config).expect("valid config")
    }));
    out
}

/// Allocations (and reallocations) of the cold classifies of the golden's
/// 358 problems, measured before the classifier read the type automaton
/// instead of rebuilding it: 271.4 per classify.
const PARENT_TOTAL: u64 = 97_146;

/// The share of [`PARENT_TOTAL`] a cold classify may allocate. With the
/// semigroup's relations and the connection relations in arenas, and the
/// facing sets kept once per distinct set instead of two label lists per
/// quantified type, it measures 93.4 per classify (34.4%); the bound is
/// that share rounded up to the next five points.
const CLASSIFY_SHARE: f64 = 0.35;

#[test]
fn a_cold_classify_allocates_at_most_half_the_parent_count() {
    let problems = golden_problems();
    let options = ClassifierOptions::default();
    let mut total = 0u64;
    for problem in &problems {
        let before = allocations();
        let classification = classify_with_options(problem, &options);
        drop(classification);
        total += allocations() - before;
    }
    assert_eq!(problems.len(), 358, "the golden's problem list");
    let (mean, parent) = (total as f64 / 358.0, PARENT_TOTAL as f64 / 358.0);
    eprintln!("{total} allocations, {mean:.1} per cold classify (was {parent:.1})");
    assert!(
        mean <= CLASSIFY_SHARE * parent,
        "{mean:.1} allocations per classify, more than {:.0}% of {parent:.1}",
        100.0 * CLASSIFY_SHARE
    );
}

/// Each golden problem's canonical `classify` frame, spelled as
/// [`RequestEnvelope::to_json_string`] spells it, with id `i`.
fn classify_frames(problems: &[NormalizedLcl]) -> Vec<String> {
    problems
        .iter()
        .enumerate()
        .map(|(i, problem)| {
            let payload = JsonValue::object([("problem", problem.to_spec().to_json())]);
            RequestEnvelope::new(i as i64, "classify", payload).to_json_string()
        })
        .collect()
}

/// Allocations (and reallocations) of turning the golden's 358 canonical
/// `classify` frames into problems and structural keys, measured on the
/// tree path the service took before the front end existed:
/// `JsonValue::parse`, `RequestEnvelope::from_json`, `ProblemSpec::from_json`
/// of `payload.problem`, `ProblemSpec::to_problem`, then
/// `NormalizedLcl::structural_key`: 118.8 per frame.
const PARENT_FRONT_END_TOTAL: u64 = 42_539;

#[test]
fn the_classify_front_end_allocates_at_most_forty_percent_of_the_parent_count() {
    let problems = golden_problems();
    let frames = classify_frames(&problems);
    let mut total = 0u64;
    for (i, (frame, problem)) in frames.iter().zip(&problems).enumerate() {
        let before = allocations();
        let (id, read) = RequestEnvelope::read_classify(frame).expect("a canonical frame reads");
        let key = read.structural_key();
        total += allocations() - before;
        assert_eq!((id, &read), (i as i64, problem));
        assert_eq!(key, problem.structural_key());
    }
    assert_eq!(frames.len(), 358, "the golden's problem list");
    let (mean, parent) = (total as f64 / 358.0, PARENT_FRONT_END_TOTAL as f64 / 358.0);
    eprintln!("{total} allocations, {mean:.1} per classify frame (was {parent:.1})");
    assert!(
        mean <= 0.4 * parent,
        "{mean:.1} allocations per classify frame, more than 40% of {parent:.1}"
    );
}
