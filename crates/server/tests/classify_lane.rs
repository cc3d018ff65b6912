//! The inline classify lane: a `classify` miss runs its classification
//! stages on the dispatching thread under a deterministic work slice, and
//! only what it did not finish goes to the worker pool.
//!
//! Nothing here reads a clock: which lane a request takes depends only on
//! the work units its stages charge, so every assertion holds on any host
//! and under any load.

use lcl_paths::classifier::{Lane, Stage, WorkMeter};
use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{NormalizedLcl, RequestEnvelope};
use lcl_paths::{problems, Engine};
use lcl_server::{
    Client, Frame, Origin, Server, Service, CLASSIFY_SLICE_UNITS, CLASSIFY_STAGE_CAP_UNITS,
};
use std::collections::{BTreeSet, HashSet};
use std::sync::{mpsc, Arc};

/// The problems of `tests/feasibility_golden.rs`, in its order.
fn feasibility_golden_problems() -> Vec<NormalizedLcl> {
    let draw = |i: usize| {
        GenConfig::new(i as u64)
            .family(Family::ALL[i % Family::ALL.len()])
            .input_labels(1 + (i / 4) % 3)
            .output_labels(3 + (i / 12) % 8)
    };
    let mut out: Vec<NormalizedLcl> = (3..=14).map(problems::coloring).collect();
    out.extend((1..=16).map(problems::unconstrained));
    out.extend(problems::corpus().into_iter().map(|e| e.problem));
    out.extend((0..320).map(|i| generate(&draw(i)).expect("valid config")));
    out
}

/// The splitmix64 generator the benchmark draws its cold base with.
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

/// The problems of `tests/verdict_golden.rs`: those of the feasibility
/// golden, then the benchmark's cold base (the colouring and unconstrained
/// ladders and four new structures per family × alphabet cell).
fn golden_problems() -> Vec<NormalizedLcl> {
    let mut out = feasibility_golden_problems();
    let mut rng = Rng(Rng::mix(0x636f_6c64_6261_7365 ^ 0x6c63_6c62_656e_6368));
    let mut base: Vec<NormalizedLcl> = (3..=14).map(problems::coloring).collect();
    base.extend((2..=16).map(problems::unconstrained));
    let mut seen: HashSet<Vec<u8>> = base.iter().map(|p| p.structural_key()).collect();
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
                    let problem = generate(&config).expect("valid config");
                    if seen.insert(problem.structural_key()) {
                        base.push(problem);
                        drawn += 1;
                    }
                }
            }
        }
    }
    out.extend(base);
    assert_eq!(out.len(), 673, "the verdict golden's problem list");
    out
}

/// A canonical `classify` frame for `problem` with id `id`.
fn classify_frame(id: i64, problem: &NormalizedLcl) -> String {
    let payload = JsonValue::object([("problem", problem.to_spec().to_json())]);
    RequestEnvelope::new(id, "classify", payload).to_json_string()
}

/// The lane counters, `inline` first, then one per stage.
fn lanes(service: &Service) -> [u64; 6] {
    service.metrics_snapshot().classify_lanes
}

/// A 60%-density α = 3, β = 6 `solvable` draw with 271 types: its types
/// stage alone charges more than the stage cap.
fn heavy() -> NormalizedLcl {
    let config = GenConfig::new(1_909_898_242_325_567_556)
        .family(Family::Solvable)
        .input_labels(3)
        .output_labels(6);
    generate(&config).expect("valid config")
}

#[test]
fn the_structural_key_digests_to_the_canonical_hash() {
    for problem in golden_problems() {
        assert_eq!(
            NormalizedLcl::hash_of_key(&problem.structural_key()),
            problem.canonical_hash(),
            "{}",
            problem.name()
        );
    }
}

/// Every verdict-golden problem, dispatched as a cold `classify`, replies
/// with the bytes the lock-step pool-job body writes; the replies cover the
/// inline lane and hand-offs at several stages.
#[test]
fn every_golden_classify_dispatches_byte_identically_to_handle_line() {
    let dispatched = Arc::new(Service::new(Engine::builder().parallelism(2).build()));
    let lock_step = Service::new(Engine::builder().parallelism(1).build());
    let origin = Origin::new(None);
    let mut taken = BTreeSet::new();
    for (i, problem) in golden_problems().iter().enumerate() {
        let frame = classify_frame(i as i64, problem);
        // Each problem is cold on both services.
        dispatched.engine().clear_cache();
        lock_step.engine().clear_cache();
        let before = lanes(&dispatched);
        let reply = dispatched
            .dispatch(Frame::Line(frame.clone()), &origin)
            .wait();
        let want = lock_step.handle_line(&frame).into_json_string();
        assert_eq!(reply, want, "{}", problem.name());
        let after = lanes(&dispatched);
        let lane: Vec<usize> = (0..6).filter(|&l| after[l] > before[l]).collect();
        assert_eq!(lane.len(), 1, "{}: one lane per miss", problem.name());
        assert_eq!(after[lane[0]] - before[lane[0]], 1, "{}", problem.name());
        taken.insert(lane[0]);
    }
    eprintln!("lanes taken (0 = inline, then the stages): {taken:?}");
    assert!(taken.contains(&0), "some classify ran inline: {taken:?}");
    let stages = taken.iter().filter(|&&l| l > 0).count();
    assert!(stages >= 3, "hand-offs at only {stages} stages: {taken:?}");
}

/// The calling thread charges at most the slice plus one stage cap for
/// any golden problem, and a lane that stops parks the state the pool
/// resumes from.
#[test]
fn the_calling_thread_charges_at_most_the_slice_plus_the_cap() {
    let engine = Engine::builder().parallelism(1).build();
    let mut outcomes = BTreeSet::new();
    for problem in golden_problems() {
        engine.clear_cache();
        let key = problem.structural_key();
        let mut meter = WorkMeter::new(CLASSIFY_SLICE_UNITS, CLASSIFY_STAGE_CAP_UNITS);
        let lane = engine.classify_inline(&key, &problem, &mut meter);
        assert!(
            meter.used() <= CLASSIFY_SLICE_UNITS + CLASSIFY_STAGE_CAP_UNITS,
            "{}: {} units",
            problem.name(),
            meter.used()
        );
        let verdict = match lane {
            Lane::Done { classification, .. } => classification,
            Lane::Parked(stage) => {
                outcomes.insert(stage.name());
                engine.resume(&key, &problem).expect("the pool finishes")
            }
            Lane::Pool => panic!("{}: a cold key fits the lane", problem.name()),
        };
        let fresh = Engine::new().classify(&problem).expect("classifies");
        assert_eq!(
            verdict.complexity(),
            fresh.complexity(),
            "{}",
            problem.name()
        );
        assert_eq!(verdict.num_types(), fresh.num_types(), "{}", problem.name());
    }
    eprintln!("stopped before {outcomes:?}");
    assert!(outcomes.len() >= 3, "stopped before {outcomes:?} only");
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 673, "one miss per cold key: {stats:?}");
    assert_eq!(stats.hits, 0, "a resumed flight counts no hit: {stats:?}");
}

/// With another thread holding the key's flight, dispatch returns without
/// waiting for it (returning at all shows it did not park), and the request
/// joins the flight on a pool worker: the key is computed once.
#[test]
fn dispatch_never_waits_on_a_flight_another_thread_holds() {
    let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));
    let problem = heavy();
    let key = problem.structural_key();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (led_tx, led_rx) = mpsc::channel::<()>();
    let holder = {
        let service = Arc::clone(&service);
        let problem = problem.clone();
        std::thread::spawn(move || {
            // A slice of zero stops before the first stage: the flight is
            // open, its work parked, and this thread holds the request
            // that must resume it.
            let mut meter = WorkMeter::new(0, CLASSIFY_STAGE_CAP_UNITS);
            let lane = service.engine().classify_inline(&key, &problem, &mut meter);
            assert!(matches!(lane, Lane::Parked(Stage::Types)), "{lane:?}");
            led_tx.send(()).expect("main thread waits");
            gate_rx.recv().expect("gate opens");
            service.engine().resume(&key, &problem).expect("resumes")
        })
    };
    led_rx.recv().expect("the holder leads");
    let before = lanes(&service);
    let pending = service.dispatch(Frame::Line(classify_frame(7, &problem)), &Origin::new(None));
    let after = lanes(&service);
    assert_eq!(
        after[1] - before[1],
        1,
        "the request went to the pool from the first stage"
    );
    let reply = pending.wait();
    let want = Service::new(Engine::builder().parallelism(1).build())
        .handle_line(&classify_frame(7, &problem))
        .into_json_string();
    assert_eq!(reply, want);
    gate_tx.send(()).expect("holder waits on the gate");
    let held = holder.join().expect("holder thread");
    assert_eq!(held.num_types(), 271);
    let stats = service.engine().cache_stats();
    assert_eq!(
        (stats.misses, stats.flight_leaders, stats.inserts),
        (1, 1, 1),
        "one computation: {stats:?}"
    );
    assert_eq!(
        stats.flight_joins, 1,
        "the dispatched request joined: {stats:?}"
    );
}

/// The lane counter family shows a small problem classified inline and a
/// heavy one handed off, in both the `stats` reply and the exposition.
#[test]
fn lane_counters_show_in_the_stats_reply_and_the_exposition() {
    let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for problem in [problems::coloring(3), heavy()] {
        let payload = JsonValue::object([("problem", problem.to_spec().to_json())]);
        client.call("classify", payload).expect("classifies");
    }
    let lanes = lanes(&service);
    assert_eq!(lanes[0], 1, "3-coloring ran inline: {lanes:?}");
    assert_eq!(
        lanes[1..].iter().sum::<u64>(),
        1,
        "the heavy draw was handed off"
    );

    let stats = client.stats().expect("stats");
    let by_lane = stats
        .require("server")
        .and_then(|s| s.require("classify_lanes"))
        .expect("lane counters in stats");
    assert_eq!(by_lane.require("inline").unwrap().as_int().unwrap(), 1);
    let handed_off: i64 = Stage::ALL
        .iter()
        .map(|stage| by_lane.require(stage.name()).unwrap().as_int().unwrap())
        .sum();
    assert_eq!(handed_off, 1);

    let expo = client.metrics().expect("exposition");
    assert!(
        expo.contains("lcl_classify_lane_total{lane=\"inline\"} 1\n"),
        "{expo}"
    );
    let samples: u64 = expo
        .lines()
        .filter(|line| line.starts_with("lcl_classify_lane_total{"))
        .map(|line| line.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert_eq!(samples, 2, "{expo}");
    drop(client);
    handle.shutdown();
}
