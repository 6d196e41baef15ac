//! `replay`: HCT1 traces generated from the seed, parsed with
//! `Trace::parse` and replayed through the daemon's scheduling discipline
//! in virtual time (`replay_daemon`) on a four-channel sharded layout.

use std::time::Instant;

use hybridcast_core::config::{AssignmentStrategy, ChannelLayout, HybridConfig};
use hybridcast_core::sharded::{ChannelPlan, ShardedScheduler};
use hybridcast_ops::replay::{replay_daemon, ReplayBooks};
use hybridcast_ops::trace::{Trace, TraceRecord, HEADER_LEN, MAGIC, RECORD_LEN, VERSION};
use hybridcast_ops::{config_hash, plan_digest};
use hybridcast_workload::scenario::{Scenario, ScenarioConfig};

use crate::measure::{median, pin_thread, quantile, setup_median, Metrics};
use crate::spans::Recorder;
use crate::{Outcome, Run};

/// Broadcast channels of the sharded layout.
const CHANNELS: u32 = 4;
/// Traces per run; the timed phase cycles through them.
const TRACES: u64 = 8;
/// Records per trace.
const RECORDS: usize = 12_500;
/// One record in this many carries a deadline.
const DEADLINE_EVERY: usize = 4;
/// The deadline those records carry, in wall ms: far beyond any wait this
/// load produces, so the deadline heap is exercised and nothing times out.
const DEADLINE_MS: u32 = 600_000;
/// Wall ms per broadcast unit stamped in the trace header.
const UNIT_MILLIS: f64 = 1.0;
/// Set-ups timed for the `setup_s` median.
const SETUP_REPS: usize = 10;

fn hybrid() -> HybridConfig {
    HybridConfig {
        channels: ChannelLayout::Sharded {
            channels: CHANNELS,
            assignment: AssignmentStrategy::PatternAware,
        },
        ..HybridConfig::paper(40, 0.5)
    }
}

/// An HCT1 trace of `RECORDS` requests drawn from stream `replication` of
/// the paper's laws, each stamped with the channel the plan routes it to.
fn encode_trace(scenario: &Scenario, plan: &ChannelPlan, replication: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + HEADER_LEN + RECORDS * (4 + RECORD_LEN));
    out.extend_from_slice(&MAGIC);
    // The header payload, laid out as `TraceMeta` writes it.
    let mut meta = [0u8; HEADER_LEN];
    meta[0..2].copy_from_slice(&VERSION.to_le_bytes());
    meta[2..10].copy_from_slice(&config_hash("perfbench-replay").to_le_bytes());
    meta[10..14].copy_from_slice(&CHANNELS.to_le_bytes());
    meta[14..22].copy_from_slice(&plan_digest(CHANNELS, plan.assignment()).to_le_bytes());
    meta[22..30].copy_from_slice(&UNIT_MILLIS.to_le_bytes());
    meta[30..34].copy_from_slice(&(scenario.catalog.len() as u32).to_le_bytes());
    meta[34] = scenario.classes.len() as u8;
    out.extend_from_slice(&(HEADER_LEN as u32).to_le_bytes());
    out.extend_from_slice(&meta);
    let mut src = scenario.request_source_replication(replication);
    for i in 0..RECORDS {
        let req = src.next_request();
        let rec = TraceRecord {
            arrival: req.arrival.as_f64(),
            item: req.item.0,
            class: req.class.0,
            channel: plan.channel_of(req.item) as u8,
            deadline_ms: if i % DEADLINE_EVERY == 0 {
                DEADLINE_MS
            } else {
                0
            },
        };
        out.extend_from_slice(&(RECORD_LEN as u32).to_le_bytes());
        out.extend_from_slice(&rec.encode());
    }
    out
}

/// Σ_c q_c · mean served wait_c, from the replay's per-class wait books.
fn prioritized_cost(scenario: &Scenario, books: &ReplayBooks) -> f64 {
    books
        .per_class
        .iter()
        .zip(scenario.classes.iter())
        .map(|(b, (_, c))| c.priority * b.wait_mean_units.unwrap_or(0.0))
        .sum()
}

/// Output checks on one replay; the reasons it fails, if any.
fn check(books: &ReplayBooks, reference: &ReplayBooks) -> Option<String> {
    if !books.conservation_ok {
        Some("books do not conserve".into())
    } else if books.rerouted != 0 {
        Some(format!("{} records rerouted", books.rerouted))
    } else if books != reference {
        Some("books differ from the trace's first replay".into())
    } else {
        None
    }
}

struct Input {
    bytes: Vec<u8>,
    trace: Trace,
    reference: ReplayBooks,
    best_wall: f64,
}

pub fn run(run: &Run, rec: &mut Recorder) -> Outcome {
    let cfg = ScenarioConfig::default();
    let hybrid = hybrid();
    let scenario = cfg.build();
    let plan = ChannelPlan::build(
        &scenario.catalog,
        CHANNELS,
        AssignmentStrategy::PatternAware,
    );
    let mut inputs: Vec<Input> = (0..TRACES)
        .map(|j| {
            let bytes = encode_trace(&scenario, &plan, run.seed.wrapping_mul(TRACES) + j);
            let trace = Trace::parse(&bytes).expect("a generated trace parses");
            let reference = replay_daemon(&scenario, &hybrid, UNIT_MILLIS, &trace);
            Input {
                bytes,
                trace,
                reference,
                best_wall: f64::INFINITY,
            }
        })
        .collect();

    // Set-up: the scenario build plus parsing one trace, cycling over the
    // run's traces.
    let mut i = 0;
    let setup_s = setup_median(SETUP_REPS, || {
        let bytes = &inputs[i % inputs.len()].bytes;
        rec.span("workload.scenario_build", 0, || {
            std::hint::black_box(cfg.build())
        });
        rec.span("ops.trace_parse", i as u64, || {
            std::hint::black_box(Trace::parse(bytes).expect("a generated trace parses"))
        });
        i += 1;
    });
    let records = (RECORDS as u64) * TRACES;
    println!(
        "workload: D={} K=40 C={CHANNELS}, {TRACES} traces of {RECORDS} records (1 in {DEADLINE_EVERY} with a {DEADLINE_MS} ms deadline), set-up median of {SETUP_REPS}",
        scenario.catalog.len()
    );

    let mut out = Outcome::default();
    for input in &inputs {
        if let Some(why) = check(&input.reference, &input.reference) {
            out.check_failed(why);
        }
    }
    let cost = inputs
        .iter()
        .map(|i| prioritized_cost(&scenario, &i.reference))
        .sum::<f64>()
        / inputs.len() as f64;
    let mut m = Metrics::default();
    if rec.is_on() {
        layers(&scenario, &hybrid, &inputs, rec, &mut m);
        out.attempted = records;
        out.metrics = m;
        return out;
    }

    // Round-robin over the traces and the CPUs, keeping each trace's
    // fastest replay (see the simulator workloads for why).
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let deadline = Instant::now() + run.duration();
    let mut rounds = 0;
    while Instant::now() < deadline || rounds < 2 {
        pin_thread(Some(rounds % cpus));
        for input in inputs.iter_mut() {
            let t0 = Instant::now();
            let books = replay_daemon(&scenario, &hybrid, UNIT_MILLIS, &input.trace);
            input.best_wall = input.best_wall.min(t0.elapsed().as_secs_f64());
            out.attempted += books.records;
            match check(&books, &input.reference) {
                Some(why) => {
                    out.check_failed(format!("round {rounds}: {why}"));
                    out.failed += books.records;
                }
                None => out.failed += books.shed + books.timed_out + books.uplink_lost,
            }
        }
        rounds += 1;
    }
    pin_thread(None);
    let walls_ms: Vec<f64> = inputs.iter().map(|i| i.best_wall * 1e3).collect();
    let wall: f64 = inputs.iter().map(|i| i.best_wall).sum();
    println!("timed: {rounds} rounds of {TRACES} replays");
    m.set("setup_s", setup_s, "s");
    m.set("throughput_per_s", records as f64 / wall, "1/s");
    // The calling thread runs each call through without blocking, so an
    // undisturbed call's wall time is its CPU time; the kernel's CPU
    // accounting (4 ms scheduler ticks here) is too coarse to time one call.
    m.set("cpu_us_per_req", wall * 1e6 / records as f64, "us");
    m.set("overhead_p50_ms", median(&walls_ms), "ms");
    m.set("overhead_p99_ms", quantile(&walls_ms, 0.99), "ms");
    m.set("prioritized_cost", cost, "units");
    out.metrics = m;
    out
}

/// The traced run: set-up layers, the sharded scheduler build, and each
/// replay in a span, plus the books' counts summed over the traces.
fn layers(
    scenario: &Scenario,
    hybrid: &HybridConfig,
    inputs: &[Input],
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    m.set(
        "workload.scenario_build_ms",
        rec.self_ns_per_call("workload.scenario_build") / 1e6,
        "ms",
    );
    m.set(
        "ops.trace_parse_ns_per_record",
        rec.self_ns_per_call("ops.trace_parse") / RECORDS as f64,
        "ns",
    );
    for _ in 0..21 {
        let (catalog, classes) = (scenario.catalog.clone(), scenario.classes.clone());
        rec.span("core.scheduler_new", 0, || {
            std::hint::black_box(ShardedScheduler::new(
                catalog,
                classes,
                hybrid,
                &scenario.factory,
            ))
        });
    }
    m.set(
        "core.scheduler_new_ms",
        rec.self_ns_per_call("core.scheduler_new") / 1e6,
        "ms",
    );

    // Tracing overhead: each replay untraced, then inside a span.
    let mut off = Recorder::new(false);
    let (mut untraced, mut traced) = (0.0, 0.0);
    for (j, input) in inputs.iter().enumerate() {
        for (r, sum) in [(&mut off, &mut untraced), (&mut *rec, &mut traced)] {
            let t = Instant::now();
            r.span("ops.replay_daemon", j as u64, || {
                std::hint::black_box(replay_daemon(scenario, hybrid, UNIT_MILLIS, &input.trace))
            });
            *sum += t.elapsed().as_secs_f64();
        }
    }
    let records = (RECORDS * inputs.len()) as f64;
    m.set(
        "ops.replay_ns_per_record",
        rec.totals("ops.replay_daemon").self_ns as f64 / records,
        "ns",
    );
    m.set("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%");
    let sum = |f: fn(&ReplayBooks) -> u64| inputs.iter().map(|i| f(&i.reference) as f64).sum();
    m.set("ops.replay_served_pull", sum(|b| b.served_pull), "count");
    m.set("ops.replay_timed_out", sum(|b| b.timed_out), "count");
    m.set("ops.replay_shed", sum(|b| b.shed), "count");
    m.set("ops.replay_rerouted", sum(|b| b.rerouted), "count");
}
