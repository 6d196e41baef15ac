//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-paper|sim-bigcat|serve|replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the public APIs of `hybridcast-core`,
//! `hybridcast-server` and `hybridcast-ops` on inputs generated from
//! `--seed`, checks the outputs, and prints as its last stdout line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! benchmark wraps each call it makes into a layer in a span and reports
//! the per-layer ledger instead (spans are written to `perfbench/out/`).
//! See `perfbench/NOTES.md` for what each metric means and why each
//! workload exists.

mod measure;
mod replay;
mod serve;
mod sims;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::{Host, Metrics};
use spans::Recorder;

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("cpu_us_per_req", "us"),
    ("overhead_p50_ms", "ms"),
    ("overhead_p99_ms", "ms"),
    ("prioritized_cost", "units"),
];

/// The per-layer ledger every traced run reports, with units. A layer a
/// workload does not exercise did no work on it and reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("workload.scenario_build_ms", "ms"),
    ("core.scheduler_new_ms", "ms"),
    ("ops.trace_parse_ns_per_record", "ns"),
    ("workload.request_gen_ns", "ns"),
    ("core.on_request_ns", "ns"),
    ("core.next_transmission_ns", "ns"),
    ("core.complete_transmission_ns", "ns"),
    ("sim_driver.ns_per_req", "ns"),
    ("core.pull_queue_items_mean", "items"),
    ("core.push_tx", "count"),
    ("core.pull_tx", "count"),
    ("core.blocked_items", "count"),
    ("core.requests_per_pull_tx", "ratio"),
    ("server.loop_cpu_us_per_req", "us"),
    ("server.core_cpu_us_per_req", "us"),
    ("server.wait_p50_ms", "ms"),
    ("server.wait_p99_ms", "ms"),
    ("server.served_push", "count"),
    ("server.served_pull", "count"),
    ("server.shed", "count"),
    ("server.push_tx", "count"),
    ("server.pull_tx", "count"),
    ("server.requests_per_pull_tx", "ratio"),
    ("server.overhead_p999_ms", "ms"),
    ("server.overhead_samples", "count"),
    ("client.rtt_p50_ms", "ms"),
    ("client.rtt_p99_ms", "ms"),
    ("client.late_p99_ms", "ms"),
    ("client.cpu_us_per_req", "us"),
    ("ops.replay_ns_per_record", "ns"),
    ("ops.replay_served_pull", "count"),
    ("ops.replay_timed_out", "count"),
    ("ops.replay_shed", "count"),
    ("ops.replay_rerouted", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

const WORKLOADS: [&str; 4] = ["sim-paper", "sim-bigcat", "serve", "replay"];

/// One invocation's arguments.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    /// The timed phase's length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn parse(args: &[String]) -> Result<Run, String> {
        let mut run = Run {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => run.workload = value.clone(),
                "--seed" => run.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => run.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    run.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&run.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, got {:?}",
                WORKLOADS.join(", "),
                run.workload
            ));
        }
        if !(run.seconds > 0.0 && run.seconds <= 120.0) {
            return Err(format!(
                "--seconds must be in (0, 120], got {}",
                run.seconds
            ));
        }
        Ok(run)
    }
}

/// What a workload hands back: request counts, failed output checks and
/// its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed output check (the run then reports `correct: false`).
    pub fn check_failed(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.check_failures.push(why);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match Run::parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        run.workload, run.seed, run.seconds, run.trace as u8
    );
    let mut rec = Recorder::new(run.trace);
    let mut out = match run.workload.as_str() {
        "sim-paper" => sims::run(&sims::PAPER, &run, &mut rec),
        "sim-bigcat" => sims::run(&sims::BIGCAT, &run, &mut rec),
        "serve" => serve::run(&run, &mut rec),
        "replay" => replay::run(&run, &mut rec),
        _ => unreachable!("workload validated by Run::parse"),
    };
    let host_json = host.json();
    println!("host: {host_json}");

    let mut metrics = Metrics::default();
    if run.trace {
        out.metrics
            .set("trace.spans", rec.recorded() as f64, "count");
        for (name, unit) in PER_LAYER {
            metrics.set(name, out.metrics.get(name).unwrap_or(0.0), unit);
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", run.workload, run.seed));
        match rec.write(&path, &host_json) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => out.check_failed(format!("writing {}: {e}", path.display())),
        }
    } else {
        for (name, unit) in END_TO_END {
            match out.metrics.get(name) {
                Some(v) => metrics.set(name, v, unit),
                None => out.check_failed(format!("{name} was not measured")),
            }
        }
    }
    for name in metrics.non_finite() {
        out.check_failed(format!("{name} is not a finite number"));
    }
    print!("{}", metrics.table());
    let correct = out.check_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
