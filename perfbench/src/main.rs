//! Closed-loop serving benchmark of the FeReX stack.
//!
//! ```text
//! ferex-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ferex-perfbench --workload <name> --seed <n> --setup-only
//! ```
//!
//! Builds the workload's serving loop once, timing the set-up, then drives
//! it with closed-loop clients for `--seconds` of host time and checks every
//! served answer against the exact digital nearest neighbour. `--trace 0`
//! prints the end-to-end metrics. `--trace 1` runs an untraced phase and
//! then a traced one, half the time each, and prints the per-layer metrics
//! derived from the traced phase's spans; `--spans` writes those spans out
//! as tab-separated lines. `--setup-only` stops after the set-up and prints
//! its time alone. The last line of standard output is one JSON object.

#![forbid(unsafe_code)]

mod stats;
mod trace;
mod workload;

use ferex_core::{FerexError, ReplicaSetStats, ServeLoopStats, WearSummary};
use stats::{mean, median, supported_percentile, Accounting};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::{self_times, Span, Tracer};
use workload::{Bench, Phase, SetupTimes};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| "--seconds must be a number")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: match seconds {
            Some(s) if s > 0.0 => s,
            None if setup_only => 0.0,
            _ => return Err("--seconds must be positive".into()),
        },
        trace: trace.unwrap_or(false),
        spans,
        setup_only,
    })
}

/// Metrics in output order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn percentile_ms(samples: &[u64], q: u64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    supported_percentile(&s, q, 100).map_or(0.0, ms)
}

/// Counters read before and after the traced phase.
struct Counters {
    serve: ServeLoopStats,
    replica: ReplicaSetStats,
    wear: WearSummary,
}

fn counters(bench: &Bench) -> Counters {
    let s = bench.serving();
    Counters { serve: s.stats(), replica: s.set().stats(), wear: s.set().wear() }
}

/// `true` when the loop's own counters moved exactly as the benchmark counted.
fn loop_agrees(before: &ServeLoopStats, after: &ServeLoopStats, acc: &Accounting) -> bool {
    after.submitted - before.submitted == acc.searches_attempted
        && after.served - before.served == acc.searches_served
        && after.shed_capacity - before.shed_capacity == acc.shed_capacity
        && after.shed_deadline - before.shed_deadline == acc.shed_deadline
}

fn end_to_end(m: &mut Metrics, setup_s: f64, phase: &Phase, recall: f64) {
    // The median over windows of the run, so a burst of host interference
    // moves one window's figure rather than the run's.
    let windows: Vec<f64> = phase.window_medians().iter().map(|&ns| ns as f64).collect();
    m.put("setup_s", setup_s, "s");
    m.put("cpu_ms_per_search", phase.cpu_s * 1e3 / phase.acc.searches_served.max(1) as f64, "ms");
    m.put("search_ms_p50", median(&windows) / 1e6, "ms");
    m.put("recall_at_1", recall, "ratio");
    m.put("served_ratio", phase.acc.served_ratio(), "ratio");
    m.put("peak_rss_mb", workload::peak_rss_mb(), "MiB");
}

/// Span durations (or self times) grouped by name, in nanoseconds.
fn by_name<'a>(spans: &'a [Span], values: &[u64]) -> BTreeMap<&'a str, Vec<f64>> {
    let mut out: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, &v) in spans.iter().zip(values) {
        out.entry(s.name).or_default().push(v as f64);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    bench: &Bench,
    tracer: &Tracer,
    setup: &SetupTimes,
    untraced: &Phase,
    traced: &Phase,
    before: &Counters,
    after: &Counters,
) {
    // Set-up spans carry names of their own, so no phase filter is needed.
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let durations: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    let dur = by_name(spans, &durations);
    let own = by_name(spans, &selfs);
    let get = |map: &BTreeMap<&str, Vec<f64>>, k: &str| map.get(k).cloned().unwrap_or_default();

    let (mut idle, mut busy, mut busy_self) = (Vec::new(), Vec::new(), Vec::new());
    for ((s, &d), &o) in spans.iter().zip(&durations).zip(&selfs) {
        if s.name == "serve.poll" {
            if s.id == u64::MAX {
                idle.push(d as f64);
            } else {
                busy.push(d as f64);
                busy_self.push(o as f64);
            }
        }
    }
    let served = traced.acc.searches_served as f64;
    let batch_mean = served / (traced.serving_polls.max(1)) as f64;
    let kernel_ns = mean(&get(&dur, "array.distances_batch"));
    let rows = bench.serving().set().rows() as f64;
    let dq = (after.replica.queries_served - before.replica.queries_served).max(1) as f64;

    m.put("engine.build_s", setup.engine_build_s, "s");
    m.put("engine.program_s", setup.engine_program_s, "s");
    m.put("replica.build_s", setup.replica_build_s, "s");
    m.put("serve.submit_us", mean(&get(&dur, "serve.submit")) / 1e3, "us");
    m.put("serve.idle_poll_us", mean(&idle) / 1e3, "us");
    m.put("serve.poll_ms", mean(&busy) / 1e6, "ms");
    m.put("serve.batch_size_mean", batch_mean, "count");
    m.put("serve.shed_capacity", traced.acc.shed_capacity as f64, "count");
    m.put("serve.shed_deadline", traced.acc.shed_deadline as f64, "count");
    // Virtual latency does not depend on host speed: pool both phases.
    let mut ticks: Vec<u64> = untraced.sim_ticks.iter().chain(&traced.sim_ticks).copied().collect();
    ticks.sort_unstable();
    m.put(
        "serve.sim_p99_ticks",
        supported_percentile(&ticks, 99, 100).unwrap_or(0) as f64,
        "ticks",
    );
    m.put("array.kernel_ms", kernel_ns / 1e6, "ms");
    m.put("array.kernel_ns_per_row_query", kernel_ns / (rows * batch_mean).max(1.0), "ns");
    m.put("lta.sense_ms", mean(&get(&own, "lta.search_batch_at")) / 1e6, "ms");
    m.put("replica.self_ms", mean(&busy_self) / 1e6, "ms");
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    m.put(
        "replica.reads_per_query",
        d(after.replica.replica_reads, before.replica.replica_reads) / dq,
        "count",
    );
    m.put(
        "replica.oracle_fallback_ratio",
        d(after.replica.oracle_fallbacks, before.replica.oracle_fallbacks) / dq,
        "ratio",
    );
    m.put(
        "replica.scrubs_escalated",
        d(after.replica.scrubs_escalated, before.replica.scrubs_escalated),
        "count",
    );
    m.put("replica.scrub_ms", median(&get(&dur, "replica.scrub")) / 1e6, "ms");
    m.put(
        "replica.breaker_trips",
        d(after.replica.breaker_trips, before.replica.breaker_trips),
        "count",
    );
    m.put("mutate.compactions", d(after.wear.compactions, before.wear.compactions), "count");
    m.put("mutate.maintenance_ms", mean(&get(&dur, "mutate.maintenance")) / 1e6, "ms");
    m.put("mutate.wear_imbalance_milli", after.wear.imbalance_milli() as f64, "milli");
    m.put("mutate.write_ms_p50", percentile_ms(&traced.write_ns, 50), "ms");
    m.put("mutate.write_ms_p90", percentile_ms(&traced.write_ns, 90), "ms");
    m.put(
        "trace.overhead_ratio",
        untraced.throughput_qps() / traced.throughput_qps().max(1e-9),
        "ratio",
    );
}

fn run(args: &Args) -> Result<String, FerexError> {
    let spec = workload::spec(&args.workload)
        .ok_or(FerexError::InvalidPolicy { what: "unknown workload" })?;
    let rows = workload::initial_rows(spec, args.seed);
    let mut tracer = args.trace.then(Tracer::new);
    let (serving, times) = workload::setup(spec, &rows, tracer.as_mut())?;
    let setup_s = times.total_s();
    if args.setup_only {
        return Ok(format!("{{\"setup_s\": {}}}", num(setup_s)));
    }
    let mut bench = Bench::new(spec, serving, rows, args.seed);

    // A traced run splits its time between the untraced and traced phases.
    let phase_s = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let before = counters(&bench);
    let first = bench.run_phase(phase_s, None)?;
    let mid = counters(&bench);
    let mut problems = Vec::new();
    if !first.acc.balanced() || !loop_agrees(&before.serve, &mid.serve, &first.acc) {
        problems.push(format!("search accounting does not balance: {:?}", first.acc));
    }
    let mut metrics = Metrics::default();
    let mut attempted = first.acc.searches_attempted;
    if let Some(tracer) = tracer.as_mut() {
        let traced = bench.run_phase(phase_s, Some(tracer))?;
        let after = counters(&bench);
        if !traced.acc.balanced() || !loop_agrees(&mid.serve, &after.serve, &traced.acc) {
            problems.push(format!("traced accounting does not balance: {:?}", traced.acc));
        }
        attempted += traced.acc.searches_attempted;
        per_layer(&mut metrics, &bench, tracer, &times, &first, &traced, &mid, &after);
        if let Some(path) = &args.spans {
            let written = std::fs::File::create(path).and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tracer.write_tsv(&mut w)?;
                std::io::Write::flush(&mut w)
            });
            if let Err(e) = written {
                problems.push(format!("cannot write spans to {path}: {e}"));
            }
        }
    }
    let verdict = bench.verify();
    problems.extend(verdict.problems.iter().cloned());
    if !args.trace {
        end_to_end(&mut metrics, setup_s, &first, verdict.recall_prefix);
    }
    let problems: Vec<String> =
        problems.iter().map(|p| format!("\"{}\"", p.replace('"', "'"))).collect();
    Ok(format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"checksum\": \"{}\", \"recall_all\": {}, \
         \"correct\": {}, \"problems\": [{}], \"attempted\": {attempted}, \"metrics\": {}}}",
        spec.name,
        args.seed,
        bench.checksum().hex(),
        num(verdict.recall_all),
        problems.is_empty(),
        problems.join(", "),
        metrics.json()
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
