//! End-to-end and per-layer benchmark of the coloring service behind its
//! TCP front-end.
//!
//! ```text
//! gc-perfbench --workload <cold|warm|mutate|sharded> --seed N --seconds S --trace 0|1
//! gc-perfbench --smoke
//! ```
//!
//! With `--trace 0` the run sets up the workload [`SETUPS`] times (the
//! median is `setup_s`), then runs its closed loop for `S` seconds and at
//! least [`PREFIX_OPS`] ops, and prints the end-to-end metrics. Between
//! ops it samples a host probe; the wall-time metrics are scaled to the
//! probe's reference speed (see `probe.rs`). With `--trace 1` it runs a
//! fixed prefix of ops with an in-process replay of each op's layers (see
//! `trace.rs`), then untraced ops until `S` seconds have passed, and
//! prints the per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--smoke` runs every workload both ways on graphs of a few thousand
//! vertices in a few seconds.

mod metrics;
mod probe;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Metric, Report, END_TO_END, PER_LAYER};
use probe::{HostProbe, REFERENCE_MS};
use stats::{mean, median, peak_rss_mb, percentile};
use trace::Replay;
use workload::{Bench, OpError, OpRecord, Sizes, Workload, FULL, SMOKE};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Ops every untraced run completes, however short `--seconds`: p90 needs
/// 100 samples, and `colors_mean`, `model_ms_mean` and `peak_rss_mb` cover
/// exactly these ops (and set-up), so they repeat for a seed whatever the
/// run length.
const PREFIX_OPS: u64 = 100;
/// Least time between two host probe samples.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// A run that has not completed [`PREFIX_OPS`] by now gives up.
const MAX_RUN: Duration = Duration::from_secs(150);
/// Failures echoed to stderr per run; the rest are only counted.
const ECHO_FAILURES: u64 = 5;

/// Ops the traced run replays; the per-layer counts cover exactly these.
fn traced_ops(w: Workload) -> u64 {
    match w {
        Workload::Cold | Workload::Sharded => 20,
        Workload::Warm => 200,
        Workload::Mutate => 60,
    }
}

/// Outcome counts and samples of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Failures that were wrong outputs rather than errors.
    wrong: u64,
    latencies_ms: Vec<f64>,
    /// `num_colors` and `model_ms` of every reply within [`PREFIX_OPS`].
    colors: Vec<f64>,
    model_ms: Vec<f64>,
}

impl Tally {
    /// Counts one op; a failure is counted and reported, never fatal.
    fn record(&mut self, outcome: Result<OpRecord, OpError>) -> Option<OpRecord> {
        self.attempted += 1;
        match outcome {
            Ok(r) => {
                self.latencies_ms.push(r.ms);
                if r.index < PREFIX_OPS {
                    for c in &r.colors {
                        self.colors.push(c.summary.num_colors as f64);
                        self.model_ms.push(c.summary.model_ms);
                    }
                }
                Some(r)
            }
            Err(e) => {
                self.failed += 1;
                self.wrong += matches!(e, OpError::Wrong(_)) as u64;
                if self.failed <= ECHO_FAILURES {
                    eprintln!("op {} failed: {e}", self.attempted - 1);
                }
                None
            }
        }
    }

    fn succeeded(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Successful ops per second of client-observed op time.
    fn ops_per_s(&self) -> f64 {
        let busy_s: f64 = self.latencies_ms.iter().sum::<f64>() / 1e3;
        if busy_s > 0.0 {
            self.latencies_ms.len() as f64 / busy_s
        } else {
            0.0
        }
    }

    fn report(&self) -> Report {
        Report {
            correct: self.wrong == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: BTreeMap::new(),
        }
    }
}

fn run_untraced(w: Workload, sizes: Sizes, seed: u64, seconds: f64) -> Result<Report, String> {
    let (mut bench, times) = Bench::setup(w, sizes, seed)?;
    let mut setup_s = vec![times.total_s];

    let mut tally = Tally::default();
    let mut prefix_rss_mb = None;
    let mut probe = HostProbe::new();
    probe.sample();
    let mut probed = Instant::now();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || tally.succeeded() < PREFIX_OPS {
        // Sampled once the prefix is done: later ops only add allocator
        // fragmentation that grows with run length.
        if prefix_rss_mb.is_none() && tally.attempted == PREFIX_OPS {
            prefix_rss_mb = Some(peak_rss_mb());
        }
        if started.elapsed() > MAX_RUN {
            bench.shutdown();
            return Err(format!(
                "{}: {} of {PREFIX_OPS} ops succeeded in {MAX_RUN:?}",
                w.name(),
                tally.succeeded()
            ));
        }
        tally.record(bench.run_op());
        // Between ops, while the server waits for the next request.
        if probed.elapsed() >= PROBE_EVERY {
            probe.sample();
            probed = Instant::now();
        }
    }
    bench.shutdown();
    let peak_rss_mb = prefix_rss_mb.unwrap_or_else(peak_rss_mb);
    // The other set-ups come after the run: each leaves freed memory in
    // the allocator's per-thread arenas, which moved the run's peak RSS
    // by up to 20% when they came first.
    for _ in 1..SETUPS {
        let (bench, times) = Bench::setup(w, sizes, seed)?;
        setup_s.push(times.total_s);
        bench.shutdown();
    }

    // Host time per reference time: every wall time divides by it.
    let slowdown = median(probe.samples()) / REFERENCE_MS;
    let lat = &tally.latencies_ms;
    let mut report = tally.report();
    let m = &mut report.metrics;
    m.insert("setup_s", median(&setup_s) / slowdown);
    m.insert("ops_per_s", tally.ops_per_s() * slowdown);
    m.insert(
        "latency_p50_ms",
        percentile(lat, 0.5).ok_or("too few ops for p50")? / slowdown,
    );
    m.insert(
        "latency_p90_ms",
        percentile(lat, 0.9).ok_or("too few ops for p90")? / slowdown,
    );
    m.insert("colors_mean", mean(&tally.colors));
    m.insert("model_ms_mean", mean(&tally.model_ms));
    m.insert("peak_rss_mb", peak_rss_mb);
    m.insert(
        "ok_ratio",
        tally.succeeded() as f64 / tally.attempted as f64,
    );
    eprintln!(
        "{}: {} ops ({} failed), p90 over {} samples; host probe median {:.3} ms over {} \
         samples, so raw wall times are {slowdown:.3}x the reported ones",
        w.name(),
        tally.attempted,
        tally.failed,
        lat.len(),
        median(probe.samples()),
        probe.samples().len(),
    );
    Ok(report)
}

fn run_traced(
    w: Workload,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    out_dir: &std::path::Path,
) -> Result<Report, String> {
    let started = Instant::now();
    let (mut bench, times) = Bench::setup(w, sizes, seed)?;
    let mut replay = Replay::new(&bench, times.generate_ms);
    let mut tally = Tally::default();
    let ops = traced_ops(w);

    for _ in 0..ops {
        if let Some(record) = tally.record(bench.run_op()) {
            replay.replay(&record);
        }
    }
    // The run lasts `seconds`, like an untraced one.
    while started.elapsed().as_secs_f64() < seconds.min(MAX_RUN.as_secs_f64()) {
        tally.record(bench.run_op());
    }
    bench.shutdown();

    let mut report = tally.report();
    replay.metrics(trace::span_cost_us(), &mut report.metrics);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}-{seed}.jsonl", w.name()));
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    replay
        .tracer()
        .write_jsonl(&mut file)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans written to {}",
        w.name(),
        replay.tracer().spans().len(),
        path.display()
    );
    replay.shutdown();
    Ok(report)
}

fn print_summary(report: &Report, catalog: &[Metric]) {
    for m in catalog {
        let note = match m.bound {
            Some(bound) => format!("{} is better, bound {bound}", m.better),
            None if m.flat.is_empty() => format!("moves {}", m.moves),
            None if m.moves.is_empty() => format!("flat on {}", m.flat),
            None => format!("moves {}; flat on {}", m.moves, m.flat),
        };
        eprintln!(
            "  {:<36} {:>14.4} {:<6} {note}",
            m.name, report.metrics[m.name], m.unit
        );
    }
}

/// Runs one workload one way and checks the report's shape.
fn run(w: Workload, sizes: Sizes, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let (report, catalog) = if traced {
        (
            run_traced(
                w,
                sizes,
                seed,
                seconds,
                std::path::Path::new(".perfbench_out"),
            )?,
            PER_LAYER,
        )
    } else {
        (run_untraced(w, sizes, seed, seconds)?, END_TO_END)
    };
    report.check_against(catalog)?;
    print_summary(&report, catalog);
    Ok(report)
}

fn smoke() -> Result<bool, String> {
    let mut ok = true;
    for w in Workload::ALL {
        for traced in [false, true] {
            let report = run(w, SMOKE, 1, 0.0, traced)?;
            println!(
                "smoke {} trace={}: {}",
                w.name(),
                traced as u8,
                report.to_json()
            );
            ok &= report.correct && report.failed == 0;
        }
    }
    Ok(ok)
}

const USAGE: &str = "usage: gc-perfbench --workload <cold|warm|mutate|sharded> --seed N \
                     --seconds S --trace <0|1>\n       gc-perfbench --smoke";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--smoke"] {
        return Ok(None);
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                if flags.insert(k.as_str(), v.as_str()).is_some() {
                    return Err(format!("{k} given twice"));
                }
            }
            _ => return Err(format!("unexpected argument {}", pair[0])),
        }
    }
    let mut take = |k: &str| flags.remove(k).ok_or(format!("missing {k}"));
    let workload = take("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown option {k}"));
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match args {
        None => smoke().inspect(|ok| println!("smoke: {}", if *ok { "ok" } else { "FAILED" })),
        Some(a) => run(a.workload, FULL, a.seed, a.seconds, a.trace).map(|report| {
            println!("{}", report.to_json());
            true
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_net::WireObjective;
    use stats::samples_needed;

    #[test]
    fn prefix_covers_the_p90_rule() {
        assert!(PREFIX_OPS as usize >= samples_needed(0.9));
    }

    #[test]
    fn color_on_an_unsubmitted_graph_counts_as_failed_and_the_run_goes_on() {
        let tiny = Sizes {
            cold: 0.003,
            warm: 0.003,
            mutate: 0.003,
            sharded: 0.002,
        };
        let (mut bench, _) = Bench::setup(Workload::Sharded, tiny, 5).unwrap();
        let mut tally = Tally::default();
        assert!(tally
            .record(bench.color_op(0, 999, WireObjective::Balanced, 1))
            .is_none());
        assert!(tally.record(bench.run_op()).is_some());
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (2, 1, 0));
        assert_eq!(tally.succeeded(), 1);
        assert!(tally.report().correct);
        bench.shutdown();
    }

    #[test]
    fn args_follow_the_command_line_contract() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload warm --seed 9 --seconds 10 --trace 1"))
            .unwrap()
            .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Warm, 9, 10.0, true)
        );
        assert!(parse_args(&argv("--smoke")).unwrap().is_none());
        for bad in [
            "--workload hot --seed 1 --seconds 1 --trace 0",
            "--workload warm --seed 1 --seconds 1 --trace 2",
            "--workload warm --seed 1 --seconds 1",
            "--workload warm --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload warm --seed x --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
