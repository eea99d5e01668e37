//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [table1|table2|fig1|fig1a|fig1b|fig2|fig3|ablation|powerlaw|all]
//!       [--scale F] [--seed N] [--rgg MIN:MAX] [--diameter-samples N]
//!       [--full] [--csv DIR]
//! repro trace <colorer> <dataset> [--scale F] [--seed N]
//!       [--trace FILE] [--jsonl FILE] [--metrics FILE] [--model-clock]
//! repro bench [--scale F] [--seed N] [--devices N[,M...]] [--quality] [--out FILE]
//! repro scale-sweep [--rgg MIN:MAX] [--seed N] [--out FILE]
//! repro bench-check <FILE>
//! repro serve [--port N] [--workers N]
//! repro net-smoke
//! repro --help          # every subcommand with a one-line description
//! ```
//!
//! Default scale synthesizes each dataset at 20% of the paper's vertex
//! count, which preserves every qualitative comparison while keeping the
//! sweep interactive. `--full` uses the paper's extents (slow).
//!
//! Observability: `trace` captures one colorer × dataset run.
//! `--trace` writes a Chrome trace-event JSON (load at
//! `ui.perfetto.dev`), `--jsonl` a newline-delimited span log, and
//! `--metrics` a Prometheus text dump (files default to
//! `trace.json`/`trace.jsonl` when the flags are omitted).
//!
//! `serve` exposes the coloring service over the gc-net TCP wire
//! protocol until a client sends the Shutdown verb. `net-smoke` is the
//! CI round-trip: submit a small graph, color, mutate, verify the
//! merged coloring, shut the server down cleanly.
//!
//! `bench` runs every Figure 1 colorer twice per dataset — once with
//! the paper's launch shape (full-width frontiers, one dispatch per
//! operator), once with today's default path (compacted frontiers in
//! replayed launch graphs) — and writes the before/after matrix as a
//! `gc-bench-coloring/v7` JSON document (default `BENCH_coloring.json`,
//! override with `--out`). `--devices N[,M...]` (counts > 1) adds
//! sharded rows over the two largest datasets: every GPU colorer runs
//! once per device count through `gc_shard::run_sharded`, reporting
//! per-device maximum
//! work, halo traffic (full vs delta), overlap ratio, and the sharding
//! efficiency next to the single-device baseline; each sharded wall
//! time is the median of three runs that must agree exactly. `--quality`
//! adds the colors-vs-model-time pareto sweep: every Figure 1 colorer
//! plus both short-cutting IS variants and the `Naumov/Color_CC+reduce`
//! post-pass arm per dataset, gated by the document's `quality_budget`
//! (that arm, the MinColors route, at no more colors than CPU greedy
//! with >= 3x fewer thread executions than GraphBLAST MIS).
//!
//! `scale-sweep` runs the Figure 4 RGG scaling study at paper extents:
//! three representative colorers over `rgg_n_2_{MIN..MAX}_s0` (default
//! 15:24) on K40c devices, writing a `gc-bench-scale/v1` document
//! (default `BENCH_scale.json`) whose every row is host-verified.
//!
//! `bench-check FILE` re-validates any committed benchmark document,
//! dispatching on its `schema` field — coloring (launch counts never
//! regressed, rows verified, conflict-round caps, per-row wall-clock
//! budget) or scale (contiguous coverage, verified rows,
//! throughput-collapse bound) — and exits non-zero when it is malformed
//! or regressed (the CI smoke step).

use std::fs;
use std::process::ExitCode;

use gc_bench::experiments::{self, ExperimentConfig};
use gc_bench::format;

/// Every subcommand `repro` accepts, with a one-line description —
/// the single source the first-argument parser and `--help` both use.
const SUBCOMMANDS: [(&str, &str); 16] = [
    ("table1", "Table I dataset statistics"),
    ("table2", "Table II optimization effects per implementation"),
    (
        "fig1",
        "Figure 1 runtime + color-count matrix (fig1a and fig1b)",
    ),
    ("fig1a", "Figure 1a: model runtime per colorer and dataset"),
    ("fig1b", "Figure 1b: colors used per colorer and dataset"),
    ("fig2", "Figure 2 time/quality trade-off scatter"),
    ("fig3", "Figure 3 RGG scaling sweep"),
    (
        "ablation",
        "hash-size / weight-mode / load-balance / extension / device ablations",
    ),
    ("powerlaw", "power-law (Barabasi-Albert) extension study"),
    (
        "trace",
        "trace one <colorer> <dataset> run to chrome-trace + span-log files",
    ),
    (
        "bench",
        "before/after perf matrix (--devices N adds sharded rows, --quality the pareto sweep)",
    ),
    (
        "scale-sweep",
        "RGG scaling sweep at paper extents on K40c devices (Figure 4)",
    ),
    (
        "bench-check",
        "validate a BENCH_coloring/scale JSON document; non-zero exit on regression",
    ),
    (
        "serve",
        "run a gc-net TCP coloring server until a client sends Shutdown",
    ),
    (
        "net-smoke",
        "loopback round-trip: submit, color, mutate, verify, shut down",
    ),
    (
        "all",
        "table1, table2, fig1, fig2, fig3, ablation, and powerlaw (the default)",
    ),
];

/// The complete usage text: every subcommand with its description, then
/// the option set.
fn usage() -> String {
    let mut out = String::from("usage: repro [SUBCOMMAND] [OPTIONS]\n\nsubcommands:\n");
    for (name, desc) in SUBCOMMANDS {
        out.push_str(&format!("  {name:<14}{desc}\n"));
    }
    out.push_str(
        "\noperand forms:\n\
         \x20 repro trace <colorer> <dataset> [--model-clock]\n\
         \x20 repro bench [--devices N] [--quality] [--out FILE]\n\
         \x20 repro scale-sweep [--rgg MIN:MAX] [--out FILE]   (default range 15:24)\n\
         \x20 repro bench-check <FILE>\n\
         \x20 repro serve [--port N] [--workers N]\n\
         \noptions:\n\
         \x20 --scale F             fraction of each dataset's paper vertex count (default 0.2)\n\
         \x20 --seed N              RNG seed for synthesis and coloring (default 42)\n\
         \x20 --rgg MIN:MAX         inclusive RGG scale range for the fig3 sweep\n\
         \x20 --diameter-samples N  BFS sources for the Table I diameter estimate\n\
         \x20 --full                the paper's full extents (slow)\n\
         \x20 --csv DIR             also write fig1/fig3 CSVs into DIR\n\
         \x20 --workers N           serve worker threads (default 4)\n\
         \x20 --devices N[,M...]    virtual device counts for the bench sharded rows; each\n\
         \x20                       count > 1 adds a sharded row family (default 1)\n\
         \x20 --quality             bench: add the quality-tier pareto sweep (short-cutting\n\
         \x20                       IS variants, Naumov/Color_CC+reduce post-pass arm)\n\
         \x20 --port N              serve listen port (default 7711, 0 = ephemeral)\n\
         \x20 --trace FILE          trace: write a Chrome trace-event JSON\n\
         \x20 --jsonl FILE          trace: write a newline-delimited span log\n\
         \x20 --metrics FILE        trace: write a Prometheus text dump\n\
         \x20 --out FILE            bench/scale-sweep output file (default\n\
         \x20                       BENCH_coloring.json or BENCH_scale.json)\n\
         \x20 --model-clock         trace timestamps from the device model clock\n\
         \x20 --help                print this help\n",
    );
    out
}

struct Args {
    command: String,
    cfg: ExperimentConfig,
    /// Whether `--rgg` was given explicitly (`scale-sweep` defaults to
    /// the paper's 15:24 when it was not).
    rgg_set: bool,
    csv_dir: Option<String>,
    workers: usize,
    /// Virtual device counts for the `bench` sharded rows; each entry
    /// above 1 adds a family of sharded rows at that count.
    devices: Vec<usize>,
    /// `bench --quality`: run the colors-vs-time pareto sweep too.
    quality: bool,
    trace_out: Option<String>,
    jsonl_out: Option<String>,
    metrics_out: Option<String>,
    /// Output file of the `bench`/`scale-sweep` subcommands.
    out: Option<String>,
    model_clock: bool,
    /// Listen port of the `serve` subcommand.
    port: u16,
    /// Positional operands of the `trace`/`bench-check` subcommands.
    operands: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut command = String::from("all");
    let mut cfg = ExperimentConfig::default();
    let mut rgg_set = false;
    let mut csv_dir = None;
    let mut workers = 4;
    let mut devices = vec![1];
    let mut quality = false;
    let mut trace_out = None;
    let mut jsonl_out = None;
    let mut metrics_out = None;
    let mut out = None;
    let mut model_clock = false;
    let mut port = 7711u16;
    let mut operands = Vec::new();
    let mut first = true;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" | "help" => {
                command = String::from("help");
                break;
            }
            sub if first && SUBCOMMANDS.iter().any(|(name, _)| *name == sub) => {
                command = a;
            }
            "--scale" => {
                cfg.scale = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--seed" => {
                cfg.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--rgg" => {
                let v = args.next().ok_or("--rgg needs MIN:MAX")?;
                let (lo, hi) = v.split_once(':').ok_or("--rgg format is MIN:MAX")?;
                cfg.rgg_min = lo.parse().map_err(|e| format!("bad rgg min: {e}"))?;
                cfg.rgg_max = hi.parse().map_err(|e| format!("bad rgg max: {e}"))?;
                rgg_set = true;
            }
            "--diameter-samples" => {
                cfg.diameter_samples = args
                    .next()
                    .ok_or("--diameter-samples needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --diameter-samples: {e}"))?;
            }
            "--full" => {
                cfg = ExperimentConfig::full();
                rgg_set = true;
            }
            "--csv" => csv_dir = Some(args.next().ok_or("--csv needs a directory")?),
            "--workers" => {
                workers = args
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--devices" => {
                devices = args
                    .next()
                    .ok_or("--devices needs a value")?
                    .split(',')
                    .map(|d| d.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("bad --devices: {e}"))?;
                if devices.is_empty() || devices.contains(&0) {
                    return Err("bad --devices: counts must be >= 1".into());
                }
            }
            "--quality" => quality = true,
            "--trace" => trace_out = Some(args.next().ok_or("--trace needs a file")?),
            "--jsonl" => jsonl_out = Some(args.next().ok_or("--jsonl needs a file")?),
            "--metrics" => metrics_out = Some(args.next().ok_or("--metrics needs a file")?),
            "--out" => out = Some(args.next().ok_or("--out needs a file")?),
            "--model-clock" => model_clock = true,
            "--port" => {
                port = args
                    .next()
                    .ok_or("--port needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --port: {e}"))?;
            }
            other
                if (command == "trace" || command == "bench-check") && !other.starts_with('-') =>
            {
                operands.push(other.to_string());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        first = false;
    }
    Ok(Args {
        command,
        cfg,
        rgg_set,
        csv_dir,
        workers,
        devices,
        quality,
        trace_out,
        jsonl_out,
        metrics_out,
        out,
        model_clock,
        port,
        operands,
    })
}

/// Writes `content` to `path`, reporting the artifact on stdout.
fn write_artifact(path: &str, what: &str, content: &str) -> Result<(), String> {
    fs::write(path, content).map_err(|e| format!("writing {path}: {e}"))?;
    println!("{what} written to {path}");
    Ok(())
}

/// Writes each `(file name, content)` CSV into `dir`, creating it
/// first; writes nothing, and creates no directory, when `csvs` is
/// empty.
fn write_csvs(dir: &str, csvs: &[(&str, String)]) -> Result<(), String> {
    if csvs.is_empty() {
        return Ok(());
    }
    fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    for (name, csv) in csvs {
        write_artifact(&format!("{dir}/{name}"), "CSV", csv)?;
    }
    Ok(())
}

/// The CI loopback smoke: a full client lifecycle against a real TCP
/// server — submit, color, mutate, re-fetch, host-verify, shut down.
fn net_smoke() -> Result<(), String> {
    use gc_net::{NetClient, NetServerConfig, Server, WireObjective};

    let server = Server::start("127.0.0.1:0", NetServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    println!("net-smoke: server on {addr}");
    let g = gc_graph::generators::grid2d(32, 32, gc_graph::generators::Stencil2d::FivePoint);
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let ack = client
        .submit_graph(7, &g)
        .map_err(|e| format!("submit: {e}"))?;
    println!(
        "net-smoke: submitted {} vertices (fingerprint {:016x})",
        g.num_vertices(),
        ack.fingerprint
    );
    let summary = client
        .color(7, WireObjective::Balanced, 42, 0)
        .map_err(|e| format!("color: {e}"))?;
    if !summary.verified {
        return Err("colored reply not verified".into());
    }
    println!(
        "net-smoke: colored with {} ({} colors)",
        summary.colorer, summary.num_colors
    );
    let far = (g.num_vertices() - 1) as u32;
    let delta = gc_graph::EdgeDelta {
        insert: vec![(0, far), (1, far - 1)],
        delete: vec![(0, 1)],
    };
    let mutated = client
        .mutate_edges(7, &delta)
        .map_err(|e| format!("mutate: {e}"))?;
    println!(
        "net-smoke: mutated to version {} (frontier {}, {} repair rounds, revalidated {})",
        mutated.version, mutated.frontier, mutated.repair_rounds, mutated.revalidated
    );
    let merged = gc_graph::apply_edge_delta(&g, &delta)
        .map_err(|e| format!("local delta: {e}"))?
        .graph;
    let result = client
        .get_result(7)
        .map_err(|e| format!("get_result: {e}"))?;
    gc_core::verify::is_proper(&merged, &result.colors)
        .map_err(|e| format!("merged coloring not proper: {e}"))?;
    println!("net-smoke: merged coloring verified proper on the host");
    client
        .shutdown_server()
        .map_err(|e| format!("shutdown: {e}"))?;
    server.join();
    println!("net-smoke: server shut down cleanly");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if args.command == "help" {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let cfg = args.cfg;
    println!(
        "# gc-gpu reproduction harness | scale={} seed={} rgg={}..={}\n",
        cfg.scale, cfg.seed, cfg.rgg_min, cfg.rgg_max
    );

    let want = |x: &str| args.command == x || args.command == "all";

    if want("table1") {
        println!("{}", format::render_table1(&experiments::table1(&cfg)));
    }
    if want("table2") {
        println!("{}", format::render_table2(&experiments::table2(&cfg)));
    }
    let need_fig1 =
        want("fig1") || args.command == "fig1a" || args.command == "fig1b" || want("fig2");
    let fig1_data = if need_fig1 {
        Some(experiments::fig1(&cfg))
    } else {
        None
    };
    if let Some(data) = &fig1_data {
        if want("fig1") || args.command == "fig1a" {
            println!("{}", format::render_fig1a(data));
        }
        if want("fig1") || args.command == "fig1b" {
            println!("{}", format::render_fig1b(data));
        }
        if want("fig2") {
            println!("{}", format::render_fig2(&experiments::fig2(data)));
        }
    }
    if want("ablation") {
        println!(
            "{}",
            format::render_ablations(
                &experiments::ablation_hash_size(&cfg),
                &experiments::ablation_weight_mode(&cfg),
                &experiments::ablation_load_balance(&cfg),
                &experiments::ablation_extensions(&cfg),
            )
        );
        println!(
            "{}",
            format::render_devices(&experiments::ablation_devices(&cfg))
        );
    }
    if want("powerlaw") {
        println!(
            "{}",
            format::render_powerlaw(&experiments::ext_powerlaw(&cfg))
        );
    }
    if args.command == "trace" {
        let [colorer, dataset] = args.operands.as_slice() else {
            eprintln!(
                "error: trace needs exactly <colorer> <dataset>, got {:?}",
                args.operands
            );
            return ExitCode::FAILURE;
        };
        let cap = match gc_bench::trace::trace_colorer(colorer, dataset, &cfg) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", format::render_trace_summary(&cap));
        let chrome = if args.model_clock {
            &cap.chrome_trace_model
        } else {
            &cap.chrome_trace
        };
        let trace_path = args.trace_out.as_deref().unwrap_or("trace.json");
        let jsonl_path = args.jsonl_out.as_deref().unwrap_or("trace.jsonl");
        let mut writes = vec![
            write_artifact(trace_path, "chrome trace", chrome),
            write_artifact(jsonl_path, "span log", &cap.jsonl),
        ];
        if let Some(p) = &args.metrics_out {
            writes.push(write_artifact(p, "metrics", &cap.prometheus));
        }
        for w in writes {
            if let Err(e) = w {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    if args.command == "bench" {
        let report = gc_bench::coloring_bench::coloring_bench(&cfg, &args.devices, args.quality);
        println!("{}", format::render_coloring_bench(&report));
        let json = gc_bench::coloring_bench::to_json(&report);
        if let Err(e) = gc_bench::coloring_bench::validate_report_json(&json) {
            eprintln!("error: emitted JSON failed self-validation: {e}");
            return ExitCode::FAILURE;
        }
        let path = args.out.as_deref().unwrap_or("BENCH_coloring.json");
        if let Err(e) = write_artifact(path, "coloring bench report", &json) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if args.command == "scale-sweep" {
        // Without an explicit --rgg range, sweep the paper's full
        // Figure 4 family, up to scale 24 (16.8M vertices, ~150M
        // undirected edges — the banded-parallel RGG generator and the
        // profiler's bounded per-kernel totals keep it tractable on the
        // host).
        let (lo, hi) = if args.rgg_set {
            (cfg.rgg_min, cfg.rgg_max)
        } else {
            (15, 24)
        };
        let report = gc_bench::scale_sweep::scale_sweep(lo, hi, cfg.seed);
        println!("{}", format::render_scale_sweep(&report));
        let json = gc_bench::scale_sweep::to_json(&report);
        if let Err(e) = gc_bench::scale_sweep::validate_report_json(&json) {
            eprintln!("error: emitted JSON failed self-validation: {e}");
            return ExitCode::FAILURE;
        }
        let path = args.out.as_deref().unwrap_or("BENCH_scale.json");
        if let Err(e) = write_artifact(path, "scale sweep report", &json) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if args.command == "bench-check" {
        let [path] = args.operands.as_slice() else {
            eprintln!(
                "error: bench-check needs exactly one FILE operand, got {:?}",
                args.operands
            );
            return ExitCode::FAILURE;
        };
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Dispatch on the document's own schema field, so one CI rule
        // covers both artifact families.
        let schema = gc_telemetry::json::parse(&text)
            .ok()
            .and_then(|d| d.get("schema").and_then(|s| s.as_str()));
        let checked = match schema.as_deref() {
            Some(gc_bench::scale_sweep::SCHEMA) => {
                gc_bench::scale_sweep::validate_report_json(&text)
                    .map(|()| gc_bench::scale_sweep::SCHEMA)
            }
            _ => gc_bench::coloring_bench::validate_report_json(&text)
                .map(|()| gc_bench::coloring_bench::SCHEMA),
        };
        return match checked {
            Ok(schema) => {
                println!("{path}: valid {schema} document");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.command == "serve" {
        let server = match gc_net::Server::start(
            &format!("127.0.0.1:{}", args.port),
            gc_net::NetServerConfig {
                service: gc_service::ServiceConfig {
                    workers: args.workers.max(1),
                    ..gc_service::ServiceConfig::default()
                },
            },
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: binding 127.0.0.1:{}: {e}", args.port);
                return ExitCode::FAILURE;
            }
        };
        println!(
            "gc-net server listening on {} ({} workers); \
             send the Shutdown verb to stop",
            server.local_addr(),
            args.workers.max(1)
        );
        server.join();
        println!("server stopped");
        return ExitCode::SUCCESS;
    }

    if args.command == "net-smoke" {
        return match net_smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: net-smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Figure 3 is the scale sweep's two IS colorers over `--rgg`.
    let fig3_data = if want("fig3") {
        Some(gc_bench::scale_sweep::scale_sweep(
            cfg.rgg_min,
            cfg.rgg_max,
            cfg.seed,
        ))
    } else {
        None
    };
    if let Some(report) = &fig3_data {
        println!("{}", format::render_fig3(report));
    }

    if let Some(dir) = &args.csv_dir {
        let mut csvs = Vec::new();
        if let Some(data) = &fig1_data {
            csvs.push(("fig1.csv", format::fig1_csv(data)));
        }
        if let Some(report) = &fig3_data {
            csvs.push(("fig3.csv", format::fig3_csv(report)));
        }
        if let Err(e) = write_csvs(dir, &csvs) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    // `repro --help` once omitted bench/bench-check/trace; this pins the
    // help text to the parser's actual subcommand table.
    #[test]
    fn usage_mentions_every_subcommand_with_a_description() {
        let text = usage();
        for (name, desc) in SUBCOMMANDS {
            assert!(
                text.lines().any(|l| {
                    let l = l.trim_start();
                    l.starts_with(name) && l.contains(desc)
                }),
                "usage text is missing subcommand {name:?} with its description"
            );
            assert!(!desc.is_empty());
        }
    }

    #[test]
    fn csv_write_failures_are_errors_and_no_csv_writes_nothing() {
        let root = std::env::temp_dir().join(format!("repro-csv-{}", std::process::id()));
        // A directory squatting on a CSV's file name makes its write fail.
        fs::create_dir_all(root.join("fig1.csv")).unwrap();
        let dir = root.to_str().unwrap();
        assert!(write_csvs(dir, &[("fig1.csv", "a,b\n".into())]).is_err());
        write_csvs(dir, &[("fig3.csv", "a,b\n".into())]).unwrap();
        assert_eq!(fs::read_to_string(root.join("fig3.csv")).unwrap(), "a,b\n");
        let untouched = root.join("none");
        write_csvs(untouched.to_str().unwrap(), &[]).unwrap();
        assert!(!untouched.exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn usage_documents_the_option_set() {
        let text = usage();
        for opt in [
            "--scale",
            "--seed",
            "--rgg",
            "--diameter-samples",
            "--full",
            "--csv",
            "--workers",
            "--devices",
            "--quality",
            "--trace",
            "--jsonl",
            "--metrics",
            "--out",
            "--model-clock",
            "--port",
            "--help",
        ] {
            assert!(text.contains(opt), "usage text is missing option {opt}");
        }
    }
}
