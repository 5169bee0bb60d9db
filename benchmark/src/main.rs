//! `janus_benchmark`: one workload per process, end to end and layer by
//! layer. See `benchmark/README.md` for what is measured and why, and
//! `BENCHMARK.json` at the repo root for the contract the numbers obey.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload engine_stream --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it describes the
//! inputs and the machine. The exit code is non-zero when the correctness
//! gate fails.

mod inputs;
mod oracle;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{E2E, PER_LAYER};
use std::path::PathBuf;
use std::time::Instant;

/// Everything a workload needs to know about this run.
pub struct Ctx {
    pub sizing: workloads::Sizing,
    pub trace: bool,
    /// Where trace files and scratch datasets go (inside the checkout).
    pub out_dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("janus_benchmark refuses to measure a debug build: pass --release");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: janus_benchmark --workload <name> --seed <u64> --seconds <1..60> --trace <0|1> [--out <dir>]\n{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        sizing: workloads::Sizing::full(args.seconds),
        trace: args.trace,
        out_dir: args.out_dir,
    };

    let started = Instant::now();
    let inputs = inputs::Inputs::generate(args.seed, ctx.sizing.rows, ctx.sizing.queries);
    let gen_s = started.elapsed().as_secs_f64();
    let mut outcome = workloads::run(&args.workload, &inputs, &ctx);
    outcome
        .layers
        .set("harness.gen_s", gen_s + outcome.extra_gen_s);
    if ctx.trace {
        probes::run_all(&inputs, &ctx, &mut outcome);
        outcome.finish_trace(&args.workload, &ctx);
    }
    outcome.apply_gate(report::coverage_floor(&args.workload));

    println!(
        "{}",
        outcome.info_line(&args.workload, args.seed, args.seconds, ctx.trace)
    );
    for failure in &outcome.gate_failures {
        eprintln!("GATE: {failure}");
    }
    let table = if ctx.trace { &PER_LAYER[..] } else { &E2E[..] };
    println!("{}", outcome.result_line(table, ctx.trace));
    if !outcome.gate_failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Unit;

    /// The entries of one array section of `BENCHMARK.json`, each reduced
    /// to the string fields asked for.
    fn declared(section: &str, fields: &[&str]) -> Vec<Vec<String>> {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let Some(serde_json::Value::Array(entries)) = doc.get(section) else {
            panic!("{section} is not an array");
        };
        entries
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| {
                        entry
                            .get(f)
                            .and_then(|v| v.as_str())
                            .unwrap_or_else(|| panic!("{section}: entry without {f}"))
                            .to_string()
                    })
                    .collect()
            })
            .collect()
    }

    fn emitted(table: &[Unit]) -> Vec<Vec<String>> {
        table
            .iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect()
    }

    #[test]
    fn metric_tables_equal_benchmark_json() {
        assert_eq!(declared("end_to_end", &["name", "unit"]), emitted(&E2E));
        assert_eq!(
            declared("per_layer", &["name", "unit"]),
            emitted(&PER_LAYER)
        );
        let names: Vec<String> = declared("workloads", &["name"]).concat();
        assert_eq!(names, workloads::NAMES);
    }

    /// A smoke-sized pass of every workload, traced and untraced: every
    /// declared metric is emitted, finite, and the gate holds.
    #[test]
    fn every_workload_emits_every_declared_metric() {
        for name in workloads::NAMES {
            for trace in [false, true] {
                let ctx = Ctx {
                    sizing: workloads::Sizing::smoke(),
                    trace,
                    out_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                        .join(format!("out/test-{}-{name}", std::process::id())),
                };
                std::fs::create_dir_all(&ctx.out_dir).unwrap();
                let inputs = inputs::Inputs::generate(3, ctx.sizing.rows, ctx.sizing.queries);
                let mut outcome = workloads::run(name, &inputs, &ctx);
                outcome.layers.set("harness.gen_s", 0.001);
                if trace {
                    probes::run_all(&inputs, &ctx, &mut outcome);
                    outcome.finish_trace(name, &ctx);
                }
                outcome.apply_gate(report::coverage_floor(name));
                let table = if trace { &PER_LAYER[..] } else { &E2E[..] };
                let metrics = if trace { &outcome.layers } else { &outcome.e2e };
                for (metric, _) in table {
                    let v = metrics
                        .get(metric)
                        .unwrap_or_else(|| panic!("{name} trace={trace}: {metric} missing"));
                    assert!(v.is_finite(), "{name} trace={trace}: {metric} = {v}");
                    if !trace {
                        assert!(
                            v > 0.0,
                            "{name}: end-to-end {metric} = {v} must be positive"
                        );
                    }
                }
                for (metric, _) in metrics.iter() {
                    assert!(
                        table.iter().any(|(n, _)| *n == metric),
                        "{name} trace={trace}: {metric} is not declared in BENCHMARK.json"
                    );
                }
                // Smoke sizes are too small for the statistical floor, so
                // only the exact checks are asserted here.
                let exact: Vec<_> = outcome
                    .gate_failures
                    .iter()
                    .filter(|f| !f.starts_with("ci_coverage"))
                    .collect();
                assert!(exact.is_empty(), "{name} trace={trace}: {exact:?}");
                assert!(outcome.attempted > 0 && outcome.failed == 0, "{name}");
                let _ = std::fs::remove_dir_all(&ctx.out_dir);
            }
        }
    }
}
