//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics). Full
//! results with host metadata, and the traced run's span file and
//! per-layer table, are written under `.bench_out/` in the working
//! directory.

use diffy_core::JsonValue;
use diffy_perfbench::{meta, per_layer_catalogue, run, RunConfig, Size, Workload, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <cold-sweep|serve-hot|serve-churn> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed takes a non-negative integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => return usage("--seconds takes a number in (0, 600]"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        out_dir: PathBuf::from(".bench_out").join(format!(
            "{}-seed{seed}-trace{}",
            workload.name(),
            trace as u8
        )),
    };

    let report = run(&cfg);

    let names: Vec<(String, &str)> = if trace {
        per_layer_catalogue()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics: Vec<(String, JsonValue)> = names
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            let v = JsonValue::object(vec![("value", value.into()), ("unit", (*unit).into())]);
            (name.clone(), v)
        })
        .collect();

    for line in &report.notes {
        println!("{line}");
    }
    for why in &report.gate_failures {
        println!("GATE FAILED: {why}");
    }
    println!(
        "error_ratio {} ({} failed of {} attempted)",
        report.tally.error_ratio(),
        report.tally.failed,
        report.tally.attempted
    );
    if trace {
        println!("{}", layer_table(&names, &report.metrics));
    }

    let correct = report.correct();
    let params = JsonValue::Object(report.params.clone());
    let full = JsonValue::object(vec![
        ("workload", workload.name().into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("trace", (trace as u64).into()),
        ("correct", JsonValue::Bool(correct)),
        ("attempted", report.tally.attempted.into()),
        ("failed", report.tally.failed.into()),
        ("error_ratio", report.tally.error_ratio().into()),
        ("params", params),
        ("host", meta::host()),
        ("metrics", JsonValue::Object(metrics.clone())),
    ]);
    write(&cfg.out_dir.join("result.json"), &full.to_json());
    if let Some(spans) = &report.spans {
        write(&cfg.out_dir.join("spans.json"), &spans.to_json());
        write(
            &cfg.out_dir.join("layers.md"),
            &layer_table(&names, &report.metrics),
        );
    }
    println!("results: {}", cfg.out_dir.display());

    let last = JsonValue::object(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", report.tally.attempted.into()),
        ("failed", report.tally.failed.into()),
        ("metrics", JsonValue::Object(metrics)),
    ]);
    println!("{}", last.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write(path: &std::path::Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// The per-layer table: one row per metric, grouped by layer.
fn layer_table(
    names: &[(String, &str)],
    values: &std::collections::BTreeMap<String, f64>,
) -> String {
    let mut out = String::from("| layer | metric | value | unit |\n|---|---|---|---|\n");
    for (name, unit) in names {
        let layer = name.split('.').next().unwrap_or(name);
        let v = values.get(name).copied().unwrap_or(0.0);
        out.push_str(&format!("| {layer} | {name} | {v:.6} | {unit} |\n"));
    }
    out
}
