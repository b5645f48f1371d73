//! Every workload, untraced and traced, at toy sizes under a seed other
//! than the golden one: each run must pass every gate and report every
//! metric.

use diffy_perfbench::{per_layer_catalogue, run, RunConfig, Size, Workload, END_TO_END};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool) -> diffy_perfbench::Report {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "tiny-{}-trace{}",
        workload.name(),
        trace as u8
    ));
    let cfg = RunConfig {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        size: Size::Tiny,
        out_dir,
    };
    let report = run(&cfg);
    assert!(
        report.correct(),
        "{} trace={trace}: gates {:?}, tally {:?}",
        workload.name(),
        report.gate_failures,
        report.tally
    );
    report
}

#[test]
fn untraced_runs_pass_and_report_every_end_to_end_metric() {
    for w in Workload::ALL {
        let report = tiny(w, false);
        for (name, _) in END_TO_END {
            let v = report.metrics.get(name).copied().unwrap_or(0.0);
            assert!(v > 0.0 && v.is_finite(), "{}: {name} = {v}", w.name());
        }
    }
}

#[test]
fn traced_runs_pass_and_show_each_workloads_layers() {
    let get = |r: &diffy_perfbench::Report, name: &str| r.metrics.get(name).copied().unwrap_or(0.0);
    let cold = tiny(Workload::ColdSweep, true);
    for (name, _) in per_layer_catalogue() {
        if name.starts_with("models.run_network_ms.")
            || name.starts_with("tensor.")
            || name == "models.requant_ms"
        {
            assert!(get(&cold, &name) > 0.0, "cold-sweep {name}");
        }
    }
    assert!(cold.spans.is_some());

    let hot = tiny(Workload::ServeHot, true);
    for name in [
        "models.run_network_ms.IRCNN-128",
        "sim.tile_sim_ms.pra",
        "tier.disk_share",
    ] {
        assert_eq!(get(&hot, name), 0.0, "serve-hot does no {name} work");
    }
    assert_eq!(get(&hot, "tier.memory_share"), 1.0);
    assert!(get(&hot, "core.result_lookup_us") > 0.0);

    let churn = tiny(Workload::ServeChurn, true);
    for name in [
        "tier.memory_share",
        "tier.disk_share",
        "tier.compute_share",
        "core.artifact.load_us",
    ] {
        assert!(get(&churn, name) > 0.0, "serve-churn {name}");
    }
}
