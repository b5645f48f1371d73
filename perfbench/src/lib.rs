//! End-to-end and per-layer benchmark of the Diffy evaluation stack.
//!
//! Three workloads drive the crates' public functions:
//!
//! * `cold-sweep` — the five Table I models at 128² plus IRCNN at 256²,
//!   × {VAA, PRA, Diffy}, through a fresh `SweepCache` and
//!   `evaluate_points` on one job: the path of `report`, `precompute`
//!   and every first request.
//! * `serve-hot` — an in-process `Server` whose 16 keys are all resident,
//!   driven by one closed-loop keep-alive client.
//! * `serve-churn` — an in-process `Server` over a disk artifact tier
//!   whose memory tier holds far fewer results than the key set, driven
//!   by one closed-loop client (open loop in the traced run).
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a
//! traced run (`--trace 1`) times each layer from this crate's own code
//! and writes a span file plus a per-layer table. See `README.md`.

pub mod cold;
pub mod meta;
pub mod serve;
pub mod spans;
pub mod stats;

use diffy_core::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The seed whose cold-sweep cycle and traffic fingerprints are stored
/// as golden values.
pub const DEFAULT_SEED: u64 = 1;

/// The models' weight seed. The networks are fixed, as a user's are;
/// `--seed` picks the images they run on (see [`input_sample`]). Conv
/// cost depends on the weights alone, so runs under different seeds do
/// the same arithmetic on different pixels.
pub const MODEL_SEED: u64 = 1;

/// The dataset sample a run under `seed` evaluates.
pub fn input_sample(dataset: diffy_core::DatasetId, seed: u64) -> usize {
    (seed % dataset.samples() as u64) as usize
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold evaluation of the Table I grid.
    ColdSweep,
    /// Memory-tier hits on a warm server, closed loop.
    ServeHot,
    /// Tiered (memory/disk/compute) lookups on a server, closed loop
    /// (open loop in the traced run).
    ServeChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdSweep,
        Workload::ServeHot,
        Workload::ServeChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold-sweep",
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: `Full` is the benchmark; `Tiny` is the same code at
/// toy resolutions, for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` names.
    Full,
    /// Toy sizes that finish in seconds.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// How long the timed phase measures, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
    /// Directory (inside the checkout) for scratch files and outputs.
    pub out_dir: PathBuf,
}

/// Set-up repetitions of an untraced run; their median is `setup_s`.
/// Set-up is seconds of work on a shared host, so one repetition can
/// read 30% slow.
pub const SETUP_REPS: usize = 3;

/// Evaluations/requests whose spans a traced run writes to its span file.
pub const SPAN_FILE_GROUPS: u64 = 256;

/// End-to-end metrics, with units, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("throughput_rps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The configurations the cold sweep traces, as `(model, resolution)`
/// names; their conv layers are replayed for [`CONV_REPLAY`].
pub const COLD_CONFIGS: [&str; 6] = [
    "DnCNN-128",
    "FFDNet-128",
    "IRCNN-128",
    "JointNet-128",
    "VDSR-128",
    "IRCNN-256",
];

/// Cold-sweep configurations whose conv layers the traced run replays
/// one by one through `conv2d_fast`, with their conv-layer counts.
pub const CONV_REPLAY: [(&str, usize); 3] = [("DnCNN-128", 20), ("VDSR-128", 20), ("IRCNN-256", 7)];

/// Every per-layer metric a traced run reports, with its unit, in
/// `BENCHMARK.json` order. A layer a workload does not exercise reports
/// 0 for it.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("imaging.input_prep_ms".into(), "ms"),
        ("models.weight_gen_ms".into(), "ms"),
    ];
    for c in COLD_CONFIGS {
        m.push((format!("models.run_network_ms.{c}"), "ms"));
    }
    m.push(("models.requant_ms".into(), "ms"));
    m.push(("models.macs".into(), "count"));
    m.push(("models.imap_zero_share".into(), "share"));
    for (c, layers) in CONV_REPLAY {
        for l in 0..layers {
            m.push((format!("tensor.conv2d_fast_ms.{c}.L{l:02}"), "ms"));
        }
    }
    m.push(("sim.term_plane_build_ms".into(), "ms"));
    for a in ["vaa", "pra", "diffy"] {
        m.push((format!("sim.tile_sim_ms.{a}"), "ms"));
    }
    for a in ["vaa", "pra", "diffy"] {
        m.push((format!("sim.cycles.{a}"), "count"));
    }
    for (name, unit) in [
        ("memsys.traffic_ms", "ms"),
        ("memsys.traffic_bytes", "count"),
        ("core.combine_ms", "ms"),
        ("core.jobs_busy_share", "share"),
        ("core.result_lookup_us", "us"),
        ("core.artifact.load_us", "us"),
        ("core.artifact.store_us", "us"),
        ("core.cache.evictions", "count"),
        ("tier.memory_share", "share"),
        ("tier.disk_share", "share"),
        ("tier.compute_share", "share"),
        ("serve.http.read_request_us", "us"),
        ("core.json.parse_us", "us"),
        ("serve.protocol.from_json_us", "us"),
        ("serve.protocol.result_to_json_us", "us"),
        ("core.json.emit_us", "us"),
        ("serve.http.write_response_us", "us"),
        ("serve.transport_us", "us"),
        ("serve.queue_wait_ms.p50", "ms"),
        ("serve.keepalive_reuse_share", "share"),
        ("serve.generator_late_ms", "ms"),
        ("serve.open_loop_p99_ms", "ms"),
        ("trace_overhead_pct", "%"),
    ] {
        m.push((name.into(), unit));
    }
    m
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed (including wrong results).
    pub tally: stats::Tally,
    /// Correctness gates that failed, one line each.
    pub gate_failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Workload parameters (clients, rate, key count, tier capacity…).
    pub params: Vec<(String, JsonValue)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's span file.
    pub spans: Option<JsonValue>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a workload parameter.
    pub fn param(&mut self, name: &str, value: impl Into<JsonValue>) {
        self.params.push((name.to_string(), value.into()));
    }

    /// Records a failed correctness gate (it also counts as a failed
    /// operation, so it shows in the error ratio).
    pub fn fail(&mut self, why: String) {
        self.tally.attempted += 1;
        self.tally.failed += 1;
        self.gate_failures.push(why);
    }

    /// Whether every operation succeeded and every gate passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.gate_failures.is_empty() && self.tally.attempted > 0
    }
}

/// Runs one workload. An untraced run first pins itself, and so every
/// thread it starts, to one CPU: the closed loop's client and worker
/// then hand each request over by a context switch on that CPU instead
/// of waking an idle one, whose wake-up latency on a shared host follows
/// the host's load (see `README.md`). The traced run keeps every CPU for
/// its parallel sweep and its open loop.
pub fn run(cfg: &RunConfig) -> Report {
    std::fs::create_dir_all(&cfg.out_dir).expect("output directory is creatable");
    let pinned = if cfg.trace {
        None
    } else {
        meta::pin_to_one_cpu()
    };
    let mut report = match cfg.workload {
        Workload::ColdSweep => cold::run(cfg),
        Workload::ServeHot => serve::run_hot(cfg),
        Workload::ServeChurn => serve::run_churn(cfg),
    };
    if let Some(cpu) = pinned {
        report.param("pinned_cpu", cpu as u64);
    }
    report
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs set-up once, restarts the peak-RSS count and hands set-up's
/// product to `measure` (the timed phase), then records `peak_rss_mb`
/// unless `measure` did. Set-up then runs `reps - 1` more times, each
/// product dropped at once, and the median of all repetitions is
/// `setup_s`. The extra repetitions come after the timed phase because
/// the heap pages they free stay resident in varying amounts, which
/// would otherwise land in the timed phase's peak.
pub fn setup_then_measure<T, R>(
    reps: usize,
    report: &mut Report,
    mut setup: impl FnMut() -> T,
    measure: impl FnOnce(T, &mut Report) -> R,
) -> R {
    let (product, first) = timed(&mut setup);
    meta::reset_peak_rss();
    let resident = meta::peak_rss_mb();
    let out = measure(product, report);
    if !report.metrics.contains_key("peak_rss_mb") {
        report.set("peak_rss_mb", meta::peak_rss_mb());
    }
    let mut times = vec![first];
    for _ in 1..reps {
        times.push(timed(&mut setup).1);
    }
    report.set("setup_s", stats::median_of(&times));
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    report.notes.push(format!(
        "set-up repetitions: {} s; resident after the first {resident:.1} MiB",
        shown.join(", ")
    ));
    out
}

/// Nearest-rank p99 if the sample supports it, else the highest
/// supported percentile below it, else the slowest sample; returns the
/// value and the quantile actually reported (1.0 for the maximum).
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    for q in [0.99, 0.95, 0.9, 0.75, 0.5] {
        if let Some(v) = stats::percentile(sorted, q) {
            return (v, q);
        }
    }
    (sorted.last().copied().unwrap_or(0.0), 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_within_the_name_rules() {
        let cat = per_layer_catalogue();
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &cat {
            assert!(seen.insert(name.clone()), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!(cat.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = diffy_core::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(JsonValue::as_str)
                            .expect("string")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let per_layer: Vec<(String, String)> = per_layer_catalogue()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), per_layer);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn tail_falls_back_to_what_the_sample_supports() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 0.99));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 0.9));
        assert_eq!(tail(&[4.0, 9.0]), (9.0, 1.0));
    }
}
