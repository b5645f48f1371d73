//! `cold-sweep`: the five Table I models at 128² plus IRCNN at 256², one
//! sample each × {VAA, PRA, Diffy} under DeltaD16/DDR4-3200 — 18 points
//! over 6 traces — through a fresh `SweepCache` and `evaluate_points` on
//! one job.
//!
//! The traced run replays the same evaluations serially, layer by layer:
//! weight generation, input preparation, `run_network`, term-plane
//! builds, the three tile simulators, the traffic model and the timing
//! combine, plus every conv layer of three configurations re-run through
//! `conv2d_fast`.

use crate::spans::Recorder;
use crate::stats::{self, Outcome, Tally};
use crate::{
    input_sample, setup_then_measure, tail, timed, Report, RunConfig, Size, COLD_CONFIGS,
    CONV_REPLAY, MODEL_SEED, SETUP_REPS, SPAN_FILE_GROUPS,
};
use diffy_core::accelerator::{evaluate_network, network_scheme_traffic, LayerResult};
use diffy_core::artifact::fnv1a64;
use diffy_core::runner::{ci_weights, datasets_for, EvalPoint, SweepCache, WorkloadOptions};
use diffy_core::{EvalOptions, Jobs, NetworkResult, SchemeChoice};
use diffy_encoding::StorageScheme;
use diffy_memsys::{combine, LayerTraffic};
use diffy_models::{run_network, CiModel, LayerTrace, NetworkTrace, NetworkWeights};
use diffy_sim::term_serial::{term_serial_network_with_terms, PaddedTerms, ValueMode};
use diffy_sim::{vaa_network, Architecture, NetworkCycles};
use diffy_tensor::ops::relu_inplace;
use diffy_tensor::{conv2d_fast, sat16, Tensor3};
use std::hint::black_box;
use std::sync::Arc;

/// The architectures every trace is priced on.
pub const ARCHS: [Architecture; 3] = [Architecture::Vaa, Architecture::Pra, Architecture::Diffy];

/// Largest share of a cold evaluation's wall time its child spans may
/// leave uncovered.
pub const TILING_TOLERANCE: f64 = 0.03;

/// The traced configurations as `(model, resolution)`, index-aligned
/// with [`COLD_CONFIGS`] (the tiny size keeps the names, shrinks the
/// images).
pub fn configs(size: Size) -> Vec<(CiModel, usize)> {
    let (base, large) = match size {
        Size::Full => (128, 256),
        Size::Tiny => (32, 48),
    };
    let mut c: Vec<(CiModel, usize)> = CiModel::ALL.iter().map(|&m| (m, base)).collect();
    c.push((CiModel::Ircnn, large));
    c
}

/// The warm-up sweep resolution: small enough to be cheap, large
/// enough to run every code path of the timed sweep.
const WARMUP_RESOLUTION: usize = 16;

/// The resolution of the tracing-overhead replays: short enough for
/// many pairs, long enough that the recorder's fixed cost per span is
/// not most of a replay, as it would be at 16².
const OVERHEAD_RESOLUTION: usize = 32;

fn scheme() -> SchemeChoice {
    SchemeChoice::Scheme(StorageScheme::delta_d(16))
}

fn workload(resolution: usize) -> WorkloadOptions {
    WorkloadOptions {
        resolution,
        samples_per_dataset: 1,
        seed: MODEL_SEED,
    }
}

/// The sweep's points — the seed's sample of each model's first
/// dataset — architecture-major: the first `nproc` points
/// name distinct traces, so the workers start on different trace builds
/// instead of queueing behind one in-flight build.
pub fn points(configs: &[(CiModel, usize)], seed: u64) -> Vec<EvalPoint> {
    let mut pts = Vec::new();
    for arch in ARCHS {
        for &(model, res) in configs {
            let dataset = datasets_for(model)[0];
            pts.push(EvalPoint {
                model,
                dataset,
                sample: input_sample(dataset, seed),
                workload: workload(res),
                eval: EvalOptions::new(arch, scheme()),
            });
        }
    }
    pts
}

/// `config/arch` label of a point.
pub fn label(p: &EvalPoint) -> String {
    format!(
        "{}-{}/{}",
        p.model.name(),
        p.workload.resolution,
        p.eval.arch.name()
    )
}

/// A result's fingerprint: total compute cycles and an FNV-1a hash of
/// every layer's traffic counters.
pub fn fingerprint(r: &NetworkResult) -> (u64, u64) {
    let cycles = r.layers.iter().map(|l| l.compute.cycles).sum();
    let mut bytes = Vec::with_capacity(r.layers.len() * 24);
    for l in &r.layers {
        for v in [
            l.traffic.imap_read_bytes,
            l.traffic.omap_write_bytes,
            l.traffic.weight_bytes,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    (cycles, fnv1a64(&bytes))
}

/// Golden `(label, cycles, traffic fingerprint)` of every point at
/// [`crate::DEFAULT_SEED`].
pub fn golden(size: Size) -> &'static [(&'static str, u64, u64)] {
    match size {
        Size::Full => GOLDEN_FULL,
        Size::Tiny => GOLDEN_TINY,
    }
}

/// Compares results with golden fingerprints; one line per mismatch.
pub fn check_golden(
    points: &[EvalPoint],
    results: &[NetworkResult],
    golden: &[(&str, u64, u64)],
) -> Vec<String> {
    let mut bad = Vec::new();
    if golden.len() != points.len() {
        bad.push(format!(
            "golden table has {} points, sweep has {}",
            golden.len(),
            points.len()
        ));
        for (p, r) in points.iter().zip(results) {
            let (cycles, traffic) = fingerprint(r);
            bad.push(format!("    (\"{}\", {cycles}, {traffic}),", label(p)));
        }
        return bad;
    }
    for ((p, r), &(name, cycles, traffic)) in points.iter().zip(results).zip(golden) {
        let got = fingerprint(r);
        if label(p) != name || got != (cycles, traffic) {
            bad.push(format!(
                "{}: got {got:?}, golden {name} ({cycles}, {traffic})",
                label(p)
            ));
        }
    }
    bad
}

/// Checks one parallel sweep: every point equals a serial evaluation of
/// the same trace, and (at the default seed) its golden fingerprint.
fn check_sweep(
    cache: &SweepCache,
    points: &[EvalPoint],
    results: &[NetworkResult],
    seed: u64,
    size: Size,
    report: &mut Report,
) -> Tally {
    let mut tally = Tally::default();
    for (p, r) in points.iter().zip(results) {
        let bundle = cache.bundle(p.model, p.dataset, p.sample, &p.workload);
        let matches = evaluate_network(&bundle.trace, &p.eval) == *r;
        tally.record(if matches { Outcome::Ok } else { Outcome::Wrong });
        if !matches {
            let why = format!("{}: parallel result differs from serial", label(p));
            report.gate_failures.push(why);
        }
    }
    if results.len() != points.len() {
        report.fail(format!(
            "sweep returned {} of {} results",
            results.len(),
            points.len()
        ));
    }
    if seed == crate::DEFAULT_SEED {
        for why in check_golden(points, results, golden(size)) {
            report.fail(why);
        }
    }
    tally
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    // The end-to-end sweeps run on one job, on the one CPU the untraced
    // run is pinned to: on a host of a few shared cores, a parallel
    // sweep's wall time is set by whichever core the host slowed most.
    // The traced run's one parallel sweep uses every core, for
    // `core.jobs_busy_share` and the parallel-equals-serial gate.
    let jobs = if cfg.trace {
        Jobs::available()
    } else {
        Jobs::new(1)
    };
    let configs = configs(cfg.size);
    report.param("points", points(&configs, cfg.seed).len() as u64);
    report.param("traces", configs.len() as u64);
    report.param("jobs", jobs.get() as u64);
    report.param("configs", COLD_CONFIGS.join(",").as_str());
    report.param("loop", "batch (one evaluate_points call per sweep)");
    if cfg.trace {
        traced(cfg, &configs, jobs, &mut report);
    } else {
        untraced(cfg, &configs, jobs, &mut report);
    }
    report
}

fn untraced(cfg: &RunConfig, configs: &[(CiModel, usize)], jobs: Jobs, report: &mut Report) {
    // Set-up: build the points and run a small warm-up sweep of the same
    // grid, so code pages and allocator arenas are faulted in before the
    // timed cold sweeps.
    let warm = configs
        .iter()
        .map(|&(m, _)| (m, WARMUP_RESOLUTION))
        .collect::<Vec<_>>();
    let setup = || {
        let warm_pts = points(&warm, cfg.seed);
        black_box(SweepCache::new().evaluate_points(&warm_pts, jobs));
        points(configs, cfg.seed)
    };
    setup_then_measure(SETUP_REPS, report, setup, |pts, report| {
        let mut walls = Vec::new();
        let mut timed_total = 0.0;
        loop {
            let cache = SweepCache::new();
            let (results, wall) = timed(|| cache.evaluate_points(&pts, jobs));
            let tally = check_sweep(&cache, &pts, &results, cfg.seed, cfg.size, report);
            report.tally.merge(tally);
            if walls.is_empty() {
                // Peak memory of one cold sweep over the set-up state:
                // later sweeps land wherever the allocator left earlier
                // sweeps' freed pages.
                report.set("peak_rss_mb", crate::meta::peak_rss_mb());
            }
            walls.push(wall);
            timed_total += wall;
            // A sweep is indivisible: the window holds the first sweep and
            // each further one that, as long as the last, still fits it.
            if timed_total + wall > cfg.seconds {
                break;
            }
        }
        let rates: Vec<f64> = walls.iter().map(|w| pts.len() as f64 / w).collect();
        let walls_ms = stats::sorted(walls.iter().map(|w| w * 1e3).collect());
        let (p_tail, q) = tail(&walls_ms);
        report.set("evals_per_s", stats::median_of(&rates));
        report.set("throughput_rps", stats::median_of(&rates));
        report.set("p50_ms", stats::median_of(&walls_ms));
        report.set("p99_ms", p_tail);
        report.param("sweeps", walls.len() as u64);
        report.notes.push(format!(
            "cold-sweep: {} sweep(s) of {} points; sweep wall p50 {:.1} ms, tail (q={q}) {:.1} ms",
            walls.len(),
            pts.len(),
            stats::median_of(&walls_ms),
            p_tail
        ));
    });
}

/// One configuration replayed layer by layer.
struct Replayed {
    weights: NetworkWeights,
    trace: NetworkTrace,
    results: Vec<NetworkResult>,
}

/// Replays one configuration's cold evaluation under `rec`: the same
/// calls, in the same order, that `SweepCache::evaluate` makes for the
/// three architectures on a fresh cache.
fn replay_config(rec: &mut Recorder, model: CiModel, res: usize, seed: u64) -> Replayed {
    rec.next_group();
    rec.span("cold_eval", |rec| {
        let weights = rec.span("models.weight_gen", |_| ci_weights(model, MODEL_SEED));
        let dataset = datasets_for(model)[0];
        let sample = input_sample(dataset, seed);
        let input = rec.span("imaging.input_prep", |_| {
            let img = dataset.sample_scaled(sample, res, res);
            model.prepare_input(&img, MODEL_SEED ^ sample as u64)
        });
        let trace = rec.span("models.run_network", |_| {
            run_network(&model.spec(), &weights, &input)
        });
        let planes: Vec<Arc<PaddedTerms>> = rec.span("sim.term_plane_build", |_| {
            trace
                .layers
                .iter()
                .map(|l| Arc::new(PaddedTerms::for_layer(l)))
                .collect()
        });
        let traffic = rec.span("memsys.traffic", |_| {
            network_scheme_traffic(&trace, scheme())
        });
        let results = ARCHS
            .iter()
            .map(|&arch| {
                price(
                    rec,
                    &trace,
                    &planes,
                    &traffic,
                    &EvalOptions::new(arch, scheme()),
                )
            })
            .collect();
        Replayed {
            weights,
            trace,
            results,
        }
    })
}

/// Requantizes a conv layer's accumulators to its omap as `run_network`
/// does, with the bias and shift the trace recorded for the layer (its
/// std and shift calibration scans are private to `run_network`).
fn requant(mut acc: Tensor3<i64>, layer: &LayerTrace) -> Tensor3<i16> {
    if layer.requant_bias != 0 {
        for v in acc.as_mut_slice() {
            *v += layer.requant_bias;
        }
    }
    let shift = layer.requant_shift;
    let mut out = acc.map(|v| sat16(v >> shift));
    if layer.relu {
        relu_inplace(&mut out);
    }
    out
}

/// Prices one architecture on a trace whose term planes and traffic
/// are already built, as the cache's compute path does: the tile
/// simulator under `sim.tile_sim.<arch>`, then the per-layer timing
/// combine under `core.combine`.
pub fn price(
    rec: &mut Recorder,
    trace: &NetworkTrace,
    planes: &[Arc<PaddedTerms>],
    traffic: &[LayerTraffic],
    opts: &EvalOptions,
) -> NetworkResult {
    let arch = opts.arch;
    let name = format!("sim.tile_sim.{}", arch.name().to_ascii_lowercase());
    let compute: NetworkCycles = rec.span(name, |_| match arch {
        Architecture::Vaa => vaa_network(trace, &opts.cfg),
        Architecture::Pra | Architecture::Diffy => {
            let mode = if arch == Architecture::Pra {
                ValueMode::Raw
            } else {
                ValueMode::Differential
            };
            term_serial_network_with_terms(trace, &opts.cfg, mode, |i, _| Arc::clone(&planes[i]))
        }
        Architecture::Scnn => unreachable!("SCNN is priced by neither replayed workload"),
    });
    rec.span("core.combine", |_| NetworkResult {
        model: trace.model.clone(),
        arch: compute.arch,
        scheme: opts.scheme.label(),
        layers: trace
            .layers
            .iter()
            .zip(&compute.layers)
            .zip(traffic)
            .map(|((lt, lc), tr)| LayerResult {
                name: lt.name.clone(),
                compute: *lc,
                traffic: *tr,
                timing: combine(lc.cycles, tr, &opts.memory, opts.cfg.frequency_ghz),
            })
            .collect(),
        frequency_ghz: opts.cfg.frequency_ghz,
    })
}

fn traced(cfg: &RunConfig, configs: &[(CiModel, usize)], jobs: Jobs, report: &mut Report) {
    // The untraced parallel sweep: its wall time is the denominator of
    // the busy share, and its results are what the replay must match.
    let pts = points(configs, cfg.seed);
    let cache = SweepCache::new();
    let (results, wall) = timed(|| cache.evaluate_points(&pts, jobs));
    let tally = check_sweep(&cache, &pts, &results, cfg.seed, cfg.size, report);
    report.tally.merge(tally);
    drop(cache);

    let mut rec = Recorder::new(true);
    let mut replayed = Vec::new();
    for (i, &(model, res)) in configs.iter().enumerate() {
        let r = replay_config(&mut rec, model, res, cfg.seed);
        for (a, got) in r.results.iter().enumerate() {
            let want = &results[a * configs.len() + i];
            report.tally.record(if got == want {
                Outcome::Ok
            } else {
                Outcome::Wrong
            });
            if got != want {
                let why = format!("{}: replay differs from sweep", COLD_CONFIGS[i]);
                report.gate_failures.push(why);
            }
        }
        replayed.push(r);
    }

    // Per-conv-layer replay of three configurations through conv2d_fast,
    // each conv output requantized as `run_network` does with the
    // layer's recorded bias and shift; the result must be the next
    // layer's imap (or the network's output).
    let mut requant_ms = 0.0;
    for (name, layers) in CONV_REPLAY {
        let i = COLD_CONFIGS
            .iter()
            .position(|c| *c == name)
            .expect("replayed config is traced");
        let r = &replayed[i];
        assert_eq!(r.trace.layers.len(), layers, "{name} conv layer count");
        rec.next_group();
        rec.span("tensor.conv_replay", |rec| {
            for (l, layer) in r.trace.layers.iter().enumerate() {
                let bias = &r.weights.conv(l).bias;
                let (acc, s) = rec.span(format!("tensor.conv2d_fast.{name}.L{l:02}"), |_| {
                    timed(|| conv2d_fast(&layer.imap, &layer.fmaps, Some(bias), layer.geom))
                });
                report.set(&format!("tensor.conv2d_fast_ms.{name}.L{l:02}"), s * 1e3);
                let (out, s) = rec.span("models.requant", |_| timed(|| requant(acc, layer)));
                requant_ms += s * 1e3;
                let next = r
                    .trace
                    .layers
                    .get(l + 1)
                    .map_or(&r.trace.output, |n| &n.imap);
                report.tally.record(if out == *next {
                    Outcome::Ok
                } else {
                    report
                        .gate_failures
                        .push(format!("{name} L{l:02}: requantized conv output differs"));
                    Outcome::Wrong
                });
            }
        });
    }

    let run_network = rec.durations_ms("models.run_network");
    for (i, ms) in run_network.iter().enumerate() {
        report.set(&format!("models.run_network_ms.{}", COLD_CONFIGS[i]), *ms);
    }
    report.set("models.requant_ms", requant_ms);
    report.set("imaging.input_prep_ms", rec.total_ms("imaging.input_prep"));
    report.set("models.weight_gen_ms", rec.total_ms("models.weight_gen"));
    report.set(
        "sim.term_plane_build_ms",
        rec.total_ms("sim.term_plane_build"),
    );
    report.set("memsys.traffic_ms", rec.total_ms("memsys.traffic"));
    report.set("core.combine_ms", rec.total_ms("core.combine"));
    for a in ["vaa", "pra", "diffy"] {
        report.set(
            &format!("sim.tile_sim_ms.{a}"),
            rec.total_ms(&format!("sim.tile_sim.{a}")),
        );
    }
    let serial = rec.total_ms("cold_eval");
    report.set(
        "core.jobs_busy_share",
        serial / (wall * 1e3 * jobs.get() as f64),
    );

    // Counts: work done, repeatable exactly for a seed.
    let (mut macs, mut zeros, mut acts, mut traffic) = (0u64, 0u64, 0u64, 0u64);
    let mut cycles = [0u64; 3];
    for r in &replayed {
        macs += r.trace.total_macs();
        for l in &r.trace.layers {
            zeros += l.imap.iter().filter(|&&v| v == 0).count() as u64;
            acts += l.imap.len() as u64;
        }
        for (a, res) in r.results.iter().enumerate() {
            cycles[a] += res.compute_cycles();
        }
        traffic += r.results[0].total_traffic_bytes();
    }
    report.set("models.macs", macs as f64);
    report.set("models.imap_zero_share", zeros as f64 / acts.max(1) as f64);
    for (a, name) in ["vaa", "pra", "diffy"].iter().enumerate() {
        report.set(&format!("sim.cycles.{name}"), cycles[a] as f64);
    }
    report.set("memsys.traffic_bytes", traffic as f64);

    // Self-check: a cold evaluation's children tile its wall time.
    let (checked, _, worst) = rec.tiling_error("cold_eval");
    report.notes.push(format!(
        "span self-check: {checked} cold evaluations, largest uncovered share {:.3}% (tolerance {:.1}%)",
        worst * 100.0,
        TILING_TOLERANCE * 100.0
    ));
    if worst > TILING_TOLERANCE {
        report.fail(format!(
            "cold_eval children cover only {:.2}% of it",
            (1.0 - worst) * 100.0
        ));
    }
    drop(replayed);

    // Tracing overhead: one configuration at `OVERHEAD_RESOLUTION`,
    // replayed with the recorder off and on, in adjacent pairs after one
    // unmeasured replay, alternating which runs first. A full-size replay
    // varies from pass to pass by more than the recorder costs, so many
    // short pairs are compared.
    let (model, _) = configs[2];
    let res = OVERHEAD_RESOLUTION;
    let replay = |enabled| {
        timed(|| {
            black_box(replay_config(
                &mut Recorder::new(enabled),
                model,
                res,
                cfg.seed,
            ))
        })
        .1
    };
    replay(false);
    let pairs: Vec<(f64, f64)> = (0..8)
        .map(|i| stats::pair_alternating(i, &replay))
        .collect();
    report.set("trace_overhead_pct", stats::overhead_pct(&pairs));
    report.notes.push(format!(
        "parallel sweep wall {:.1} ms on {} jobs; serial replay {:.1} ms",
        wall * 1e3,
        jobs.get(),
        serial
    ));
    report.spans = Some(rec.to_json(SPAN_FILE_GROUPS));
}

/// Golden fingerprints of the full-size sweep at the default seed.
const GOLDEN_FULL: &[(&str, u64, u64)] = &[
    ("DnCNN-128/VAA", 10911744, 5467637937927393571),
    ("FFDNet-128/VAA", 3667968, 17419606867190571344),
    ("IRCNN-128/VAA", 3244032, 4658918781713909143),
    ("JointNet-128/VAA", 2875392, 727510267851756117),
    ("VDSR-128/VAA", 10911744, 3876298037017750153),
    ("IRCNN-256/VAA", 12976128, 12741288378453762431),
    ("DnCNN-128/PRA", 3169881, 5467637937927393571),
    ("FFDNet-128/PRA", 1042312, 17419606867190571344),
    ("IRCNN-128/PRA", 890240, 4658918781713909143),
    ("JointNet-128/PRA", 827697, 727510267851756117),
    ("VDSR-128/PRA", 1380468, 3876298037017750153),
    ("IRCNN-256/PRA", 3569900, 12741288378453762431),
    ("DnCNN-128/Diffy", 1788127, 5467637937927393571),
    ("FFDNet-128/Diffy", 761391, 17419606867190571344),
    ("IRCNN-128/Diffy", 584066, 4658918781713909143),
    ("JointNet-128/Diffy", 536994, 727510267851756117),
    ("VDSR-128/Diffy", 1045135, 3876298037017750153),
    ("IRCNN-256/Diffy", 2213156, 12741288378453762431),
];

/// Golden fingerprints of the tiny sweep at the default seed.
const GOLDEN_TINY: &[(&str, u64, u64)] = &[
    ("DnCNN-32/VAA", 681984, 10851108662822268974),
    ("FFDNet-32/VAA", 229248, 8304978739058387866),
    ("IRCNN-32/VAA", 202752, 2136368386702532880),
    ("JointNet-32/VAA", 179712, 9343409677187945095),
    ("VDSR-32/VAA", 681984, 15572625109637349204),
    ("IRCNN-48/VAA", 456192, 2011801288117111351),
    ("DnCNN-32/PRA", 195136, 10851108662822268974),
    ("FFDNet-32/PRA", 63947, 8304978739058387866),
    ("IRCNN-32/PRA", 54815, 2136368386702532880),
    ("JointNet-32/PRA", 49338, 9343409677187945095),
    ("VDSR-32/PRA", 122303, 15572625109637349204),
    ("IRCNN-48/PRA", 121107, 2011801288117111351),
    ("DnCNN-32/Diffy", 159458, 10851108662822268974),
    ("FFDNet-32/Diffy", 53692, 8304978739058387866),
    ("IRCNN-32/Diffy", 41643, 2136368386702532880),
    ("JointNet-32/Diffy", 41362, 9343409677187945095),
    ("VDSR-32/Diffy", 103012, 15572625109637349204),
    ("IRCNN-48/Diffy", 85297, 2011801288117111351),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_golden_fingerprint_fails_the_gate() {
        let pts = points(&configs(Size::Tiny), crate::DEFAULT_SEED);
        let results = SweepCache::new().evaluate_points(&pts, Jobs::available());
        let golden = golden(Size::Tiny);
        assert_eq!(check_golden(&pts, &results, golden), Vec::<String>::new());
        let mut wrong = golden.to_vec();
        wrong[7].1 += 1;
        assert_eq!(
            check_golden(&pts, &results, &wrong).len(),
            1,
            "a cycle count off by one"
        );
        let mut wrong = golden.to_vec();
        wrong[12].2 ^= 1;
        assert_eq!(
            check_golden(&pts, &results, &wrong).len(),
            1,
            "a traffic fingerprint bit"
        );
        assert!(
            !check_golden(&pts, &results, &golden[1..]).is_empty(),
            "a missing point"
        );
    }

    #[test]
    fn points_are_architecture_major_over_every_trace() {
        let pts = points(&configs(Size::Full), 1);
        assert_eq!(pts.len(), 18);
        assert_eq!(label(&pts[0]), "DnCNN-128/VAA");
        assert_eq!(label(&pts[5]), "IRCNN-256/VAA");
        assert_eq!(label(&pts[6]), "DnCNN-128/PRA");
        assert_eq!(label(&pts[17]), "IRCNN-256/Diffy");
    }
}
