//! The stepping workloads: one CMP configuration stepped through the
//! engine's public API, warm-up then measurement.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use shift_sim::{
    CmpConfig, CostModel, Engine, PrefetcherConfig, RunMatrix, SimOptions, Simulation,
};
use shift_trace::workload::WorkloadProgram;
use shift_trace::{presets, ConsolidationSpec, Scale, WorkloadSpec};

use crate::checks;
use crate::hostref::{raw, HostIndex, Timed};
use crate::layers::{self, HostFigures};
use crate::replay::{print_reconciliation, replay, EngineRun, Reconciliation};
use crate::report::{cpu_seconds, median, peak_rss_mb, Outcome};
use crate::spans::Spans;
use crate::sweep;

/// `Engine::new` calls timed for `setup_s` before each measured run and
/// after the last, so the samples spread over the run's host-speed phases;
/// each measured run's own `Engine::new` adds one more.
const SETUP_BATCH: usize = 10;

/// A stepping workload.
#[derive(Clone, Debug)]
pub struct Stepping {
    /// Workload name on the command line.
    pub name: &'static str,
    /// The simulated workload.
    pub spec: WorkloadSpec,
    /// The simulated CMP.
    pub config: CmpConfig,
    /// Warm-up and measured fetches per core.
    pub scale: Scale,
}

impl Stepping {
    /// 16-core SHIFT on OLTP (Oracle), Demo scale.
    pub fn shift_oltp16() -> Self {
        Stepping {
            name: "shift-oltp16",
            spec: presets::oltp_oracle(),
            config: CmpConfig::micro13(16, PrefetcherConfig::shift_virtualized()),
            scale: Scale::Demo,
        }
    }

    /// 4-core no-prefetch baseline on media streaming, Paper scale.
    pub fn baseline_media4() -> Self {
        Stepping {
            name: "baseline-media4",
            spec: presets::media_streaming(),
            config: CmpConfig::micro13(4, PrefetcherConfig::None),
            scale: Scale::Paper,
        }
    }

    fn options(&self, seed: u64) -> SimOptions {
        SimOptions::new(self.scale, seed)
    }

    fn consolidation(&self) -> ConsolidationSpec {
        ConsolidationSpec::standalone(self.spec.clone(), self.config.cores)
    }

    fn sample_setup(
        &self,
        options: SimOptions,
        consolidation: &ConsolidationSpec,
        host: &mut HostIndex,
        setup: &mut Vec<Timed>,
    ) {
        host.sample();
        for _ in 0..SETUP_BATCH {
            let start = Instant::now();
            let engine = Engine::new(&self.config, options, consolidation);
            let end = Instant::now();
            setup.push((start, end, (end - start).as_secs_f64()));
            drop(engine);
        }
        host.sample();
    }

    /// Untraced: complete runs until `seconds` would be exceeded, with set-up
    /// samples between them, then the fidelity sweep. Host times are
    /// corrected for host drift by the [`HostIndex`] sampled meanwhile.
    pub fn run(&self, seed: u64, seconds: u64, fidelity_seed: u64, out: &mut Outcome) {
        let options = self.options(seed);
        let consolidation = self.consolidation();
        let mut host = HostIndex::new();
        let mut setup = Vec::new();

        let deadline = Instant::now() + Duration::from_secs(seconds);
        let (mut ns_per_fetch, mut wall) = (Vec::new(), Vec::new());
        let mut digest = None;
        let mut longest = Duration::ZERO;
        while ns_per_fetch.is_empty() || Instant::now() + longest < deadline {
            self.sample_setup(options, &consolidation, &mut host, &mut setup);
            let start = Instant::now();
            out.attempted += 1;
            let run = catch_unwind(AssertUnwindSafe(|| {
                EngineRun::measure(&self.config, options, &consolidation, &mut || host.sample())
            }));
            longest = longest.max(start.elapsed());
            let Ok(run) = run else {
                out.fail(format!("{}: run {} panicked", self.name, wall.len()));
                break;
            };
            check(out, self.name, &run.result, &options, &mut digest);
            println!(
                "run {}: {:.1} ns/fetch, wall {:.3} s, setup {:.6} s",
                wall.len(),
                run.ns_per_fetch(),
                run.wall_s(),
                run.setup_s
            );
            setup.push((run.setup_marks.0, run.setup_marks.1, run.setup_s));
            ns_per_fetch.extend(
                run.batch_marks
                    .iter()
                    .zip(&run.batch_ns_per_fetch)
                    .map(|(&(from, to), &ns)| (from, to, ns)),
            );
            wall.push((run.run_marks.0, run.run_marks.1, run.wall_s()));
        }
        self.sample_setup(options, &consolidation, &mut host, &mut setup);
        let rss = peak_rss_mb();
        println!(
            "runs: {}; measured batches: {}; set-up samples: {}; raw medians: \
             {:.1} ns/fetch, wall {:.3} s, set-up {:.6} s; host index {:.3} ns/update",
            wall.len(),
            ns_per_fetch.len(),
            setup.len(),
            median(&raw(&ns_per_fetch)),
            median(&raw(&wall)),
            median(&raw(&setup)),
            host.median_ns()
        );
        out.metric("ns_per_fetch", median(&host.corrected(&ns_per_fetch)), "ns");
        out.metric("wall_s", median(&host.corrected(&wall)), "s");
        out.metric("setup_s", median(&host.corrected(&setup)), "s");
        out.metric("peak_rss_mb", rss, "MB");
        sweep::report_fidelity(fidelity_seed, out);
    }

    /// Traced: one untraced run for the engine's counts and measured
    /// ns/fetch, then the stage replay with spans, and the reconciliation.
    pub fn run_traced(&self, seed: u64, out: &mut Outcome) {
        let options = self.options(seed);
        let consolidation = self.consolidation();
        let program_s = median(
            &(0..5)
                .map(|_| {
                    let start = Instant::now();
                    drop(WorkloadProgram::build(&self.spec));
                    start.elapsed().as_secs_f64()
                })
                .collect::<Vec<_>>(),
        );
        let cpu_before = cpu_seconds();
        out.attempted += 1;
        let engine = EngineRun::measure(&self.config, options, &consolidation, &mut || {});
        let cpu_s = cpu_seconds() - cpu_before;
        check(out, self.name, &engine.result, &options, &mut None);

        let mut spans = Spans::new();
        let replayed = match replay(&self.config, options, &consolidation, &mut spans) {
            Ok(r) => r,
            Err(e) => {
                out.fail(e);
                return;
            }
        };
        let recon = Reconciliation::new(&engine, &replayed);
        let window_ns_per_fetch = replayed.timing.window_ns as f64 / replayed.counts.fetches as f64;
        if let Err(e) = print_reconciliation(self.name, seed, &recon, &replayed, &spans) {
            out.fail(format!("writing trace output: {e}"));
        }

        layers::counts(out, &[&engine.result]);
        layers::costs(out, &recon, &replayed);
        let run_s = engine.setup_s + engine.wall_s();
        HostFigures {
            program_s,
            engine_s: (engine.setup_s - program_s).max(0.0),
            warmup_ns_per_fetch: engine.warmup_s * 1e9 / engine.warmup_fetches as f64,
            trace_overhead: window_ns_per_fetch / engine.ns_per_fetch(),
            runs: 1,
            runs_saved_by_dedup: 0,
            fetches: engine.warmup_fetches + engine.measured_fetches,
            run_s: vec![run_s],
            worker_util: cpu_s / run_s,
            cost_model_err: cost_model_err(&self.config, options, &self.spec, run_s),
            ..HostFigures::default()
        }
        .report(out);
    }
}

/// Relative error of the sweep scheduler's `CostModel` duration estimate for
/// this run against its observed wall time.
fn cost_model_err(
    config: &CmpConfig,
    options: SimOptions,
    spec: &WorkloadSpec,
    observed_s: f64,
) -> f64 {
    let mut matrix = RunMatrix::new();
    matrix.plan(Simulation::standalone(*config, spec.clone(), options));
    let estimate = CostModel::default()
        .estimated_duration(&matrix.keys()[0])
        .as_secs_f64();
    (estimate - observed_s).abs() / observed_s
}

/// Checks a run's identities and its digest against the earlier runs'.
fn check(
    out: &mut Outcome,
    name: &str,
    result: &shift_sim::RunResult,
    options: &SimOptions,
    digest: &mut Option<u64>,
) {
    let bad = checks::violations(result, options);
    let this = checks::digest(result);
    if !bad.is_empty() {
        out.fail(format!("{name}: {}", bad.join("; ")));
    }
    match *digest {
        None => {
            println!("digest {name} {this:016x}");
            *digest = Some(this);
        }
        Some(first) if first != this => {
            out.fail(format!("{name}: digest {this:016x} != {first:016x}"))
        }
        Some(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(prefetcher: PrefetcherConfig) -> (CmpConfig, ConsolidationSpec) {
        (
            CmpConfig::micro13(2, prefetcher),
            ConsolidationSpec::standalone(presets::tiny(), 2),
        )
    }

    fn layer_counts(result: &shift_sim::RunResult) -> Vec<String> {
        let mut out = Outcome::default();
        layers::counts(&mut out, &[result]);
        out.render()
            .lines()
            .filter(|l| l.starts_with("metric "))
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn same_seed_repeats_exactly_and_another_seed_differs() {
        let (config, consolidation) = tiny(PrefetcherConfig::shift_virtualized());
        let run = |seed| {
            EngineRun::measure(
                &config,
                SimOptions::new(Scale::Test, seed),
                &consolidation,
                &mut || {},
            )
            .result
        };
        let (a, b, other) = (run(11), run(11), run(12));
        assert_eq!(checks::digest(&a), checks::digest(&b));
        assert_eq!(layer_counts(&a), layer_counts(&b));
        assert_ne!(checks::digest(&a), checks::digest(&other));
        assert_ne!(layer_counts(&a), layer_counts(&other));
    }

    #[test]
    fn replay_reconciles_every_stage() {
        for pf in [
            PrefetcherConfig::None,
            PrefetcherConfig::shift_virtualized(),
        ] {
            let (config, consolidation) = tiny(pf);
            let options = SimOptions::new(Scale::Test, 5);
            let engine = EngineRun::measure(&config, options, &consolidation, &mut || {});
            let mut spans = Spans::new();
            let replayed = replay(&config, options, &consolidation, &mut spans).unwrap();
            let recon = Reconciliation::new(&engine, &replayed);
            assert_eq!(recon.rows.len(), crate::replay::STAGES.len());
            assert_eq!(
                replayed.counts.fetches,
                Scale::Test.fetches_per_core() as u64 * 2
            );
            let trace = &recon.rows[0];
            assert_eq!(
                (trace.stage, trace.engine_per_fetch, trace.replay_per_fetch),
                ("trace", 1.0, 1.0)
            );
            assert!(recon.attributed_ns() > 0.0);
            // Staging delays prefetches by a chunk, so the replay covers
            // fewer misses than the engine but still most of them.
            let coverage = replayed.counts.covered as f64
                / (replayed.counts.covered + replayed.counts.l1i_misses).max(1) as f64;
            if matches!(config.prefetcher, PrefetcherConfig::None) {
                assert_eq!(replayed.counts.issued, 0);
            } else {
                assert!(coverage > 0.3, "replay coverage {coverage}");
            }
        }
    }
}
