//! The reduced `reproduce` sweep, and the untimed sweep at the fidelity
//! seed that every workload reports its fidelity metrics from.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use shift_bench::reproduce::{PaperPlan, ReproduceSettings};
use shift_sim::{
    CmpConfig, CostModel, Engine, Execution, PrefetcherConfig, RunMatrix, RunResult, RunStore,
    SimOptions,
};
use shift_trace::workload::WorkloadProgram;
use shift_trace::{presets, ConsolidationSpec, Scale};

use crate::checks;
use crate::fidelity::Fidelity;
use crate::hostref::{raw, HostIndex, Timed};
use crate::layers::{self, HostFigures};
use crate::out_dir;
use crate::replay::{print_reconciliation, replay, EngineRun, Reconciliation};
use crate::report::{cpu_seconds, median, peak_rss_mb, Outcome};
use crate::spans::Spans;

/// `PaperPlan::plan` calls timed for `setup_s` before each measured sweep
/// and after the last, so the samples spread over the run's host-speed
/// phases; each measured sweep's own plan adds one more.
const SETUP_BATCH: usize = 10;

/// Cores of the reduced sweep.
const CORES: u16 = 4;

/// The reduced sweep's settings: 4 cores, Test scale, two workloads.
pub fn settings(seed: u64) -> ReproduceSettings {
    ReproduceSettings::new(
        CORES,
        Scale::Test,
        seed,
        vec![presets::oltp_oracle(), presets::media_streaming()],
    )
}

/// Worker threads: one per available CPU, as `reproduce` uses by default.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn by_slot(matrix: &RunMatrix, dir: &Path) -> Result<Vec<RunResult>, String> {
    let partial = RunStore::new([dir])
        .load_partial(matrix)
        .map_err(|e| format!("loading outcomes: {e}"))?;
    (0..matrix.len())
        .map(|slot| {
            partial
                .hit(slot)
                .cloned()
                .ok_or(format!("no outcome for run {slot}"))
        })
        .collect()
}

/// Checks every run; returns the failures, the combined digest (runs in
/// canonical key order) and each run's digest in plan order.
fn check_all(matrix: &RunMatrix, results: &[RunResult]) -> (Vec<String>, u64, Vec<u64>) {
    let mut failures = Vec::new();
    let digests: Vec<u64> = results.iter().map(checks::digest).collect();
    for ((key, result), id) in matrix.keys().iter().zip(results).zip(matrix.key_ids()) {
        let bad = checks::violations(result, key.options());
        if !bad.is_empty() {
            failures.push(format!("run {id}: {}", bad.join("; ")));
        }
    }
    let combined = checks::combine(matrix.canonical_order().into_iter().map(|s| digests[s]));
    (failures, combined, digests)
}

/// Runs the reduced sweep once, untimed, at `fidelity_seed` and adds the
/// four fidelity metrics; its runs count as attempted operations.
///
/// Fidelity is evaluated at one fixed seed rather than at `--seed`: it is a
/// deterministic property of the code, and at Test scale a reference that
/// sits at its tolerance edge flips between seeds (seed 1 warns on 4 of 29
/// references, seeds 2-6 on 3), which no bound on a count could absorb.
pub fn report_fidelity(fidelity_seed: u64, out: &mut Outcome) {
    let dir = out_dir().join(format!("fidelity-{}", std::process::id()));
    let result = catch_unwind(AssertUnwindSafe(|| {
        sweep_once(fidelity_seed, &dir, &mut || {}, out)
    }));
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(Ok(sweep)) => {
            println!("digest fidelity-seed-{fidelity_seed} {:016x}", sweep.digest);
            sweep.fidelity.report(out);
        }
        Ok(Err(e)) => out.fail(format!("fidelity sweep: {e}")),
        Err(_) => out.fail("fidelity sweep panicked".to_owned()),
    }
}

/// One measured sweep.
struct Sweep {
    plan: Timed,
    /// Execute, in ns per fetch simulated.
    execute: Timed,
    /// Execute + collect + write.
    wall: Timed,
    collect_s: f64,
    write_s: f64,
    runs: usize,
    digest: u64,
    fidelity: Fidelity,
}

fn fetches(matrix: &RunMatrix) -> u64 {
    let model = CostModel::default();
    matrix
        .keys()
        .iter()
        .map(|k| model.estimated_fetches(k))
        .sum()
}

/// Plans, executes, checks, collects and writes one sweep; `between` runs
/// between the timed phases.
fn sweep_once(
    seed: u64,
    dir: &Path,
    between: &mut dyn FnMut(),
    out: &mut Outcome,
) -> Result<Sweep, String> {
    let plan_start = Instant::now();
    let plan = PaperPlan::plan(settings(seed));
    let planned = Instant::now();
    let (runs, fetches) = (plan.run_count(), fetches(plan.matrix()));
    out.attempted += runs as u64;
    between();

    let execute_start = Instant::now();
    let outcomes = Execution::new(plan.matrix())
        .threads(threads())
        .dir(dir.join("outcomes"))
        .run()
        .map_err(|e| format!("execution: {e}"))?
        .into_outcomes();
    let execute_end = Instant::now();
    let execute_s = (execute_end - execute_start).as_secs_f64();
    between();
    let results = by_slot(plan.matrix(), &dir.join("outcomes"))?;
    let (failures, digest, _) = check_all(plan.matrix(), &results);
    failures.into_iter().for_each(|f| out.fail(f));

    let start = Instant::now();
    let report = plan.collect(&outcomes);
    let collect_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    report
        .write_to(dir.join("report"))
        .map_err(|e| format!("writing the report: {e}"))?;
    let end = Instant::now();
    let write_s = (end - start).as_secs_f64();
    let fidelity = Fidelity::of(&report.artifacts().iter().collect::<Vec<_>>())
        .ok_or("fig07/fig08 references missing")?;
    Ok(Sweep {
        plan: (plan_start, planned, (planned - plan_start).as_secs_f64()),
        execute: (execute_start, execute_end, execute_s * 1e9 / fetches as f64),
        wall: (execute_start, end, execute_s + collect_s + write_s),
        collect_s,
        write_s,
        runs,
        digest,
        fidelity,
    })
}

fn sample_plans(seed: u64, host: &mut HostIndex, setup: &mut Vec<Timed>) {
    host.sample();
    for _ in 0..SETUP_BATCH {
        let start = Instant::now();
        drop(PaperPlan::plan(settings(seed)));
        let end = Instant::now();
        setup.push((start, end, (end - start).as_secs_f64()));
    }
    host.sample();
}

/// Untraced: whole sweeps until `seconds` would be exceeded, with plan
/// samples between them, then the fidelity sweep. Host times are corrected
/// for host drift by the [`HostIndex`] sampled meanwhile.
pub fn run(seed: u64, seconds: u64, fidelity_seed: u64, out: &mut Outcome) {
    let mut host = HostIndex::new();
    let mut setup = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut longest = Duration::ZERO;
    let mut sweeps: Vec<Sweep> = Vec::new();
    println!("threads: {}", threads());
    while sweeps.is_empty() || Instant::now() + longest < deadline {
        sample_plans(seed, &mut host, &mut setup);
        let dir = out_dir().join(format!("sweep-{}-{}", std::process::id(), sweeps.len()));
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            sweep_once(seed, &dir, &mut || host.sample(), out)
        }));
        longest = longest.max(start.elapsed());
        let _ = std::fs::remove_dir_all(&dir);
        let sweep = match result {
            Ok(Ok(sweep)) => sweep,
            Ok(Err(e)) => {
                out.fail(e);
                break;
            }
            Err(_) => {
                out.fail(format!("sweep {} panicked", sweeps.len()));
                break;
            }
        };
        println!(
            "sweep {}: {} runs, execute {:.1} ns/fetch, wall {:.3} s (collect {:.3} s, \
             write {:.3} s), plan {:.6} s",
            sweeps.len(),
            sweep.runs,
            sweep.execute.2,
            sweep.wall.2,
            sweep.collect_s,
            sweep.write_s,
            sweep.plan.2
        );
        if let Some(first) = sweeps.first() {
            if (first.digest, first.fidelity) != (sweep.digest, sweep.fidelity) {
                out.fail(format!(
                    "sweep {} differs from sweep 0 for the same seed",
                    sweeps.len()
                ));
            }
        } else {
            println!("digest reproduce-test4 {:016x}", sweep.digest);
        }
        setup.push(sweep.plan);
        sweeps.push(sweep);
    }
    sample_plans(seed, &mut host, &mut setup);
    let rss = peak_rss_mb();
    if sweeps.is_empty() {
        return;
    }
    let execute: Vec<Timed> = sweeps.iter().map(|s| s.execute).collect();
    let wall: Vec<Timed> = sweeps.iter().map(|s| s.wall).collect();
    println!(
        "sweeps: {}; set-up samples: {}; raw medians: {:.1} ns/fetch, wall {:.3} s, \
         set-up {:.6} s; host index {:.3} ns/update",
        sweeps.len(),
        setup.len(),
        median(&raw(&execute)),
        median(&raw(&wall)),
        median(&raw(&setup)),
        host.median_ns()
    );
    out.metric("ns_per_fetch", median(&host.corrected(&execute)), "ns");
    out.metric("wall_s", median(&host.corrected(&wall)), "s");
    out.metric("setup_s", median(&host.corrected(&setup)), "s");
    out.metric("peak_rss_mb", rss, "MB");
    report_fidelity(fidelity_seed, out);
}

/// Traced: the sweep with spans for plan, execute, collect and write; an
/// untraced and a traced serial re-execution of every run (child spans for
/// set-up, warm-up, measurement and finish); and the stage replay of one
/// representative run for the layer costs.
pub fn run_traced(seed: u64, out: &mut Outcome) {
    let dir = out_dir().join(format!("sweep-{}-traced", std::process::id()));
    let result = catch_unwind(AssertUnwindSafe(|| traced(seed, &dir, out)));
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(Ok(())) => {}
        Ok(Err(e)) => out.fail(e),
        Err(_) => out.fail("traced sweep panicked".to_owned()),
    }
}

fn traced(seed: u64, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut spans = Spans::new();
    let span = spans.open("plan", None, None);
    let plan = PaperPlan::plan(settings(seed));
    spans.close(span);
    let plan_s = spans.spans()[span].duration_ns() as f64 / 1e9;
    let (runs, saved, total_fetches) = (
        plan.run_count(),
        plan.saved_by_dedup(),
        fetches(plan.matrix()),
    );
    let matrix = plan.matrix();
    out.attempted += runs as u64;

    let outcome_dir = dir.join("outcomes");
    let cpu_before = cpu_seconds();
    let span = spans.open("execute", None, None);
    let outcomes = Execution::new(matrix)
        .threads(threads())
        .dir(&outcome_dir)
        .run()
        .map_err(|e| format!("execution: {e}"))?
        .into_outcomes();
    spans.close(span);
    let execute_s = spans.spans()[span].duration_ns() as f64 / 1e9;
    let worker_util = (cpu_seconds() - cpu_before) / (threads() as f64 * execute_s);
    let results = by_slot(matrix, &outcome_dir)?;
    let (failures, digest, digests) = check_all(matrix, &results);
    failures.into_iter().for_each(|f| out.fail(f));
    println!("digest reproduce-test4 {digest:016x}");
    for (id, d) in matrix.key_ids().iter().zip(&digests) {
        println!("digest run {id} {d:016x}");
    }

    // Untraced serial execution: the baseline of the tracing overhead.
    let start = Instant::now();
    drop(
        Execution::new(matrix)
            .serial()
            .run()
            .map_err(|e| format!("serial execution: {e}"))?,
    );
    let untraced_serial_s = start.elapsed().as_secs_f64();

    // Traced serial re-execution, one span tree per run.
    let reexecute = spans.open("reexecute", None, None);
    let (mut run_s, mut engine_s, mut cost_err) = (Vec::new(), Vec::new(), Vec::new());
    let (mut warmup_ns, mut warmup_fetches) = (0u64, 0u64);
    let model = CostModel::default();
    for ((key, id), expected) in matrix.keys().iter().zip(matrix.key_ids()).zip(&digests) {
        // Spans carry the run's RunKeyId as its 64-bit value.
        let run_id = u64::from_str_radix(&id.to_string(), 16).ok();
        let run = spans.open("run", Some(reexecute), run_id);
        let child = spans.open("run.setup", Some(run), run_id);
        let mut engine = Engine::new(key.config(), *key.options(), key.consolidation());
        spans.close(child);
        let child = spans.open("run.warmup", Some(run), run_id);
        engine.step_rounds(engine.warmup_rounds());
        spans.close(child);
        let child = spans.open("run.measure", Some(run), run_id);
        engine.begin_measurement();
        engine.step_rounds(engine.measured_rounds());
        spans.close(child);
        let child = spans.open("run.finish", Some(run), run_id);
        let warm = (engine.warmup_rounds() * engine.cores()) as u64;
        let result = engine.finish();
        spans.close(child);
        spans.close(run);
        let s = &spans.spans();
        engine_s.push(s[run + 1].duration_ns() as f64 / 1e9);
        warmup_ns += s[run + 2].duration_ns();
        warmup_fetches += warm;
        let observed = s[run].duration_ns() as f64 / 1e9;
        run_s.push(observed);
        cost_err.push((model.estimated_duration(key).as_secs_f64() - observed).abs() / observed);
        if checks::digest(&result) != *expected {
            out.fail(format!(
                "run {id}: serial re-execution differs from the parallel sweep"
            ));
        }
    }
    spans.close(reexecute);
    let traced_serial_s = spans.spans()[reexecute].duration_ns() as f64 / 1e9;

    let span = spans.open("collect", None, None);
    let report = plan.collect(&outcomes);
    spans.close(span);
    let collect_s = spans.spans()[span].duration_ns() as f64 / 1e9;
    let span = spans.open("write", None, None);
    let written = report
        .write_to(dir.join("report"))
        .map_err(|e| format!("writing the report: {e}"))?;
    spans.close(span);
    let write_s = spans.spans()[span].duration_ns() as f64 / 1e9;
    let bytes_written = written
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();

    // Layer costs from the stage replay of the sweep's SHIFT run on OLTP.
    let config = CmpConfig::micro13(CORES, PrefetcherConfig::shift_virtualized());
    let options = SimOptions::new(Scale::Test, seed);
    let consolidation = ConsolidationSpec::standalone(presets::oltp_oracle(), CORES);
    out.attempted += 1;
    let engine = EngineRun::measure(&config, options, &consolidation, &mut || {});
    let bad = checks::violations(&engine.result, &options);
    if !bad.is_empty() {
        out.fail(format!("replayed run: {}", bad.join("; ")));
    }
    let replayed = replay(&config, options, &consolidation, &mut spans)?;
    let recon = Reconciliation::new(&engine, &replayed);
    print_reconciliation("reproduce-test4", seed, &recon, &replayed, &spans)
        .map_err(|e| format!("writing trace output: {e}"))?;

    let program_s = median(
        &settings(seed)
            .workloads
            .iter()
            .flat_map(|w| std::iter::repeat_n(w, 3))
            .map(|w| {
                let start = Instant::now();
                drop(WorkloadProgram::build(w));
                start.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    layers::counts(out, &results.iter().collect::<Vec<_>>());
    layers::costs(out, &recon, &replayed);
    HostFigures {
        program_s,
        engine_s: (median(&engine_s) - program_s).max(0.0),
        warmup_ns_per_fetch: warmup_ns as f64 / warmup_fetches as f64,
        trace_overhead: traced_serial_s / untraced_serial_s,
        runs,
        runs_saved_by_dedup: saved,
        fetches: total_fetches,
        run_s,
        worker_util,
        cost_model_err: cost_err.iter().sum::<f64>() / cost_err.len() as f64,
        plan_s,
        collect_s,
        write_s,
        bytes_written,
    }
    .report(out);
    Ok(())
}
