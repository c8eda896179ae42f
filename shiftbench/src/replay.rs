//! Stage-by-stage replay of a stepping run through the layers' public APIs,
//! and the reconciliation of per-layer costs against measured ns per fetch.
//!
//! The engine interleaves every layer per fetch, and one layer call (~5 ns)
//! is too short to carry a clock read. The replay therefore steps the same
//! workload in chunks of about [`CHUNK_FETCHES`] fetches and runs each chunk
//! through one layer at a time, in engine order: generate the trace events,
//! look them up in the L1-D and L1-I caches, drive the prefetcher hooks,
//! issue the prefetch candidates, send the misses and prefetches to the LLC,
//! and record their mesh round trips. Each stage of each chunk is one span.
//!
//! Staging changes what the layers see: a prefetch issued in a chunk can only
//! turn a miss into a hit from the next chunk on, and LLC requests arrive
//! grouped by stage instead of interleaved. The replay's own counts are
//! therefore reported beside the engine's, and the reconciliation weighs the
//! replay's per-call costs by the *engine's* counts per fetch.

use std::time::Instant;

use shift_cache::{NucaLlc, SetAssocCache};
use shift_core::{InstructionPrefetcher, NullPrefetcher, Shift, ShiftConfig};
use shift_noc::{Mesh, RoundTripTable};
use shift_sim::{CmpConfig, Engine, PrefetcherConfig, RunResult, SimOptions};
use shift_trace::workload::WorkloadProgram;
use shift_trace::{ConsolidationSpec, CoreTraceGenerator, TraceEvent};
use shift_types::{AccessClass, BlockAddr, CoreId};

use crate::out_dir;
use crate::spans::{self_time_by_name, SpanId, Spans};

/// Fetches per replay chunk: long enough that a span's two clock reads are a
/// small share of each stage, short enough (a few fetches per core) that
/// prefetches still arrive ahead of most of the fetches they target.
pub const CHUNK_FETCHES: usize = 128;

/// Upper bound on fetches replayed with spans after the warm-up, which keeps
/// the span log to tens of thousands of entries.
pub const WINDOW_FETCHES: usize = 1_000_000;

/// The replay stages, in execution order within a chunk.
pub const STAGES: [&str; 7] = ["trace", "l1d", "l1i", "core", "issue", "llc", "noc"];

/// Counts of one replay window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplayCounts {
    /// Instruction-block fetches.
    pub fetches: u64,
    /// L1-D lookups.
    pub l1d_accesses: u64,
    /// L1-D misses.
    pub l1d_misses: u64,
    /// L1-I misses.
    pub l1i_misses: u64,
    /// First uses of prefetched L1-I lines.
    pub covered: u64,
    /// Prefetched lines evicted unused.
    pub overpredicted: u64,
    /// Prefetch candidates produced by the hooks.
    pub candidates: u64,
    /// Candidates not already in the L1-I, sent to the LLC.
    pub issued: u64,
    /// Demand and prefetch LLC accesses made by the replay.
    pub llc_accesses: u64,
    /// Flit-hops of those accesses' mesh round trips.
    pub flit_hops: u64,
}

/// Per-stage span totals of one replay window.
#[derive(Clone, Debug, Default)]
pub struct ReplayTiming {
    /// `(stage, total ns, calls)` in [`STAGES`] order.
    pub stages: Vec<(&'static str, u64, u64)>,
    /// Wall time of the whole window, spans included.
    pub window_ns: u64,
}

impl ReplayTiming {
    /// Nanoseconds per call of `stage`.
    pub fn ns_per_call(&self, stage: &str) -> f64 {
        self.stages
            .iter()
            .find(|s| s.0 == stage)
            .map_or(f64::NAN, |&(_, ns, calls)| {
                // A stage with no calls (prefetch issue under the baseline)
                // has only span overhead, which no call carries.
                if calls == 0 {
                    0.0
                } else {
                    ns as f64 / calls as f64
                }
            })
    }
}

/// Everything one replay yields.
#[derive(Clone, Debug)]
pub struct Replay {
    /// The replay's own counts over the window.
    pub counts: ReplayCounts,
    /// The window's stage timings.
    pub timing: ReplayTiming,
}

/// The untraced engine measurement the replay is reconciled against.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// The run's result.
    pub result: RunResult,
    /// `Engine::new` wall time.
    pub setup_s: f64,
    /// Warm-up stepping wall time.
    pub warmup_s: f64,
    /// Measured stepping wall time.
    pub measure_s: f64,
    /// `Engine::finish` wall time.
    pub finish_s: f64,
    /// Fetches stepped during warm-up.
    pub warmup_fetches: u64,
    /// Fetches stepped during measurement.
    pub measured_fetches: u64,
    /// ns per fetch of each of the [`MEASURE_BATCHES`] equal batches the
    /// measurement is stepped in.
    pub batch_ns_per_fetch: Vec<f64>,
    /// Start and end of each batch.
    pub batch_marks: Vec<(Instant, Instant)>,
    /// Start and end of `Engine::new`.
    pub setup_marks: (Instant, Instant),
    /// Start of warm-up and end of `finish`.
    pub run_marks: (Instant, Instant),
}

/// Batches the measured rounds are stepped in. Stepping in batches is
/// bit-identical to one call; the batches give a median that a host-speed
/// phase covering part of the run moves less than the mean.
pub const MEASURE_BATCHES: usize = 10;

impl EngineRun {
    /// Runs one complete simulation through the engine with no tracing.
    /// `between` runs after set-up, warm-up, each measurement batch and
    /// `finish`, outside every timed interval.
    pub fn measure(
        config: &CmpConfig,
        options: SimOptions,
        consolidation: &ConsolidationSpec,
        between: &mut dyn FnMut(),
    ) -> Self {
        let t0 = Instant::now();
        let mut engine = Engine::new(config, options, consolidation);
        let t1 = Instant::now();
        between();
        let warm_start = Instant::now();
        engine.step_rounds(engine.warmup_rounds());
        let warm_end = Instant::now();
        between();
        engine.begin_measurement();
        let cores = engine.cores() as u64;
        let measured = engine.measured_rounds();
        let mut batch_ns_per_fetch = Vec::with_capacity(MEASURE_BATCHES);
        let mut batch_marks = Vec::with_capacity(MEASURE_BATCHES);
        for b in 0..MEASURE_BATCHES {
            let rounds = measured * (b + 1) / MEASURE_BATCHES - measured * b / MEASURE_BATCHES;
            let start = Instant::now();
            engine.step_rounds(rounds);
            let end = Instant::now();
            batch_ns_per_fetch
                .push((end - start).as_nanos() as f64 / (rounds as u64 * cores) as f64);
            batch_marks.push((start, end));
            between();
        }
        let warmup_fetches = engine.warmup_rounds() as u64 * cores;
        let measured_fetches = engine.measured_rounds() as u64 * cores;
        let finish_start = Instant::now();
        let result = engine.finish();
        let finish_end = Instant::now();
        between();
        EngineRun {
            result,
            setup_s: (t1 - t0).as_secs_f64(),
            warmup_s: (warm_end - warm_start).as_secs_f64(),
            measure_s: batch_marks
                .iter()
                .map(|&(s, e)| (e - s).as_secs_f64())
                .sum(),
            finish_s: (finish_end - finish_start).as_secs_f64(),
            warmup_fetches,
            measured_fetches,
            batch_ns_per_fetch,
            batch_marks,
            setup_marks: (t0, t1),
            run_marks: (warm_start, finish_end),
        }
    }

    /// Host wall time per measured fetch, in ns.
    pub fn ns_per_fetch(&self) -> f64 {
        self.measure_s * 1e9 / self.measured_fetches as f64
    }

    /// Warm-up + measurement + finish, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.warmup_s + self.measure_s + self.finish_s
    }
}

/// Replays a standalone run stage by stage: the full warm-up without spans,
/// then up to [`WINDOW_FETCHES`] measured fetches with one span per stage
/// per chunk, recorded under a `replay` root span.
///
/// # Errors
///
/// Returns an error for prefetcher designs the replay does not build
/// (it drives the no-prefetch baseline and the SHIFT family).
pub fn replay(
    config: &CmpConfig,
    options: SimOptions,
    consolidation: &ConsolidationSpec,
    spans: &mut Spans,
) -> Result<Replay, String> {
    if consolidation.workloads().len() != 1 {
        return Err("the replay drives standalone runs only".to_owned());
    }
    match config.prefetcher {
        PrefetcherConfig::None => {
            Ok(Stages::new(config, options, consolidation, NullPrefetcher::new()).run(spans))
        }
        PrefetcherConfig::Shift {
            history_records,
            mode,
        } => {
            // Built exactly as the engine builds a standalone SHIFT unit.
            let mut cfg =
                ShiftConfig::virtualized_micro13(CoreId::new(0), BlockAddr::new(0x7000_0000));
            cfg.history_records = history_records;
            cfg.index_entries = history_records.max(16);
            cfg.mode = mode;
            cfg.noc_round_trip =
                Mesh::new(config.mesh).average_round_trip_latency(0).round() as u64;
            cfg.llc_capacity_blocks = config.llc.capacity_blocks();
            let mut stages = Stages::new(
                config,
                options,
                consolidation,
                Shift::new(cfg, config.cores),
            );
            stages.pf.install(&mut stages.llc);
            Ok(stages.run(spans))
        }
        ref other => Err(format!("the replay does not build {}", other.label())),
    }
}

/// The replayed machine: the layers the engine composes, driven directly.
struct Stages<P> {
    cores: usize,
    rounds_warmup: usize,
    rounds_window: usize,
    /// Rounds in the chunk being staged.
    chunk_rounds: usize,
    generators: Vec<CoreTraceGenerator>,
    /// L1-I lines carry "prefetched and not yet used".
    l1i: Vec<SetAssocCache<bool>>,
    l1d: Vec<SetAssocCache<()>>,
    llc: NucaLlc,
    mesh: Mesh,
    round_trips: RoundTripTable,
    core_tile: Vec<usize>,
    bank_tile: Vec<usize>,
    pf: P,
    // Chunk buffers, reused across chunks.
    batch: Vec<TraceEvent>,
    events: Vec<(u16, TraceEvent)>,
    fetches: Vec<(u16, BlockAddr, bool)>,
    candidates: Vec<(u16, BlockAddr)>,
    hook_out: Vec<shift_core::PrefetchCandidate>,
    llc_requests: Vec<(u16, BlockAddr, AccessClass)>,
    noc_requests: Vec<(usize, usize, AccessClass)>,
    counts: ReplayCounts,
}

impl<P: InstructionPrefetcher> Stages<P> {
    fn new(
        config: &CmpConfig,
        options: SimOptions,
        consolidation: &ConsolidationSpec,
        pf: P,
    ) -> Self {
        let program = WorkloadProgram::build(&consolidation.workloads()[0]);
        let cores = config.cores as usize;
        let generators = (0..cores)
            .map(|c| {
                CoreTraceGenerator::with_program(
                    program.clone(),
                    CoreId::new(c as u16),
                    options.seed,
                )
            })
            .collect();
        let llc = NucaLlc::new(config.llc);
        let mesh = Mesh::new(config.mesh);
        let tiles = mesh.config().tiles();
        let round_trips = RoundTripTable::new(mesh.config(), 8, 64);
        let window_rounds = (WINDOW_FETCHES / cores).min(options.scale.fetches_per_core());
        Stages {
            cores,
            rounds_warmup: options.scale.warmup_fetches_per_core(),
            rounds_window: window_rounds,
            chunk_rounds: 0,
            generators,
            l1i: (0..cores).map(|_| SetAssocCache::new(config.l1i)).collect(),
            l1d: (0..cores).map(|_| SetAssocCache::new(config.l1d)).collect(),
            core_tile: (0..cores).map(|c| c % tiles).collect(),
            bank_tile: (0..llc.config().banks).map(|b| b % tiles).collect(),
            llc,
            mesh,
            round_trips,
            pf,
            batch: Vec::new(),
            events: Vec::new(),
            fetches: Vec::new(),
            candidates: Vec::new(),
            hook_out: Vec::new(),
            llc_requests: Vec::new(),
            noc_requests: Vec::new(),
            counts: ReplayCounts::default(),
        }
    }

    fn run(mut self, spans: &mut Spans) -> Replay {
        let chunk_rounds = (CHUNK_FETCHES / self.cores).max(1);
        let mut done = 0;
        while done < self.rounds_warmup {
            let rounds = chunk_rounds.min(self.rounds_warmup - done);
            self.chunk(rounds, None);
            done += rounds;
        }
        self.counts = ReplayCounts::default();
        let hops_before = self.mesh.traffic().total_flit_hops();
        let root = spans.open("replay", None, None);
        let start = Instant::now();
        let mut done = 0;
        while done < self.rounds_window {
            let rounds = chunk_rounds.min(self.rounds_window - done);
            self.chunk(rounds, Some((&mut *spans, root)));
            done += rounds;
        }
        let window_ns = start.elapsed().as_nanos() as u64;
        spans.close(root);
        self.counts.flit_hops = self.mesh.traffic().total_flit_hops() - hops_before;
        let stages = STAGES
            .iter()
            .map(|&name| {
                let (ns, calls) = spans
                    .spans()
                    .iter()
                    .filter(|s| s.parent == Some(root) && s.name == name)
                    .fold((0, 0), |(ns, calls), s| {
                        (ns + s.duration_ns(), calls + s.calls)
                    });
                (name, ns, calls)
            })
            .collect();
        Replay {
            counts: self.counts,
            timing: ReplayTiming { stages, window_ns },
        }
    }

    /// Runs `rounds` round-robin rounds through every stage; with spans, each
    /// stage is one span under `parent` carrying its call count.
    fn chunk(&mut self, rounds: usize, mut spans: Option<(&mut Spans, SpanId)>) {
        let mut stage = |this: &mut Self, name: &'static str, f: fn(&mut Self) -> u64| {
            if let Some((spans, parent)) = spans.as_mut() {
                let start = spans.now();
                let calls = f(this);
                let end = spans.now();
                spans.record(name, Some(*parent), None, start, end, calls);
            } else {
                f(this);
            }
        };
        self.chunk_rounds = rounds;
        stage(self, "trace", Self::stage_trace);
        stage(self, "l1d", Self::stage_l1d);
        stage(self, "l1i", Self::stage_l1i);
        stage(self, "core", Self::stage_core);
        stage(self, "issue", Self::stage_issue);
        stage(self, "llc", Self::stage_llc);
        stage(self, "noc", Self::stage_noc);
    }

    fn stage_trace(&mut self) -> u64 {
        for _ in 0..self.chunk_rounds {
            for (core, generator) in self.generators.iter_mut().enumerate() {
                generator.next_events_into(&mut self.batch);
                self.events
                    .extend(self.batch.iter().map(|&e| (core as u16, e)));
            }
        }
        let calls = (self.chunk_rounds * self.cores) as u64;
        self.counts.fetches += calls;
        calls
    }

    fn stage_l1d(&mut self) -> u64 {
        let mut calls = 0;
        for &(core, event) in &self.events {
            if let TraceEvent::Data(d) = event {
                calls += 1;
                let l1d = &mut self.l1d[core as usize];
                if !l1d.access(d.block).is_hit() {
                    self.counts.l1d_misses += 1;
                    l1d.fill(d.block, ());
                    self.llc_requests.push((core, d.block, AccessClass::Demand));
                }
            }
        }
        self.counts.l1d_accesses += calls;
        calls
    }

    fn stage_l1i(&mut self) -> u64 {
        let mut calls = 0;
        for &(core, event) in &self.events {
            if let TraceEvent::Fetch(f) = event {
                calls += 1;
                let l1i = &mut self.l1i[core as usize];
                let (access, meta) = l1i.access_meta(f.block);
                let hit = access.is_hit();
                if let Some(unused) = meta {
                    if *unused {
                        *unused = false;
                        self.counts.covered += 1;
                    }
                }
                if !hit {
                    self.counts.l1i_misses += 1;
                    self.llc_requests.push((core, f.block, AccessClass::Demand));
                    if let Some(evicted) = l1i.fill(f.block, false) {
                        if evicted.meta {
                            self.counts.overpredicted += 1;
                            self.llc.record_traffic(AccessClass::Discard, 64);
                        }
                    }
                }
                self.fetches.push((core, f.block, hit));
            }
        }
        self.events.clear();
        calls
    }

    fn stage_core(&mut self) -> u64 {
        let calls = self.fetches.len() as u64;
        for &(core, block, hit) in &self.fetches {
            let id = CoreId::new(core);
            self.hook_out.clear();
            self.pf
                .on_access(id, block, hit, &mut self.llc, &mut self.hook_out);
            self.pf
                .on_retire(id, block, &mut self.llc, &mut self.hook_out);
            self.candidates
                .extend(self.hook_out.iter().map(|c| (core, c.block)));
        }
        self.fetches.clear();
        self.counts.candidates += self.candidates.len() as u64;
        calls
    }

    /// Calls are *issued* prefetches, the count the engine reports as
    /// prefetch LLC traffic; probes of candidates already cached ride along.
    fn stage_issue(&mut self) -> u64 {
        let issued_before = self.counts.issued;
        for &(core, block) in &self.candidates {
            let l1i = &mut self.l1i[core as usize];
            if l1i.probe(block) {
                continue;
            }
            self.counts.issued += 1;
            self.llc_requests
                .push((core, block, AccessClass::PrefetchUseful));
            if let Some(evicted) = l1i.fill(block, true) {
                if evicted.meta {
                    self.counts.overpredicted += 1;
                    self.llc.record_traffic(AccessClass::Discard, 64);
                }
            }
        }
        self.candidates.clear();
        self.counts.issued - issued_before
    }

    fn stage_llc(&mut self) -> u64 {
        let calls = self.llc_requests.len() as u64;
        for &(core, block, class) in &self.llc_requests {
            let outcome = self.llc.access(block, class);
            self.noc_requests.push((
                self.core_tile[core as usize],
                self.bank_tile[outcome.bank],
                class,
            ));
        }
        self.llc_requests.clear();
        self.counts.llc_accesses += calls;
        calls
    }

    fn stage_noc(&mut self) -> u64 {
        let calls = self.noc_requests.len() as u64;
        for &(from, to, class) in &self.noc_requests {
            self.mesh
                .record_round_trip(&self.round_trips, from, to, class);
        }
        self.noc_requests.clear();
        calls
    }
}

/// One layer's row of the reconciliation.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Replay stage (layer) name.
    pub stage: &'static str,
    /// Calls per measured fetch in the engine's run.
    pub engine_per_fetch: f64,
    /// Calls per fetch in the replay window.
    pub replay_per_fetch: f64,
    /// Replay ns per call (span time / calls).
    pub ns_per_call: f64,
}

impl Row {
    /// Engine calls per fetch × replay cost per call.
    pub fn attributed_ns(&self) -> f64 {
        self.engine_per_fetch * self.ns_per_call
    }
}

/// Σ (engine count per fetch × replay ns per call) against the engine's
/// measured ns per fetch, with the residual kept.
#[derive(Clone, Debug, PartialEq)]
pub struct Reconciliation {
    /// One row per stage, in [`STAGES`] order.
    pub rows: Vec<Row>,
    /// The untraced engine's measured ns per fetch.
    pub measured_ns_per_fetch: f64,
}

impl Reconciliation {
    /// Reconciles a replay against the engine run of the same workload.
    pub fn new(engine: &EngineRun, replay: &Replay) -> Self {
        let r = &engine.result;
        let fetches = r.per_core.iter().map(|c| c.fetches).sum::<u64>() as f64;
        let demand = r.llc_traffic.count(AccessClass::Demand);
        let prefetch = r.llc_traffic.count(AccessClass::PrefetchUseful);
        let c = &replay.counts;
        let replay_fetches = c.fetches as f64;
        let rows = STAGES
            .iter()
            .map(|&stage| {
                let (engine_n, replay_n) = match stage {
                    "trace" | "l1i" | "core" => (fetches, replay_fetches),
                    "l1d" => (
                        r.per_core.iter().map(|c| c.l1d.accesses).sum::<u64>() as f64,
                        c.l1d_accesses as f64,
                    ),
                    "issue" => (prefetch as f64, c.issued as f64),
                    _ => ((demand + prefetch) as f64, c.llc_accesses as f64),
                };
                Row {
                    stage,
                    engine_per_fetch: engine_n / fetches,
                    replay_per_fetch: replay_n / replay_fetches,
                    ns_per_call: replay.timing.ns_per_call(stage),
                }
            })
            .collect();
        Reconciliation {
            rows,
            measured_ns_per_fetch: engine.ns_per_fetch(),
        }
    }

    /// Σ attributed ns per fetch.
    pub fn attributed_ns(&self) -> f64 {
        self.rows.iter().map(Row::attributed_ns).sum()
    }

    /// Measured minus attributed ns per fetch (negative when the replay's
    /// stages cost more than the interleaved engine).
    pub fn residual_ns(&self) -> f64 {
        self.measured_ns_per_fetch - self.attributed_ns()
    }

    /// The cost of `stage` per call.
    pub fn ns_per_call(&self, stage: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.stage == stage)
            .map_or(f64::NAN, |r| r.ns_per_call)
    }

    /// The table as markdown.
    pub fn markdown(&self) -> String {
        let mut out = String::from(
            "| layer | engine calls/fetch | replay calls/fetch | replay ns/call | attributed ns/fetch |\n\
             |---|---:|---:|---:|---:|\n",
        );
        for row in &self.rows {
            out += &format!(
                "| {} | {:.4} | {:.4} | {:.2} | {:.1} |\n",
                row.stage,
                row.engine_per_fetch,
                row.replay_per_fetch,
                row.ns_per_call,
                row.attributed_ns()
            );
        }
        out += &format!(
            "| **Σ attributed** | | | | {:.1} |\n| **measured** | | | | {:.1} |\n\
             | **residual** | | | | {:.1} ({:.1} %) |\n",
            self.attributed_ns(),
            self.measured_ns_per_fetch,
            self.residual_ns(),
            100.0 * self.residual_ns() / self.measured_ns_per_fetch
        );
        out
    }
}

/// Prints the reconciliation and the replay's counts, and writes them and
/// the spans under the output directory.
///
/// # Errors
///
/// Returns the error of creating the directory or writing either file.
pub fn print_reconciliation(
    name: &str,
    seed: u64,
    recon: &Reconciliation,
    replayed: &Replay,
    spans: &Spans,
) -> std::io::Result<()> {
    let c = &replayed.counts;
    let per = |n: u64| n as f64 / c.fetches as f64;
    let text = format!(
        "reconciliation {name} seed {seed}: Σ engine calls/fetch × replay ns/call\n{}\
         replay counts per fetch: l1i misses {:.4}, l1d misses {:.4}, covered {:.4}, \
         overpredicted {:.4}, candidates {:.4}, issued {:.4}, llc {:.4}, flit-hops {:.2} \
         over {} fetches; window {:.1} ns/fetch with spans\n",
        recon.markdown(),
        per(c.l1i_misses),
        per(c.l1d_misses),
        per(c.covered),
        per(c.overpredicted),
        per(c.candidates),
        per(c.issued),
        per(c.llc_accesses),
        per(c.flit_hops),
        c.fetches,
        replayed.timing.window_ns as f64 / c.fetches as f64,
    );
    let self_times: Vec<String> = self_time_by_name(spans.spans())
        .iter()
        .map(|(name, ns)| format!("{name} {:.3} ms", *ns as f64 / 1e6))
        .collect();
    let text = format!("{text}self time by span: {}\n", self_times.join(", "));
    print!("{text}");
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{name}-seed{seed}-reconciliation.md")),
        &text,
    )?;
    spans.write_ndjson(&dir.join(format!("{name}-seed{seed}-spans.ndjson")))?;
    println!("spans and reconciliation written to {}", dir.display());
    Ok(())
}
