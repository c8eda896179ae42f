//! The per-layer metrics printed by the traced invocation.
//!
//! Counts come from simulated `RunResult`s and are exact; ns figures come
//! from the stage replay and the run spans.

use shift_sim::RunResult;
use shift_types::AccessClass;

use crate::replay::{Reconciliation, Replay};
use crate::report::{median, Outcome};

/// Adds the count-based layer metrics, aggregated over `results`.
pub fn counts(out: &mut Outcome, results: &[&RunResult]) {
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let cores = |f: &dyn Fn(&shift_sim::results::CoreResult) -> u64| {
        sum(&|r: &RunResult| r.per_core.iter().map(f).sum())
    };
    let fetches = cores(&|c| c.fetches);
    let instructions = cores(&|c| c.instructions);
    let cycles: f64 = results
        .iter()
        .flat_map(|r| &r.per_core)
        .map(|c| c.cycles)
        .sum();
    let traffic = |class: AccessClass| sum(&|r: &RunResult| r.llc_traffic.count(class));
    let demand = traffic(AccessClass::Demand);
    let overhead: f64 = AccessClass::ALL
        .iter()
        .filter(|c| c.is_prefetcher_overhead())
        .map(|&c| traffic(c))
        .sum();
    let llc_accesses = sum(&|r: &RunResult| r.llc.accesses);
    let covered = sum(&|r: &RunResult| r.coverage.covered);
    let uncovered = sum(&|r: &RunResult| r.coverage.uncovered);
    let overpredicted = sum(&|r: &RunResult| r.coverage.overpredicted);
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

    out.metric(
        "trace.instr_per_fetch",
        instructions / fetches,
        "instr/fetch",
    );
    out.metric(
        "cache.l1i.miss_per_fetch",
        cores(&|c| c.l1i.misses) / fetches,
        "count/fetch",
    );
    out.metric(
        "cache.l1d.miss_per_fetch",
        cores(&|c| c.l1d.misses) / fetches,
        "count/fetch",
    );
    out.metric(
        "cache.llc.access_per_fetch",
        llc_accesses / fetches,
        "count/fetch",
    );
    out.metric(
        "cache.llc.miss_ratio",
        ratio(sum(&|r: &RunResult| r.llc.misses), llc_accesses),
        "fraction",
    );
    out.metric(
        "cache.llc.overhead_per_demand",
        ratio(overhead, demand),
        "count/demand",
    );
    out.metric(
        "core.coverage",
        ratio(covered, covered + uncovered),
        "fraction",
    );
    // 0 when nothing was prefetched (the baseline).
    out.metric(
        "core.accuracy",
        ratio(covered, covered + overpredicted),
        "fraction",
    );
    out.metric(
        "core.history_access_per_fetch",
        sum(&|r: &RunResult| r.history_block_accesses) / fetches,
        "count/fetch",
    );
    out.metric(
        "core.index_access_per_fetch",
        sum(&|r: &RunResult| r.index_accesses) / fetches,
        "count/fetch",
    );
    out.metric("cpu.sim_ipc", instructions / cycles, "instr/cycle");
    out.metric(
        "cpu.fetch_stall_per_fetch",
        cores(&|c| c.raw_fetch_stall_cycles) / fetches,
        "cycles/fetch",
    );
    out.metric(
        "cpu.data_stall_per_fetch",
        cores(&|c| c.raw_data_stall_cycles) / fetches,
        "cycles/fetch",
    );
}

/// Adds the replay-timed layer costs and the reconciliation totals.
pub fn costs(out: &mut Outcome, recon: &Reconciliation, replay: &Replay) {
    out.metric("trace.ns_per_fetch", recon.ns_per_call("trace"), "ns");
    out.metric("cache.l1i.ns_per_access", recon.ns_per_call("l1i"), "ns");
    out.metric("cache.l1d.ns_per_access", recon.ns_per_call("l1d"), "ns");
    out.metric("cache.llc.ns_per_access", recon.ns_per_call("llc"), "ns");
    out.metric("noc.ns_per_round_trip", recon.ns_per_call("noc"), "ns");
    out.metric(
        "noc.flit_hops_per_fetch",
        replay.counts.flit_hops as f64 / replay.counts.fetches as f64,
        "count/fetch",
    );
    out.metric("core.ns_per_fetch", recon.ns_per_call("core"), "ns");
    out.metric("sim.attributed_ns_per_fetch", recon.attributed_ns(), "ns");
    out.metric("sim.residual_ns_per_fetch", recon.residual_ns(), "ns");
    out.metric(
        "sim.residual_share",
        recon.residual_ns() / recon.measured_ns_per_fetch,
        "fraction",
    );
}

/// Host-side figures of the simulator's set-up and of the runs' execution.
#[derive(Clone, Debug, Default)]
pub struct HostFigures {
    /// One `WorkloadProgram::build`, median, seconds.
    pub program_s: f64,
    /// `Engine::new` beyond the program build, median, seconds.
    pub engine_s: f64,
    /// Warm-up wall time per warm-up fetch, ns.
    pub warmup_ns_per_fetch: f64,
    /// Traced wall time over untraced wall time for the same work.
    pub trace_overhead: f64,
    /// Distinct simulations run.
    pub runs: usize,
    /// Simulations avoided by deduplication.
    pub runs_saved_by_dedup: usize,
    /// Fetches simulated, warm-up included.
    pub fetches: u64,
    /// Wall time of each simulation, set-up to finish, seconds.
    pub run_s: Vec<f64>,
    /// Busy CPU time over (worker threads × wall time).
    pub worker_util: f64,
    /// Mean |CostModel estimate − observed| / observed run time.
    pub cost_model_err: f64,
    /// `PaperPlan::plan`, seconds (0 when the workload plans nothing).
    pub plan_s: f64,
    /// `PaperPlan::collect`, seconds (0 when there is nothing to collect).
    pub collect_s: f64,
    /// `PaperReport::write_to`, seconds (0 when nothing is written).
    pub write_s: f64,
    /// Bytes of report files written.
    pub bytes_written: u64,
}

impl HostFigures {
    /// Adds the `sim.*`, `bench.*` and `report.*` layer metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("sim.setup.program_s", self.program_s, "s");
        out.metric("sim.setup.engine_s", self.engine_s, "s");
        out.metric("sim.warmup_ns_per_fetch", self.warmup_ns_per_fetch, "ns");
        out.metric("sim.trace_overhead", self.trace_overhead, "ratio");
        out.metric("sim.runs", self.runs as f64, "count");
        out.metric(
            "sim.runs_saved_by_dedup",
            self.runs_saved_by_dedup as f64,
            "count",
        );
        out.metric("sim.fetches", self.fetches as f64, "count");
        out.metric("sim.run_s.p50", median(&self.run_s), "s");
        out.metric(
            "sim.run_s.max",
            self.run_s.iter().copied().fold(f64::NAN, f64::max),
            "s",
        );
        out.metric("sim.worker_util", self.worker_util, "fraction");
        out.metric("sim.cost_model_err", self.cost_model_err, "fraction");
        out.metric("bench.plan_s", self.plan_s, "s");
        out.metric("bench.collect_s", self.collect_s, "s");
        out.metric("report.write_s", self.write_s, "s");
        out.metric("report.bytes_written", self.bytes_written as f64, "B");
    }
}
