//! Fidelity to the paper, computed from the artifacts' `Reference`s.

use shift_report::{Artifact, Verdict};

use crate::report::Outcome;

/// The four fidelity metrics of a set of artifacts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fidelity {
    /// Mean |actual − paper| / paper over fig08's geomean-speedup references.
    pub fig08_speedup_err: f64,
    /// Mean |actual − paper| over fig07's average-coverage references.
    pub fig07_coverage_err: f64,
    /// References (over every artifact given) whose verdict is not Pass.
    pub checks_warned: usize,
    /// Violated comparative claims: SHIFT > NextLine, PIF_32K > PIF_2K, and
    /// SHIFT within 2 % of PIF_32K (fig08 geomean speedups).
    pub order_violations: usize,
}

impl Fidelity {
    /// Computes the metrics; `None` if fig07 or fig08 is missing or lacks
    /// one of the references the metrics need.
    pub fn of(artifacts: &[&Artifact]) -> Option<Self> {
        let named = |name: &str| artifacts.iter().find(|a| a.name() == name).copied();
        let fig07 = named("fig07")?;
        let fig08 = named("fig08")?;
        let mean = |errors: Vec<f64>| errors.iter().sum::<f64>() / errors.len() as f64;
        let speedup_errs: Vec<f64> = fig08
            .references()
            .iter()
            .map(|r| (r.actual - r.check.paper_value()).abs() / r.check.paper_value())
            .collect();
        let coverage_errs: Vec<f64> = fig07
            .references()
            .iter()
            .map(|r| (r.actual - r.check.paper_value()).abs())
            .collect();
        if speedup_errs.len() != 5 || coverage_errs.len() != 3 {
            return None;
        }
        let speedup = |label: &str| {
            let metric = format!("geomean speedup, {label}");
            fig08
                .references()
                .iter()
                .find(|r| r.metric == metric)
                .map(|r| r.actual)
        };
        let (shift, next_line) = (speedup("SHIFT")?, speedup("NextLine")?);
        let (pif_32k, pif_2k) = (speedup("PIF_32K")?, speedup("PIF_2K")?);
        println!(
            "fig08 geomean speedups: SHIFT {shift:.3}, NextLine {next_line:.3}, \
             PIF_32K {pif_32k:.3}, PIF_2K {pif_2k:.3}"
        );
        let order_violations = usize::from(shift <= next_line)
            + usize::from(pif_32k <= pif_2k)
            + usize::from((shift - pif_32k).abs() > 0.02 * pif_32k);
        let warned: Vec<String> = artifacts
            .iter()
            .flat_map(|a| a.references())
            .filter(|r| r.verdict() != Verdict::Pass)
            .map(|r| r.summary_line())
            .collect();
        for line in &warned {
            println!("reference not passed: {line}");
        }
        let checks_warned = warned.len();
        Some(Fidelity {
            fig08_speedup_err: mean(speedup_errs),
            fig07_coverage_err: mean(coverage_errs),
            checks_warned,
            order_violations,
        })
    }

    /// Adds the four end-to-end fidelity metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("fig08_speedup_err", self.fig08_speedup_err, "fraction");
        out.metric("fig07_coverage_err", self.fig07_coverage_err, "fraction");
        out.metric("paper_checks_warned", self.checks_warned as f64, "count");
        out.metric(
            "paper_order_violations",
            self.order_violations as f64,
            "count",
        );
    }
}
