//! The operational ⇄ denotational conformance bridge.
//!
//! The paper's Theorems 2 and 4 say that the quiescent traces of a
//! network are exactly the smooth solutions of its description `f ⟸ g`,
//! and that every finite computation is a smooth *prefix* on the way to
//! one. This module makes that claim executable: feed any run result and
//! the network's [`Description`] to [`check`], and the trace is projected
//! onto the description's channels and certified:
//!
//! * a **quiescent** run must satisfy both the smoothness condition
//!   (every step's output justified by prior input: `f(v) ⊑ g(u)` for
//!   all `u pre v`) *and* the limit condition `f(t) = g(t)` — verdict
//!   [`Verdict::SmoothSolution`];
//! * a run cut by the step bound must satisfy smoothness but is excused
//!   from the limit — verdict [`Verdict::SmoothPrefix`];
//! * anything else is a violation with the failing component equation
//!   named — the bridge is exactly how the fault injection tests
//!   ([`crate::faults`]) detect dropped or duplicated messages.
//!
//! Smoothness is a per-step invariant, so a finite trace is certified in
//! one left-to-right replay through a
//! [`crate::monitor::SmoothnessMonitor`] — linear in
//! the trace length. [`eqp_core::diagnose`], which re-evaluates both
//! sides at every prefix pair, stays the reference the differential
//! suites compare against; lasso (infinite) traces still go through it
//! to a bounded certificate depth.

use crate::monitor::{MonitorPolicy, SmoothnessMonitor};
use crate::network::RunResult;
use crate::report::{RunReport, RunStatus};
use eqp_core::diagnose::{diagnose, SmoothReport};
use eqp_core::smooth::default_certificate_depth;
use eqp_core::Description;
use eqp_trace::{ChanSet, Trace};
use std::fmt;

/// Options for a conformance check.
#[derive(Debug, Clone, Default)]
pub struct ConformanceOptions {
    /// Project the trace onto these channels before checking; `None`
    /// projects onto the description's own channels (the common case —
    /// auxiliary wiring channels are invisible to the description).
    pub visible: Option<ChanSet>,
}

/// Outcome of checking one run against one description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Quiescent and both smooth-solution conditions hold: the trace *is*
    /// a smooth solution (Theorem 2's forward direction, observed).
    SmoothSolution,
    /// The run was cut by the step bound; the trace satisfies smoothness,
    /// so it lies on the way to a smooth solution (Theorem 4).
    SmoothPrefix,
    /// Some step emitted output its inputs did not justify: `f(v) ⋢ g(u)`
    /// in the named component equation.
    SmoothnessViolation {
        /// Index of the violating component equation.
        component: usize,
    },
    /// The run quiesced but the limit condition `f(t) = g(t)` fails in
    /// the named component equations — messages went missing or appeared
    /// from nowhere (drops, duplicates, crashes).
    LimitViolation {
        /// Indices of the failing component equations.
        components: Vec<usize>,
    },
    /// A reliable link ([`crate::reliable`]) exhausted its retry budget
    /// and the run degraded: it terminated cleanly and the delivered
    /// history is still smooth, but the abandoned tail means the trace is
    /// a *prefix*, not a complete solution. Named after the exhausted
    /// link so overload triage starts at the right channel.
    Degraded {
        /// Diagnostic name of the exhausted link (`arq@<chan>`).
        link: String,
    },
}

/// The result of a conformance check: the verdict plus the underlying
/// diagnostic report and enough context to display an actionable message.
#[derive(Debug, Clone)]
pub struct Conformance {
    /// The description's name.
    pub description: String,
    /// The verdict.
    pub verdict: Verdict,
    /// The full smooth-solution diagnostic underlying the verdict.
    pub report: SmoothReport,
    /// Whether the checked run was quiescent.
    pub quiescent: bool,
    /// The projected trace that was actually checked.
    pub checked: Trace,
    /// Rendered component equations, aligned with component indices.
    pub(crate) equations: Vec<String>,
}

impl Conformance {
    /// True iff the run conforms: a certified smooth solution, or a
    /// certified smooth prefix of one.
    pub fn is_conformant(&self) -> bool {
        matches!(
            self.verdict,
            Verdict::SmoothSolution | Verdict::SmoothPrefix
        )
    }

    /// True iff the run is a certified *complete* smooth solution.
    pub fn is_solution(&self) -> bool {
        self.verdict == Verdict::SmoothSolution
    }

    /// The first failing component equation's index, if any.
    pub fn failing_component(&self) -> Option<usize> {
        match &self.verdict {
            Verdict::SmoothnessViolation { component } => Some(*component),
            Verdict::LimitViolation { components } => components.first().copied(),
            _ => None,
        }
    }

    /// The rendered `f_k ⟸ g_k` text of component `k`.
    pub fn component_equation(&self, k: usize) -> Option<&str> {
        self.equations.get(k).map(String::as_str)
    }
}

impl fmt::Display for Conformance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.verdict {
            Verdict::SmoothSolution => write!(
                f,
                "conformance(`{}`): certified smooth solution (quiescent trace {})",
                self.description, self.checked
            ),
            Verdict::SmoothPrefix => write!(
                f,
                "conformance(`{}`): certified smooth prefix (step bound hit before quiescence; trace {})",
                self.description, self.checked
            ),
            Verdict::SmoothnessViolation { component } => {
                writeln!(
                    f,
                    "conformance(`{}`): SMOOTHNESS VIOLATION in component {} (`{}`)",
                    self.description,
                    component,
                    self.equations
                        .get(*component)
                        .map_or("?", String::as_str)
                )?;
                write!(f, "{}", self.report)
            }
            Verdict::LimitViolation { components } => {
                let named: Vec<String> = components
                    .iter()
                    .map(|k| {
                        format!(
                            "{} (`{}`)",
                            k,
                            self.equations.get(*k).map_or("?", String::as_str)
                        )
                    })
                    .collect();
                writeln!(
                    f,
                    "conformance(`{}`): LIMIT VIOLATION at quiescence in component(s) {}",
                    self.description,
                    named.join(", ")
                )?;
                write!(f, "{}", self.report)
            }
            Verdict::Degraded { link } => write!(
                f,
                "conformance(`{}`): DEGRADED — reliable link `{}` exhausted its retry \
                 budget; the delivered history is a certified smooth prefix (trace {})",
                self.description, link, self.checked
            ),
        }
    }
}

/// Derives the verdict from a diagnostic report and the run's terminal
/// status — the single derivation shared by the monitor replay, the
/// lasso path and the differential suites' [`diagnose`] oracle, so every
/// path agrees by construction.
///
/// Quiescent runs are held to the limit condition and bounded runs are
/// excused from it. A run that ended in
/// [`RunStatus::ReliabilityExhausted`] terminated cleanly but abandoned an
/// undelivered tail, so its history is judged as a *prefix* and a passing
/// check is reported as [`Verdict::Degraded`] naming the exhausted link;
/// smoothness violations still convict as usual.
pub fn verdict_for(report: &SmoothReport, status: &RunStatus) -> Verdict {
    if let Some(v) = &report.violation {
        return Verdict::SmoothnessViolation {
            component: v.component,
        };
    }
    if let RunStatus::ReliabilityExhausted { link } = status {
        return Verdict::Degraded { link: link.clone() };
    }
    if !status.is_quiescent() {
        return Verdict::SmoothPrefix;
    }
    let failing: Vec<usize> = report
        .limits
        .iter()
        .filter(|l| !l.holds)
        .map(|l| l.component)
        .collect();
    if failing.is_empty() {
        Verdict::SmoothSolution
    } else {
        Verdict::LimitViolation {
            components: failing,
        }
    }
}

/// Checks a raw trace (with its quiescence flag) against a description.
///
/// The trace is projected onto `opts.visible` (default: the
/// description's channels); smoothness is checked at every step of the
/// projection and, for quiescent runs, the limit condition is evaluated.
pub fn check_trace(
    desc: &Description,
    trace: &Trace,
    quiescent: bool,
    opts: &ConformanceOptions,
) -> Conformance {
    let status = if quiescent {
        RunStatus::Quiescent
    } else {
        RunStatus::BudgetExhausted
    };
    certify(desc, trace, &status, opts)
}

/// Checks a [`RunResult`] against a description.
pub fn check(desc: &Description, run: &RunResult, opts: &ConformanceOptions) -> Conformance {
    check_trace(desc, &run.trace, run.quiescent, opts)
}

/// Checks a telemetry [`RunReport`] against a description.
///
/// Status-aware (see [`verdict_for`]): a run whose reliable link
/// exhausted its retry budget is checked as a prefix and reported as
/// [`Verdict::Degraded`] when it passes.
pub fn check_report(desc: &Description, run: &RunReport, opts: &ConformanceOptions) -> Conformance {
    certify(desc, &run.trace, &run.status, opts)
}

/// A finite trace is replayed once through an observing monitor. A lasso
/// is diagnosed to its certificate depth.
fn certify(
    desc: &Description,
    trace: &Trace,
    status: &RunStatus,
    opts: &ConformanceOptions,
) -> Conformance {
    if let Some(events) = trace.events() {
        let mut monitor =
            SmoothnessMonitor::new(desc, opts.visible.clone(), MonitorPolicy::Observe);
        monitor.feed_batch(events);
        return monitor.finish(status);
    }
    let keep = opts.visible.clone().unwrap_or_else(|| desc.channels());
    let checked = if opts.visible.is_none() && trace.channels().is_subset(&keep) {
        trace.clone()
    } else {
        trace.project(&keep)
    };
    let report = diagnose(desc, &checked, default_certificate_depth(desc, &checked));
    Conformance {
        description: desc.name().to_owned(),
        verdict: verdict_for(&report, status),
        report,
        quiescent: status.is_quiescent(),
        checked,
        equations: desc.equations_rendered().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqp_seqfn::paper::{ch, even, odd};
    use eqp_trace::{Chan, Event};

    fn b() -> Chan {
        Chan::new(0)
    }
    fn c() -> Chan {
        Chan::new(1)
    }
    fn d() -> Chan {
        Chan::new(2)
    }

    fn dfm() -> Description {
        Description::new("dfm")
            .equation(even(ch(d())), ch(b()))
            .equation(odd(ch(d())), ch(c()))
    }

    fn good_trace() -> Trace {
        Trace::finite(vec![
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
            Event::int(d(), 21),
        ])
    }

    #[test]
    fn quiescent_solution_certified() {
        let conf = check_trace(&dfm(), &good_trace(), true, &ConformanceOptions::default());
        assert_eq!(conf.verdict, Verdict::SmoothSolution);
        assert!(conf.is_conformant() && conf.is_solution());
        assert!(conf.to_string().contains("certified smooth solution"));
    }

    #[test]
    fn cut_run_certified_as_prefix() {
        let t = Trace::finite(vec![
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
        ]);
        let conf = check_trace(&dfm(), &t, false, &ConformanceOptions::default());
        assert_eq!(conf.verdict, Verdict::SmoothPrefix);
        assert!(conf.is_conformant() && !conf.is_solution());
    }

    #[test]
    fn missing_output_is_limit_violation_with_named_component() {
        // quiescent but d never echoed c's message: odd-equation limit fails
        let t = Trace::finite(vec![
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
        ]);
        let conf = check_trace(&dfm(), &t, true, &ConformanceOptions::default());
        assert_eq!(
            conf.verdict,
            Verdict::LimitViolation {
                components: vec![1]
            }
        );
        assert_eq!(conf.failing_component(), Some(1));
        let shown = conf.to_string();
        assert!(shown.contains("LIMIT VIOLATION"));
        assert!(shown.contains("odd"), "names the failing equation: {shown}");
    }

    #[test]
    fn unjustified_output_is_smoothness_violation() {
        // d speaks before any input justified it
        let t = Trace::finite(vec![Event::int(d(), 10), Event::int(b(), 10)]);
        let conf = check_trace(&dfm(), &t, false, &ConformanceOptions::default());
        assert!(matches!(
            conf.verdict,
            Verdict::SmoothnessViolation { component: 0 }
        ));
        assert!(!conf.is_conformant());
        assert!(conf.to_string().contains("SMOOTHNESS VIOLATION"));
    }

    #[test]
    fn projection_hides_auxiliary_channels() {
        // an extra wiring channel outside the description must not affect
        // the verdict
        let mut events = good_trace().events().unwrap().to_vec();
        events.insert(1, Event::int(Chan::new(99), 7));
        let t = Trace::finite(events);
        let conf = check_trace(&dfm(), &t, true, &ConformanceOptions::default());
        assert_eq!(conf.verdict, Verdict::SmoothSolution);
    }
}
