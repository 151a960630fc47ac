//! Online incremental conformance monitoring: amortized O(1) per-event
//! certification of the smoothness condition.
//!
//! The reference check, [`eqp_core::diagnose`], re-walks every one-step
//! prefix pair of the *final* trace and fully re-evaluates `f(v)`/`g(u)`
//! each time — O(n²) in trace length. But the smoothness condition
//! `∀ u pre v :: f(v) ⊑ g(u)` is exactly a per-step invariant: each new
//! event extends `u` to `v` by one, so a monitor that keeps *resumable*
//! evaluator states for both sides of every component equation
//! ([`eqp_seqfn::CompiledSideEval`], the register machine over the fused
//! IR of [`eqp_seqfn::compile`]) can check the new pair by freezing `g`'s
//! output length, stepping both sides one event, and comparing only the
//! freshly appended positions — amortized O(1) per event. The compiled
//! channel masks sharpen this further: a pair whose `f` side provably
//! ignores an event skips the check outright (sound once `f(ε) ⊑ g(ε)` is
//! established — see `PairState::base_ok`). The limit condition
//! `f(t) = g(t)` is certified once at quiescence from the final states,
//! so no prefix is ever re-walked.
//!
//! The same monitor, fed a finished trace in one batch, *is* the
//! post-hoc checker: [`crate::conformance::check_report`] replays the
//! trace through it.
//!
//! Sides that read no channel (infinite constants such as a lasso
//! source's `loop([p],[c])`) are evaluated once and checked by indexing
//! into the lasso. Only hookless `Custom` functions fall back to full
//! re-evaluation per event — correctness never depends on the fast path
//! being available.
//!
//! The monitor produces the *same* [`SmoothReport`] / [`Conformance`] /
//! [`Verdict`](crate::conformance::Verdict) as [`eqp_core::diagnose`]: violations are recorded in the
//! same `(u, v)`-pair-then-component order, and the final verdict is
//! derived by the shared [`verdict_for`]. The differential suite
//! `tests/monitor_equivalence.rs` pins this equivalence across the zoo,
//! netlang programs and fault schedules.

use crate::conformance::{verdict_for, Conformance};
use crate::report::RunStatus;
use eqp_core::diagnose::{LimitVerdict, SmoothReport, SmoothnessViolation};
use eqp_core::Description;
use eqp_seqfn::compile::{batch_advance, step_check};
use eqp_seqfn::{CompiledExpr, CompiledSideEval};
use eqp_trace::{ChanSet, Event, Seq, Trace};

/// What the engine does when the monitor observes a smoothness violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorPolicy {
    /// Keep running; the violation is reported in the final
    /// [`Conformance`] exactly as the post-hoc check would.
    #[default]
    Observe,
    /// Halt the run at the violating step with
    /// [`RunStatus::MonitorAborted`] naming the convicted component
    /// equation — fault-injection and chaos trials stop at the offending
    /// event instead of running to the step bound and re-checking.
    AbortOnViolation,
}

/// Resumable evaluator pair for one component equation `f_k ⟸ g_k`,
/// running on the compiled IR ([`eqp_seqfn::compile`]).
#[derive(Debug, Clone)]
struct PairState {
    f: CompiledSideEval,
    g: CompiledSideEval,
    /// Positions of `f`'s output already verified against `g`'s — the
    /// amortization frontier of the incremental fast path.
    verified: usize,
    /// `f(ε) ⊑ g(ε)`, established once at construction. This is the base
    /// case of the skip argument: when it holds and `f` provably ignores
    /// an event (compiled channel mask), the new check `f(u·e) ⊑ g(u)`
    /// collapses to the already-established `f(u) ⊑ g(u)` — so the pair
    /// can skip freezing and checking entirely (stepping `g` only if `g`
    /// reads the event). When it does *not* hold, nothing is ever skipped:
    /// the very first check on a doubly-foreign event is exactly
    /// `f(ε) ⊑ g(ε)` and must be allowed to fail.
    base_ok: bool,
}

impl PairState {
    fn new(f: &CompiledExpr, g: &CompiledExpr) -> PairState {
        let f = CompiledSideEval::new(f);
        let g = CompiledSideEval::new(g);
        // `⊑` is prefix order, so on incremental sides the base case is a
        // slice compare on the bottom outputs — no `Seq` materialization.
        let base_ok = match (f.delta_out(), g.delta_out()) {
            (Some(fo), Some(go)) => fo.len() <= go.len() && *fo == go[..fo.len()],
            _ => f.value().leq(&g.value()),
        };
        PairState {
            f,
            g,
            verified: 0,
            base_ok,
        }
    }
}

/// An online smoothness monitor over one [`Description`].
///
/// Feed it every committed send via [`feed`](SmoothnessMonitor::feed)
/// (events outside the visible channel set are ignored, performing the
/// same projection as the post-hoc checker, without building a second
/// trace), then derive the final [`Conformance`] from the run status via
/// [`finish`](SmoothnessMonitor::finish).
///
/// The monitor is `Clone` so [`crate::snapshot::Checkpoint`] can carry it:
/// capturing and restoring mid-run resumes certification without
/// re-feeding the prefix.
#[derive(Debug, Clone)]
pub struct SmoothnessMonitor {
    /// Description name, owned — reports carry it without holding the
    /// whole `Description`.
    name: String,
    /// Pre-rendered `f ⟸ g` strings (cached on the description), so
    /// `finish` never formats.
    equations: Vec<String>,
    /// The compiled equation sides (cheap `Arc` handles) — kept so a dirty
    /// fused batch can rebuild fresh evaluators and replay exactly.
    sides: Vec<(CompiledExpr, CompiledExpr)>,
    keep: ChanSet,
    policy: MonitorPolicy,
    pairs: Vec<PairState>,
    events: Vec<Event>,
    violation: Option<SmoothnessViolation>,
}

impl SmoothnessMonitor {
    /// Builds a monitor for `desc`. `visible` overrides the projection
    /// channel set (default: the description's own channels, matching
    /// [`crate::conformance::ConformanceOptions`]).
    pub fn new(desc: &Description, visible: Option<ChanSet>, policy: MonitorPolicy) -> Self {
        let keep = visible.unwrap_or_else(|| desc.channels());
        let sides: Vec<(CompiledExpr, CompiledExpr)> = desc
            .lhs_compiled()
            .iter()
            .cloned()
            .zip(desc.rhs_compiled().iter().cloned())
            .collect();
        let pairs = sides.iter().map(|(f, g)| PairState::new(f, g)).collect();
        SmoothnessMonitor {
            name: desc.name().to_owned(),
            equations: desc.equations_rendered().to_vec(),
            sides,
            keep,
            policy,
            pairs,
            events: Vec::new(),
            violation: None,
        }
    }

    /// The abort policy this monitor was built with.
    pub fn policy(&self) -> MonitorPolicy {
        self.policy
    }

    /// Number of events observed so far (after projection).
    pub fn observed(&self) -> usize {
        self.events.len()
    }

    /// True iff every side of every component equation runs on the
    /// incremental machine, so large batches take the fused path.
    pub fn fully_incremental(&self) -> bool {
        self.pairs
            .iter()
            .all(|p| p.f.is_incremental() && p.g.is_incremental())
    }

    /// The first smoothness violation's component index, if one has been
    /// observed.
    pub fn violation_component(&self) -> Option<usize> {
        self.violation.as_ref().map(|v| v.component)
    }

    /// Observes one committed send.
    ///
    /// Returns `Some(component)` exactly when this event produced the
    /// *first* smoothness violation and the policy is
    /// [`MonitorPolicy::AbortOnViolation`] — the engine's signal to halt.
    /// Events on channels outside the visible set are ignored. After a
    /// violation the monitor keeps stepping its evaluator states (the
    /// limit condition still needs the full trace) but checks nothing
    /// further, mirroring `diagnose`'s first-violation semantics.
    pub fn feed(&mut self, ev: Event) -> Option<usize> {
        if !self.keep.contains(ev.chan) {
            return None;
        }
        let at = self.events.len();
        self.events.push(ev);
        // After the first violation the monitor only keeps its states
        // current (the limit condition still needs the full trace),
        // mirroring `diagnose`'s first-violation semantics.
        let checking = self.violation.is_none();
        // (component, f(v), frozen g(u)) of this event's conviction, if
        // any — the lowest component index wins, matching `diagnose`.
        let mut convicted: Option<(usize, Seq, Seq)> = None;
        for (k, pair) in self.pairs.iter_mut().enumerate() {
            if pair.base_ok && !pair.f.reads(ev.chan) {
                // `f` provably appends nothing on this event, so the
                // pair's check `f(u·e) ⊑ g(u)` collapses to the invariant
                // `f(u) ⊑ g(u)` already established (base case: `base_ok`;
                // step case: `g`'s output only grows). Keep `g` current
                // and move on — the skipped check would provably pass, so
                // first-violation ordering is untouched.
                if pair.g.reads(ev.chan) {
                    pair.g.step(ev);
                }
                continue;
            }
            let frozen = pair.g.freeze();
            pair.f.step(ev);
            pair.g.step(ev);
            if checking
                && !step_check(&pair.f, &pair.g, &frozen, &mut pair.verified)
                && convicted.is_none()
            {
                convicted = Some((k, pair.f.value(), pair.g.frozen_value(&frozen)));
            }
        }
        let (k, lhs_v, rhs_u) = convicted?;
        self.violation = Some(SmoothnessViolation {
            component: k,
            u: Trace::finite(self.events[..at].to_vec()),
            v: Trace::finite(self.events[..=at].to_vec()),
            lhs_v,
            rhs_u,
        });
        match self.policy {
            MonitorPolicy::AbortOnViolation => Some(k),
            MonitorPolicy::Observe => None,
        }
    }

    /// Observes a batch of committed sends in order, semantically
    /// identical to calling [`feed`](SmoothnessMonitor::feed) per event:
    /// the first violation is selected by minimal `(event index,
    /// component index)`.
    ///
    /// Large fully-incremental batches (the engine's lazy Observe drain)
    /// take a fused fast path: each pair steps the whole batch in one
    /// tight loop with only the O(1) *length* half of the per-step check
    /// inline, and the value half — comparing `f`'s appended tail against
    /// `g`'s output — deferred to a single slice compare per pair. Both
    /// outputs are append-only, so a position compares equal at the end
    /// iff it compared equal the step it appeared: the deferred pass
    /// accepts exactly the batches the per-event loop accepts. Any pair
    /// that looks dirty triggers an exact per-event replay from a
    /// pre-batch snapshot to recover the precise first violation.
    pub fn feed_batch(&mut self, evs: &[Event]) -> Option<usize> {
        if evs.len() >= 8 && self.fully_incremental() {
            return self.feed_batch_fused(evs);
        }
        let mut aborted = None;
        for &ev in evs {
            if let Some(k) = self.feed(ev) {
                aborted.get_or_insert(k);
            }
        }
        aborted
    }

    /// The fused batch drain. Requires every side on the incremental
    /// path (`delta_out` available).
    fn feed_batch_fused(&mut self, evs: &[Event]) -> Option<usize> {
        let start = self.events.len();
        self.events.reserve(evs.len());
        for &ev in evs {
            if self.keep.contains(ev.chan) {
                self.events.push(ev);
            }
        }
        if self.events.len() == start {
            return None;
        }
        let checking = self.violation.is_none();
        let new = &self.events[start..];
        let mut clean = true;
        for pair in self.pairs.iter_mut() {
            let lengths_ok = batch_advance(&mut pair.f, &mut pair.g, new);
            if !checking {
                continue;
            }
            let fo = pair.f.delta_out().unwrap_or(&[]);
            let go = pair.g.delta_out().unwrap_or(&[]);
            if lengths_ok
                && fo.len() <= go.len()
                && fo[pair.verified..] == go[pair.verified..fo.len()]
            {
                pair.verified = fo.len();
            } else {
                clean = false;
            }
        }
        if !checking || clean {
            return None;
        }
        // Dirty: rebuild fresh evaluators from the compiled sides and
        // replay the whole observed stream through the exact per-event
        // path — first-violation placement (and the abort signal under
        // AbortOnViolation) comes out exactly as if every event had been
        // fed individually. At most one replay ever runs: after it the
        // violation is recorded and later batches skip checking.
        self.pairs = self
            .sides
            .iter()
            .map(|(f, g)| PairState::new(f, g))
            .collect();
        let all = std::mem::take(&mut self.events);
        let mut aborted = None;
        for &ev in &all {
            if let Some(k) = self.feed(ev) {
                aborted.get_or_insert(k);
            }
        }
        aborted
    }

    /// The diagnostic report over everything observed so far: limit
    /// verdicts straight from the final evaluator states (no re-walk),
    /// the first smoothness violation if any, and the checked depth.
    ///
    /// Identical to `diagnose(desc, &observed_trace, observed_len)` — the
    /// differential suite pins this.
    pub fn report(&self) -> SmoothReport {
        // Build each verdict straight from the evaluator pair — the final
        // values move into the verdict instead of being cloned through an
        // intermediate slice pair.
        let limits = self
            .pairs
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let lhs = p.f.value();
                let rhs = p.g.value();
                LimitVerdict {
                    component: k,
                    holds: lhs == rhs,
                    lhs,
                    rhs,
                }
            })
            .collect();
        SmoothReport {
            description: self.name.clone(),
            limits,
            violation: self.violation.clone(),
            depth: self.events.len(),
        }
    }

    /// Derives the final [`Conformance`] from the run's terminal status
    /// through the shared [`verdict_for`]: quiescent runs are held to the
    /// limit condition, bounded runs are excused, and a cleanly-passing
    /// run whose reliable link exhausted its retry budget is reported as
    /// [`Verdict`](crate::conformance::Verdict)`::Degraded` naming the link.
    pub fn finish(&self, status: &RunStatus) -> Conformance {
        let report = self.report();
        Conformance {
            description: self.name.clone(),
            verdict: verdict_for(&report, status),
            report,
            quiescent: status.is_quiescent(),
            checked: Trace::finite(self.events.clone()),
            equations: self.equations.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::Verdict;
    use eqp_core::diagnose::diagnose;
    use eqp_seqfn::paper::{ch, even, odd};
    use eqp_trace::Chan;

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

    fn feed_all(m: &mut SmoothnessMonitor, events: &[Event]) -> Option<usize> {
        let mut aborted = None;
        for &ev in events {
            if let Some(k) = m.feed(ev) {
                aborted.get_or_insert(k);
            }
        }
        aborted
    }

    fn assert_matches_oracle(events: Vec<Event>, status: RunStatus) {
        let desc = dfm();
        let mut m = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        feed_all(&mut m, &events);
        let online = m.finish(&status);
        let trace = Trace::finite(events);
        let oracle = diagnose(&desc, &trace, m.observed());
        assert_eq!(online.verdict, verdict_for(&oracle, &status));
        assert_eq!(online.report, oracle);
        assert_eq!(online.checked, trace);
    }

    #[test]
    fn solution_prefix_and_violations_match_the_oracle() {
        let good = vec![
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
            Event::int(d(), 21),
        ];
        assert_matches_oracle(good.clone(), RunStatus::Quiescent);
        assert_matches_oracle(good[..3].to_vec(), RunStatus::BudgetExhausted);
        // quiescent but incomplete: limit violation
        assert_matches_oracle(good[..3].to_vec(), RunStatus::Quiescent);
        // output before any justifying input: smoothness violation
        assert_matches_oracle(
            vec![Event::int(d(), 10), Event::int(b(), 10)],
            RunStatus::BudgetExhausted,
        );
    }

    #[test]
    fn projection_ignores_foreign_channels() {
        let desc = dfm();
        let mut m = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        assert_eq!(m.feed(Event::int(Chan::new(99), 7)), None);
        assert_eq!(m.observed(), 0);
    }

    #[test]
    fn abort_policy_convicts_at_the_violating_event() {
        let desc = dfm();
        let mut m = SmoothnessMonitor::new(&desc, None, MonitorPolicy::AbortOnViolation);
        assert_eq!(m.feed(Event::int(b(), 10)), None);
        // d echoes an even value no input justified — convicted
        // immediately, on the even-component (index 0), same as
        // diagnose's ordering.
        assert_eq!(m.feed(Event::int(d(), 98)), Some(0));
        assert_eq!(m.violation_component(), Some(0));
        // observe policy stays quiet on the same stream
        let mut obs = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        assert_eq!(
            feed_all(&mut obs, &[Event::int(b(), 10), Event::int(d(), 98)]),
            None
        );
        assert_eq!(obs.violation_component(), Some(0));
    }

    #[test]
    fn finish_maps_statuses_to_verdicts() {
        let desc = dfm();
        let good = [
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
            Event::int(d(), 21),
        ];
        let mut m = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        feed_all(&mut m, &good);
        assert_eq!(
            m.finish(&RunStatus::Quiescent).verdict,
            Verdict::SmoothSolution
        );
        assert_eq!(
            m.finish(&RunStatus::BudgetExhausted).verdict,
            Verdict::SmoothPrefix
        );
        assert_eq!(
            m.finish(&RunStatus::ReliabilityExhausted {
                link: "arq@ch2".into()
            })
            .verdict,
            Verdict::Degraded {
                link: "arq@ch2".into()
            }
        );
    }

    #[test]
    fn clone_resumes_certification_identically() {
        // snapshot mid-stream, keep feeding both: identical conformance.
        let desc = dfm();
        let events = [
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
            Event::int(d(), 21),
        ];
        let mut m = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        feed_all(&mut m, &events[..2]);
        let mut resumed = m.clone();
        feed_all(&mut m, &events[2..]);
        feed_all(&mut resumed, &events[2..]);
        let a = m.finish(&RunStatus::Quiescent);
        let b = resumed.finish(&RunStatus::Quiescent);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.report, b.report);
        assert_eq!(a.checked, b.checked);
    }

    #[test]
    fn dfm_runs_fully_incremental() {
        let m = SmoothnessMonitor::new(&dfm(), None, MonitorPolicy::Observe);
        assert!(m.fully_incremental());
    }
}
