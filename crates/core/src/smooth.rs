//! The smooth-solution predicate (Section 3.2.2) and Theorem 1's
//! simplification for independent descriptions.
//!
//! For a finite trace both conditions are decided exactly. For an
//! eventually periodic (lasso) trace the limit condition is still exact —
//! lassos evaluate to lassos and lasso equality is semantic — while the
//! smoothness condition quantifies over infinitely many prefix pairs; it is
//! checked out to a *certificate depth* past which both sides of every
//! component equation evolve periodically in the prefix length, so a
//! violation beyond the certificate would have a copy inside it. The
//! default depth is generous (prefix length plus several cycle rounds
//! scaled by expression size and numeric constants); callers can demand
//! more with
//! [`is_smooth_at_depth`].

use crate::description::{tuple_leq, Description};
use eqp_seqfn::SeqExpr;
use eqp_trace::Trace;

/// The limit condition `f(t) = g(t)` — exact for finite and lasso traces.
pub fn limit_holds(desc: &Description, t: &Trace) -> bool {
    desc.eval_lhs(t) == desc.eval_rhs(t)
}

/// The smoothness condition `∀ u pre v in t :: f(v) ⊑ g(u)`, checked for
/// all pairs with `|v| ≤ depth`. Complete for finite traces when
/// `depth ≥ |t|`.
pub fn smoothness_holds(desc: &Description, t: &Trace, depth: usize) -> bool {
    smoothness_violation(desc, t, depth).is_none()
}

/// Finds the first smoothness violation `(u, v)` with `|v| ≤ depth`, or
/// `None`.
pub fn smoothness_violation(desc: &Description, t: &Trace, depth: usize) -> Option<(Trace, Trace)> {
    t.pre_pairs_up_to(depth)
        .find(|(u, v)| !tuple_leq(&desc.eval_lhs(v), &desc.eval_rhs(u)))
}

/// A conservative certificate depth for lasso traces: past
/// `prefix + k·cycle` both sides of each equation evolve with period
/// dividing the trace's cycle (every combinator maps periodic input
/// behaviour to periodic output behaviour, with alignment slack bounded by
/// the expression size), so violations repeat within the certificate
/// window. Numeric constants — skip counts, constant and concatenated
/// prefix lengths, `EmitFirstAfter`'s `need` — delay that periodic regime
/// by up to one cycle per unit, so they count towards `k` alongside the
/// node count. Finite traces return their exact length.
pub fn default_certificate_depth(desc: &Description, t: &Trace) -> usize {
    match t.len() {
        eqp_trace::lasso::Length::Finite(n) => n,
        eqp_trace::lasso::Length::Infinite => {
            let prefix = t.as_lasso().prefix().len();
            let cycle = t.as_lasso().cycle().len().max(1);
            // saturating: a `Skip(usize::MAX)` is constructible
            let weight = desc
                .lhs()
                .iter()
                .chain(desc.rhs())
                .map(|e| e.size().saturating_add(constant_weight(e)))
                .fold(0, usize::saturating_add);
            prefix.saturating_add(cycle.saturating_mul(weight.saturating_mul(2).saturating_add(8)))
        }
    }
}

/// The sum of the numeric constants in `e` that shift its output against
/// its input: skip counts, constant lengths (prefix plus cycle),
/// concatenated prefix lengths, and `EmitFirstAfter`'s `need`
/// (saturating).
fn constant_weight(e: &SeqExpr) -> usize {
    match e {
        SeqExpr::Chan(_) | SeqExpr::Custom(_) => 0,
        SeqExpr::Const(s) => s.prefix().len() + s.cycle().len(),
        SeqExpr::Concat(vs, e) => vs.len().saturating_add(constant_weight(e)),
        SeqExpr::Skip(n, e) => n.saturating_add(constant_weight(e)),
        SeqExpr::EmitFirstAfter { need, input, .. } => need.saturating_add(constant_weight(input)),
        SeqExpr::Map(_, e)
        | SeqExpr::Filter(_, e)
        | SeqExpr::TakeWhile(_, e)
        | SeqExpr::CountTicks(e) => constant_weight(e),
        SeqExpr::Zip(_, a, b) => constant_weight(a).saturating_add(constant_weight(b)),
        SeqExpr::OracleSelect { data, oracle, .. } => {
            constant_weight(data).saturating_add(constant_weight(oracle))
        }
    }
}

/// Full smooth-solution check at an explicit smoothness depth: limit
/// condition (exact) plus smoothness out to `depth`.
pub fn is_smooth_at_depth(desc: &Description, t: &Trace, depth: usize) -> bool {
    limit_holds(desc, t) && smoothness_holds(desc, t, depth)
}

/// Smooth-solution check at the default certificate depth — exact for
/// finite traces, periodicity-certified for lassos.
pub fn is_smooth(desc: &Description, t: &Trace) -> bool {
    is_smooth_at_depth(desc, t, default_certificate_depth(desc, t))
}

/// **Theorem 1** check for *independent* descriptions: `t` is smooth iff
/// `f(t) = g(t)` and `f(s) ⊑ g(s)` for every finite prefix `s` (no
/// staggered pairs needed).
///
/// # Panics
///
/// Panics if the description is not independent — the equivalence only
/// holds under Theorem 1's premise (call
/// [`Description::is_independent`] first).
pub fn is_smooth_independent(desc: &Description, t: &Trace, depth: usize) -> bool {
    assert!(
        desc.is_independent(),
        "Theorem 1 requires independent sides (description `{}`)",
        desc.name()
    );
    limit_holds(desc, t)
        && t.prefixes_up_to(depth)
            .all(|s| tuple_leq(&desc.eval_lhs(&s), &desc.eval_rhs(&s)))
}

/// **Lemma 2**: if `t` is smooth then `f(v) ⊑ g(v)` for every finite
/// prefix `v`. Returns `true` when the consequent holds out to `depth`
/// (used by tests to validate the lemma on concrete smooth solutions).
pub fn lemma2_consequent(desc: &Description, t: &Trace, depth: usize) -> bool {
    t.prefixes_up_to(depth)
        .all(|v| tuple_leq(&desc.eval_lhs(&v), &desc.eval_rhs(&v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::Description;
    use eqp_seqfn::paper::{ch, even, odd, prepend_int, twice, twice_plus_one};
    use eqp_seqfn::SeqExpr;
    use eqp_trace::{Chan, Event, Trace, Value};

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

    /// Section 2.3's network description:
    /// even(d) ⟸ 0; 2×d  ,  odd(d) ⟸ 2×d + 1
    fn section23() -> Description {
        Description::new("sec2.3")
            .equation(even(ch(d())), prepend_int(0, twice(ch(d()))))
            .equation(odd(ch(d())), twice_plus_one(ch(d())))
    }

    /// The block sequence B_0 B_1 … B_k as d-events: B_i = 0..2^i - 1.
    fn x_blocks(k: u32) -> Trace {
        let mut ev = Vec::new();
        for i in 0..=k {
            for n in 0..(1i64 << i) {
                ev.push(Event::int(d(), n));
            }
        }
        Trace::finite(ev)
    }

    #[test]
    fn dfm_quiescent_traces_are_smooth() {
        let t = Trace::finite(vec![Event::int(b(), 0), Event::int(d(), 0)]);
        assert!(is_smooth(&dfm(), &t));
        // Section 3.1.1's longer example:
        // (b,0)(c,1)(c,3)(d,1)(d,3)(d,0)
        let t2 = Trace::finite(vec![
            Event::int(b(), 0),
            Event::int(c(), 1),
            Event::int(c(), 3),
            Event::int(d(), 1),
            Event::int(d(), 3),
            Event::int(d(), 0),
        ]);
        assert!(is_smooth(&dfm(), &t2));
        assert!(is_smooth(&dfm(), &Trace::empty()));
    }

    #[test]
    fn dfm_nonquiescent_histories_are_not_smooth() {
        let t = Trace::finite(vec![Event::int(b(), 0)]);
        assert!(!is_smooth(&dfm(), &t));
        let t2 = Trace::finite(vec![
            Event::int(b(), 0),
            Event::int(d(), 0),
            Event::int(c(), 1),
        ]);
        assert!(!is_smooth(&dfm(), &t2));
    }

    #[test]
    fn dfm_output_before_input_violates_smoothness() {
        // (d,0)(b,0): limit holds (even(d)=⟨0⟩=b) but output 0 precedes
        // the input that justifies it → smoothness fails.
        let t = Trace::finite(vec![Event::int(d(), 0), Event::int(b(), 0)]);
        assert!(limit_holds(&dfm(), &t));
        assert!(!smoothness_holds(&dfm(), &t, 10));
        let (u, v) = smoothness_violation(&dfm(), &t, 10).unwrap();
        assert_eq!(u, Trace::empty());
        assert_eq!(v, t.take(1));
    }

    #[test]
    fn theorem1_agrees_with_general_check_on_dfm() {
        let candidates = [
            Trace::empty(),
            Trace::finite(vec![Event::int(b(), 0)]),
            Trace::finite(vec![Event::int(b(), 0), Event::int(d(), 0)]),
            Trace::finite(vec![Event::int(d(), 0), Event::int(b(), 0)]),
            Trace::finite(vec![Event::int(c(), 1), Event::int(d(), 1)]),
        ];
        for t in &candidates {
            assert_eq!(
                is_smooth(&dfm(), t),
                is_smooth_independent(&dfm(), t, 10),
                "Theorem 1 disagreement on {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "independent")]
    fn theorem1_rejects_dependent_description() {
        let t = Trace::empty();
        let _ = is_smooth_independent(&section23(), &t, 5);
    }

    #[test]
    fn section23_x_prefix_is_on_smooth_path() {
        // Finite prefixes of the solution x are not themselves solutions
        // (limit fails — the network owes more output) but they satisfy
        // the smoothness condition along the way.
        let t = x_blocks(3);
        assert!(smoothness_holds(&section23(), &t, 64));
        assert!(!limit_holds(&section23(), &t));
    }

    #[test]
    fn section23_z_violates_smoothness_immediately() {
        // z starts with -1: odd(⟨-1⟩) = ⟨-1⟩ ⋢ 2×ε + 1 = ε.
        let z = Trace::finite(vec![Event::int(d(), -1), Event::int(d(), 0)]);
        let (u, v) = smoothness_violation(&section23(), &z, 8).unwrap();
        assert_eq!(u, Trace::empty());
        assert_eq!(v, z.take(1));
    }

    #[test]
    fn lemma2_holds_on_smooth_solution() {
        let t = Trace::finite(vec![Event::int(b(), 0), Event::int(d(), 0)]);
        assert!(is_smooth(&dfm(), &t));
        assert!(lemma2_consequent(&dfm(), &t, 10));
    }

    #[test]
    fn ticks_infinite_solution_is_smooth() {
        // b ⟸ T; b : unique smooth solution (b,T)^ω (Section 4.2).
        let ticks = Description::new("ticks").defines(b(), SeqExpr::concat([Value::tt()], ch(b())));
        let w = Trace::lasso([], [Event::bit(b(), true)]);
        assert!(is_smooth(&ticks, &w));
        // ε is NOT smooth: limit fails (ε ≠ T; ε).
        assert!(!is_smooth(&ticks, &Trace::empty()));
        // finite tick bursts fail the limit too
        assert!(!is_smooth(&ticks, &w.take(3)));
    }

    #[test]
    fn certificate_depth_scales_with_cycle() {
        let ticks = Description::new("ticks").defines(b(), SeqExpr::concat([Value::tt()], ch(b())));
        let w = Trace::lasso([], [Event::bit(b(), true)]);
        let depth = default_certificate_depth(&ticks, &w);
        assert!(depth >= 8);
        let f = Trace::finite(vec![Event::bit(b(), true)]);
        assert_eq!(default_certificate_depth(&ticks, &f), 1);
    }

    #[test]
    fn chaos_every_trace_smooth() {
        // K ⟸ K with K = ⟨⟩: every trace over any alphabet is smooth
        // (Section 4.1).
        let chaos = Description::new("chaos").equation(SeqExpr::epsilon(), SeqExpr::epsilon());
        for t in [
            Trace::empty(),
            Trace::finite(vec![Event::int(b(), 3)]),
            Trace::lasso([], [Event::int(b(), 1), Event::int(b(), 2)]),
        ] {
            assert!(is_smooth(&chaos, &t));
        }
    }
}
