//! Regression: the lasso certificate depth must grow with the numeric
//! constants of a description, not only with its node count.
//!
//! With `a = 0^ω` and `skip(k, a) ⟸ skip(k, a)` the limit condition holds
//! (both sides are `0^ω`), but the pair `u pre v` with `|v| = k + 1` has
//! `f(v) = ⟨0⟩` against `g(u) = ε`: a smoothness violation at prefix
//! length `k`. A depth bound blind to `k` certifies this trace as smooth.

use eqp_core::smooth::{default_certificate_depth, is_smooth, limit_holds, smoothness_violation};
use eqp_core::Description;
use eqp_seqfn::paper::ch;
use eqp_seqfn::SeqExpr;
use eqp_trace::{Chan, Event, Trace};

#[test]
fn large_skip_constants_are_not_certified_smooth() {
    let a = Chan::new(0);
    let zeros = Trace::lasso([], [Event::int(a, 0)]);
    for k in [100usize, 1000] {
        let desc =
            Description::new("skip").equation(SeqExpr::skip(k, ch(a)), SeqExpr::skip(k, ch(a)));
        assert!(limit_holds(&desc, &zeros), "k = {k}: limit must hold");
        let (u, v) = smoothness_violation(&desc, &zeros, 2 * k + 2)
            .unwrap_or_else(|| panic!("k = {k}: a violation exists"));
        assert_eq!(u.events().map(<[Event]>::len), Some(k), "k = {k}");
        assert_eq!(v.events().map(<[Event]>::len), Some(k + 1), "k = {k}");
        assert!(
            default_certificate_depth(&desc, &zeros) > k,
            "k = {k}: the certificate must reach the violation"
        );
        assert!(!is_smooth(&desc, &zeros), "k = {k}: not a smooth solution");
    }
}

#[test]
fn huge_constants_saturate_the_depth() {
    let a = Chan::new(0);
    let desc = Description::new("skip-max").equation(SeqExpr::skip(usize::MAX, ch(a)), ch(a));
    let zeros = Trace::lasso([], [Event::int(a, 0)]);
    assert_eq!(default_certificate_depth(&desc, &zeros), usize::MAX);
}
