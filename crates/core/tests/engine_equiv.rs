//! Differential property tests for the enumeration engines: on random
//! small descriptions, alphabets, depths, and node caps, [`enumerate_memo`]
//! must return an [`Enumeration`] *identical* to the seed [`enumerate`] —
//! same solutions, dead ends, frontier, visit count, and truncation flag,
//! all in the same order.
//!
//! The generated descriptions deliberately mix delta-supported sides with
//! sides the incremental evaluator cannot handle (infinite constants), so
//! both the fast path and the full-re-evaluation fallback are exercised,
//! as are budget expiries in the middle of a BFS level. A deterministic
//! sweep puts the node cap on and around every level boundary of the
//! paper's trees, a deep chain pins that the depth-first walk does not
//! recurse, and a deep binary tree under a small cap pins that the walk
//! does not wander into levels the BFS never reaches.

use eqp_core::description::{Alphabet, Description};
use eqp_core::{enumerate, enumerate_memo, EnumOptions, Enumeration};
use eqp_seqfn::paper::{
    and, brock_ackermann_f, ch, even, odd, oracle_false, oracle_true, r_map, t_bar,
};
use eqp_seqfn::SeqExpr;
use eqp_trace::{Chan, Lasso, Value};
use proptest::prelude::*;

fn chan_pool() -> [Chan; 3] {
    [Chan::new(0), Chan::new(1), Chan::new(2)]
}

/// A random continuous expression over the three pooled channels —
/// including delta-unsupported infinite constants.
fn arb_expr() -> impl Strategy<Value = SeqExpr> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(|i| ch(chan_pool()[i as usize])),
        Just(SeqExpr::epsilon()),
        proptest::collection::vec(-1i64..3, 0..3).prop_map(SeqExpr::const_ints),
        // Infinite constant: forces the engine's full-evaluation fallback.
        (-1i64..3).prop_map(|n| SeqExpr::constant(Lasso::repeat(vec![Value::Int(n)]))),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(SeqExpr::even),
            inner.clone().prop_map(SeqExpr::odd),
            (-1i64..3, 0i64..2, inner.clone()).prop_map(|(a, b, e)| SeqExpr::affine(a, b, e)),
            (0usize..3, inner.clone()).prop_map(|(n, e)| SeqExpr::skip(n, e)),
            (-1i64..3, inner.clone()).prop_map(|(n, e)| SeqExpr::concat([Value::Int(n)], e)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SeqExpr::add(a, b)),
            (0usize..3, 0i64..2, inner).prop_map(|(need, add, e)| {
                SeqExpr::EmitFirstAfter {
                    need,
                    add,
                    input: Box::new(e),
                }
            }),
        ]
        .boxed()
    })
}

/// A random 1–2 equation description.
fn arb_description() -> impl Strategy<Value = Description> {
    proptest::collection::vec((arb_expr(), arb_expr()), 1..3).prop_map(|eqs| {
        eqs.into_iter()
            .fold(Description::new("random"), |d, (f, g)| d.equation(f, g))
    })
}

/// A random alphabet over a subset of the pooled channels.
fn arb_alphabet() -> impl Strategy<Value = Alphabet> {
    proptest::collection::vec((0u32..3, -1i64..2, 0i64..3), 1..3).prop_map(|entries| {
        entries
            .into_iter()
            .fold(Alphabet::new(), |a, (ci, lo, width)| {
                a.with_ints(chan_pool()[ci as usize], lo, lo + width)
            })
    })
}

fn assert_identical(tag: &str, got: &Enumeration, want: &Enumeration) {
    assert_eq!(got.solutions, want.solutions, "{tag}: solutions differ");
    assert_eq!(got.dead_ends, want.dead_ends, "{tag}: dead ends differ");
    assert_eq!(got.frontier, want.frontier, "{tag}: frontier differs");
    assert_eq!(
        got.nodes_visited, want.nodes_visited,
        "{tag}: visit count differs"
    );
    assert_eq!(got.truncated, want.truncated, "{tag}: truncation differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The memo engine agrees with the seed, including under mid-level
    /// budget expiry.
    #[test]
    fn engines_identical_to_seed(
        desc in arb_description(),
        alpha in arb_alphabet(),
        max_depth in 0usize..6,
        max_nodes in 0usize..400,
    ) {
        let opts = EnumOptions { max_depth, max_nodes };
        let seed = enumerate(&desc, &alpha, opts);
        assert_identical("memo", &enumerate_memo(&desc, &alpha, opts), &seed);
    }

    /// `solutions_projected` after the hash-set dedup still returns
    /// distinct projections in first-occurrence order.
    #[test]
    fn projection_dedup_distinct_and_ordered(
        desc in arb_description(),
        alpha in arb_alphabet(),
    ) {
        let opts = EnumOptions { max_depth: 3, max_nodes: 2000 };
        let e = enumerate(&desc, &alpha, opts);
        let l = eqp_trace::ChanSet::from_chans([chan_pool()[0]]);
        let projected = e.solutions_projected(&l);
        // distinct…
        for (i, t) in projected.iter().enumerate() {
            prop_assert!(!projected[..i].contains(t), "duplicate projection");
        }
        // …and a subsequence of the naive first-occurrence scan.
        let mut naive: Vec<_> = Vec::new();
        for s in &e.solutions {
            let p = s.project(&l);
            if !naive.contains(&p) {
                naive.push(p);
            }
        }
        prop_assert_eq!(projected, naive);
    }
}

fn ticks() -> (Description, Alphabet) {
    let b = Chan::new(0);
    (
        Description::new("ticks").defines(b, SeqExpr::concat([Value::tt()], ch(b))),
        Alphabet::new().with_bits(b),
    )
}

/// The Fig. 2, 4, 5 and 6 trees and the ticks chain, each with a depth
/// small enough for the seed engine to sweep quickly.
fn paper_trees() -> Vec<(&'static str, Description, Alphabet, usize)> {
    let [b, c, d] = chan_pool();
    let e = Chan::new(3);
    let (ticks, ticks_alpha) = ticks();
    vec![
        (
            "dfm",
            Description::new("dfm")
                .equation(even(ch(d)), ch(b))
                .equation(odd(ch(d)), ch(c)),
            Alphabet::new()
                .with_chan(b, [Value::Int(0), Value::Int(2)])
                .with_chan(c, [Value::Int(1)])
                .with_ints(d, 0, 2),
            4,
        ),
        (
            "fork",
            Description::new("fork")
                .equation(ch(d), oracle_true(ch(c), ch(b)))
                .equation(ch(e), oracle_false(ch(c), ch(b))),
            Alphabet::new()
                .with_ints(b, 0, 1)
                .with_ints(c, 0, 1)
                .with_ints(d, 0, 1)
                .with_bits(e),
            4,
        ),
        (
            "implication",
            Description::new("implication")
                .equation(r_map(ch(b)), t_bar())
                .equation(ch(d), and(ch(b), ch(c))),
            Alphabet::new().with_bits(b).with_bits(c).with_bits(d),
            4,
        ),
        (
            "brock-ackermann",
            Description::new("brock-ackermann")
                .equation(even(ch(c)), SeqExpr::const_ints([0, 2]))
                .equation(odd(ch(c)), brock_ackermann_f(ch(c))),
            Alphabet::new().with_ints(c, 0, 2),
            7,
        ),
        ("ticks", ticks, ticks_alpha, 12),
    ]
}

/// Every cap in {0, 1, N_k − 1, N_k, N_k + 1}, where `N_k` is the number
/// of nodes of depth at most `k`, for every level `k` of the tree: the
/// cut falls before, on and after each level boundary.
#[test]
fn truncation_sweep_matches_seed_at_every_level_boundary() {
    for (name, desc, alpha, depth) in paper_trees() {
        let mut caps = vec![0, 1];
        for k in 0..=depth {
            let opts = EnumOptions {
                max_depth: k,
                max_nodes: usize::MAX,
            };
            let n = enumerate(&desc, &alpha, opts).nodes_visited;
            caps.extend([n - 1, n, n + 1]);
        }
        caps.sort_unstable();
        caps.dedup();
        for max_nodes in caps {
            let opts = EnumOptions {
                max_depth: depth,
                max_nodes,
            };
            assert_identical(
                &format!("{name} max_nodes={max_nodes}"),
                &enumerate_memo(&desc, &alpha, opts),
                &enumerate(&desc, &alpha, opts),
            );
        }
    }
}

/// A chain 100,000 deep on the default test thread: a recursive walk
/// would overflow the stack here.
#[test]
fn deep_chain_walks_without_recursion() {
    const D: usize = 100_000;
    let (desc, alpha) = ticks();
    let e = enumerate_memo(
        &desc,
        &alpha,
        EnumOptions {
            max_depth: D,
            max_nodes: 200_000,
        },
    );
    assert_eq!(e.nodes_visited, D + 1);
    assert!(!e.truncated);
    assert!(e.solutions.is_empty());
    assert!(e.dead_ends.is_empty());
    let tick = eqp_trace::Event::new(Chan::new(0), Value::tt());
    assert_eq!(e.frontier, vec![eqp_trace::Trace::finite(vec![tick; D])]);
}

/// A binary tree 100,000 levels deep under a 5,000-node cap: the BFS stops
/// at level 12, and so must the depth-first walk's work — a walk that
/// classified the deep levels first would record millions of nodes.
#[test]
fn node_cap_bounds_a_deep_wide_walk() {
    let chaos = Description::new("chaos").equation(SeqExpr::epsilon(), SeqExpr::epsilon());
    let alpha = Alphabet::new().with_ints(Chan::new(0), 0, 1);
    let opts = EnumOptions {
        max_depth: 100_000,
        max_nodes: 5_000,
    };
    let e = enumerate_memo(&chaos, &alpha, opts);
    assert_identical("deep binary tree", &e, &enumerate(&chaos, &alpha, opts));
    assert!(e.truncated);
    assert_eq!(e.solutions.len(), 5_000);
}
