//! The README's enumeration walkthrough: classify every
//! communication history of the Section 2.2 discriminated fair merge with
//! the depth-first incremental engine, and double-check it against the
//! seed walker.

use eqp::core::description::Alphabet;
use eqp::core::{enumerate, enumerate_memo, Description, EnumOptions};
use eqp::seqfn::paper::{ch, even, odd};
use eqp::trace::Chan;

fn main() {
    let (b, c, d) = (Chan::new(0), Chan::new(1), Chan::new(2));
    let dfm = Description::new("dfm")
        .equation(even(ch(d)), ch(b))
        .equation(odd(ch(d)), ch(c));

    // Every communication history over this alphabet, classified: smooth
    // solutions, dead ends, and the still-live frontier at the depth bound.
    let alpha = Alphabet::new()
        .with_ints(b, 0, 2)
        .with_ints(c, 1, 1)
        .with_ints(d, 0, 2);
    let opts = EnumOptions {
        max_depth: 5,
        max_nodes: 500_000,
    };
    let e = enumerate_memo(&dfm, &alpha, opts);
    println!(
        "{} solutions, {} dead ends, {} frontier nodes, {} nodes visited",
        e.solutions.len(),
        e.dead_ends.len(),
        e.frontier.len(),
        e.nodes_visited
    );
    assert!(e.solutions.contains(&eqp::trace::Trace::empty()));

    // The engine is byte-identical to the paper-faithful seed walker.
    let seed = enumerate(&dfm, &alpha, opts);
    assert_eq!(e.solutions, seed.solutions);
    assert_eq!(e.dead_ends, seed.dead_ends);
    assert_eq!(e.frontier, seed.frontier);
    assert_eq!(e.nodes_visited, seed.nodes_visited);
    assert_eq!(e.truncated, seed.truncated);
    println!("identical to the seed Section 3.3 walker ✓");
}
