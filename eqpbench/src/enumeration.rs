//! `enum-trees`: the library user's path. `enumerate_memo` walks the
//! Section 3.3 tree of the paper's descriptions; no daemon runs.

use crate::inputs::Rng;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{Accounting, Ctx, Outcome};
use eqp_core::{enumerate, enumerate_memo, Alphabet, Description, EnumOptions, Enumeration};
use eqp_processes::{dfm, fork, implication, ticks};
use eqp_trace::Value;
use eqpd::json::{s, Json};
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Tree {
    name: &'static str,
    desc: Description,
    alpha: Alphabet,
    opts: EnumOptions,
}

/// Rounds of the traced replay, each run untraced and traced.
const REPLAY_ROUNDS: usize = 6;

fn opts(max_depth: usize) -> EnumOptions {
    EnumOptions {
        max_depth,
        max_nodes: 1_000_000,
    }
}

fn dfm_tree(depth: usize) -> (Description, Alphabet, EnumOptions) {
    let alpha = Alphabet::new()
        .with_chan(dfm::B, [Value::Int(0), Value::Int(2)])
        .with_chan(dfm::C, [Value::Int(1)])
        .with_ints(dfm::D, 0, 2);
    (dfm::dfm_description(), alpha, opts(depth))
}

/// Five trees of distinct sizes, so the median enumeration time falls
/// inside one tree's group rather than between two: the wide Fig. 2 DFM
/// (25,256 nodes at depth 7, 5,529 at depth 6), the Fig. 6 fork (21,845
/// at depth 7), the Fig. 5 implication (9,473 at depth 8) and the deep,
/// narrow ticks chain (one node per level).
fn trees(ticks_depth: usize) -> Vec<Tree> {
    let tree = |name, (desc, alpha, opts)| Tree {
        name,
        desc,
        alpha,
        opts,
    };
    vec![
        tree("fig2-dfm-d7", dfm_tree(7)),
        tree("fig2-dfm-d6", dfm_tree(6)),
        tree(
            "fig6-fork-d7",
            (
                fork::description(),
                Alphabet::new()
                    .with_ints(fork::B, 0, 1)
                    .with_ints(fork::C, 0, 1)
                    .with_ints(fork::D, 0, 1)
                    .with_bits(fork::E),
                opts(7),
            ),
        ),
        tree(
            "fig5-implication-d8",
            (
                implication::description(),
                Alphabet::new()
                    .with_bits(implication::B)
                    .with_bits(implication::C)
                    .with_bits(implication::D),
                opts(8),
            ),
        ),
        tree(
            "ticks-deep",
            (
                ticks::description(),
                Alphabet::new().with_bits(ticks::B),
                opts(ticks_depth),
            ),
        ),
    ]
}

fn same(a: &Enumeration, b: &Enumeration) -> bool {
    a.solutions == b.solutions
        && a.dead_ends == b.dead_ends
        && a.frontier == b.frontier
        && a.nodes_visited == b.nodes_visited
        && a.truncated == b.truncated
}

fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Builds the five descriptions and alphabets `reps` times and returns
/// the median build time: the set-up a library user pays before the
/// first enumeration (it includes compiling every description side).
fn setup_seconds(ticks_depth: usize, reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(trees(ticks_depth));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// One traced or untraced pass over every tree: compile each
/// description side, then enumerate. Returns (nodes, solutions).
fn replay_round(tr: &mut Tracer, trees: &[Tree]) -> (u64, u64) {
    let (mut nodes, mut solutions) = (0, 0);
    for (i, t) in trees.iter().enumerate() {
        let id = i as u64;
        tr.enter("tree", id);
        for side in t.desc.lhs().iter().chain(t.desc.rhs()) {
            black_box(tr.span("seqfn.compile", id, || side.compile()));
        }
        let e = tr.span("engine.enumerate", id, || {
            enumerate_memo(&t.desc, &t.alpha, t.opts)
        });
        tr.exit();
        nodes += e.nodes_visited as u64;
        solutions += e.solutions.len() as u64;
    }
    (nodes, solutions)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed);
    let ticks_depth = 200 + rng.below(201) as usize;
    let setup_s = setup_seconds(ticks_depth, 41);
    let trees = trees(ticks_depth);

    // The seed tree-walking engine is the reference for every result.
    let reference: Vec<Enumeration> = trees
        .iter()
        .map(|t| enumerate(&t.desc, &t.alpha, t.opts))
        .collect();

    let mut acc = Accounting::default();
    let mut times_s = Vec::new();
    let mut nodes = 0u64;
    let window = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        for i in shuffled(trees.len(), &mut rng) {
            let t = &trees[i];
            let t0 = Instant::now();
            let e = enumerate_memo(&t.desc, &t.alpha, t.opts);
            let dt = t0.elapsed().as_secs_f64();
            acc.attempted += 1;
            if same(&e, &reference[i]) {
                acc.succeeded += 1;
            } else {
                acc.mismatched += 1;
                eprintln!(
                    "eqpbench: {}: enumerate_memo differs from enumerate",
                    t.name
                );
            }
            times_s.push(dt);
            nodes += e.nodes_visited as u64;
        }
    }
    let total_s: f64 = times_s.iter().sum();
    let ms: Vec<f64> = times_s.iter().map(|s| s * 1e3).collect();
    let mut out = Outcome::new(acc);
    out.e2e(setup_s, nodes as f64 / total_s, &ms);
    out.provenance.push((
        "trees",
        Json::Arr(
            trees
                .iter()
                .zip(&reference)
                .map(|(t, r)| {
                    s(format!(
                        "{} depth {} nodes {}",
                        t.name, t.opts.max_depth, r.nodes_visited
                    ))
                })
                .collect(),
        ),
    ));

    if ctx.trace {
        // Alternate untraced and traced rounds so drift affects both.
        let mut traced = Tracer::new(true);
        let mut untraced = Tracer::new(false);
        let (mut on_s, mut off_s) = (0.0, 0.0);
        let mut counts = (0, 0);
        for round in 0..REPLAY_ROUNDS {
            let first_traced = round % 2 == 1;
            for traced_pass in [first_traced, !first_traced] {
                let t0 = Instant::now();
                if traced_pass {
                    counts = replay_round(&mut traced, &trees);
                    on_s += t0.elapsed().as_secs_f64();
                } else {
                    black_box(replay_round(&mut untraced, &trees));
                    off_s += t0.elapsed().as_secs_f64();
                }
            }
        }
        let enum_ns: f64 = traced.durations_ns("engine.enumerate").iter().sum();
        let compile_us: Vec<f64> = traced
            .durations_ns("seqfn.compile")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        out.layer("engine.nodes", counts.0 as f64);
        out.layer("engine.solutions", counts.1 as f64);
        out.layer(
            "engine.node_ns",
            enum_ns / (REPLAY_ROUNDS as f64 * counts.0 as f64),
        );
        out.layer("seqfn.compile_us", mean(&compile_us));
        out.layer("trace.overhead", on_s / off_s);
        out.tracer = Some(traced);
    }
    Ok(out)
}
