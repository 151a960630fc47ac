//! The depth-first, incrementally evaluating enumeration engine for the
//! Section 3.3 tree ([`enumerate_memo`]).
//!
//! It produces results **identical** to [`crate::enumerate::enumerate`]
//! (same solutions, dead ends, frontier, visit count, truncation flag, all
//! in the same order) without the seed engine's per-node O(depth) replay.
//! The walk is depth-first over an explicit stack and holds only the
//! current path:
//!
//! * the path's events;
//! * per description side, the side's output along the path as a plain
//!   `Vec<Value>`, truncated on backtrack, so `g_i(u)[k]` is an index;
//! * per depth and side, one [`CompiledDeltaState`], refilled with
//!   `clone_from` when a child's event is one the side reads (a side that
//!   does not read it keeps pointing at its ancestor's state);
//! * per depth, a bucket of the classified nodes, with their paths held as
//!   parent links until the end.
//!
//! Memory is O(depth) plus O(1) per classified node, and apart from
//! recording those the walk allocates nothing per node once it has reached
//! its deepest level. Sides the incremental evaluator cannot handle
//! (infinite constants, opaque custom functions without the
//! [`eqp_seqfn::SeqFunction::delta_init`] hook) are re-evaluated from the
//! path, exactly as the seed engine evaluates every side.
//!
//! # Why depth-first reproduces the breadth-first order
//!
//! The seed BFS visits level `k` in lexicographic order of the events'
//! alphabet positions along each path, and a pre-order walk reaches the
//! nodes of depth `k` in that same order. Concatenating the per-depth
//! buckets therefore reproduces exactly the BFS order.
//!
//! # Truncation
//!
//! The BFS visits the first `max_nodes` nodes in its order. With `N_k` the
//! number of tree nodes of depth at most `k`, and `k` the first level with
//! `N_k ≥ max_nodes`, those are every node above level `k` plus the first
//! `max_nodes − N_{k−1}` nodes of level `k`, counted in pre-order.
//!
//! The walk stops as soon as it meets node `max_nodes + 1`. If it never
//! does, the tree is within the cap and the walk's result stands. If it
//! does, the BFS is truncated, and the walk has met its nodes in an order
//! that may reach deep levels the BFS never visits. Counting walks,
//! each depth-limited and stopped at `max_nodes` nodes, then binary-search
//! for `k` (the aborted walk's per-depth counts give the upper end) and
//! yield `N_{k−1}` exactly. A last walk to depth `k` classifies every node
//! above it and the first `max_nodes − N_{k−1}` nodes of level `k`, by the
//! has-son test, as the BFS does. Every walk visits at most
//! `max_nodes + 1` nodes, so a truncated enumeration costs
//! O(`max_nodes` · log `max_nodes`) node visits.
//!
//! # Why the delta check is sound
//!
//! For every node `u` admitted into the tree (other than the root, which
//! is verified directly), the engine maintains the invariant
//! `f_i(u) ⊑ g_i(u)` per equation: admission checked `f_i(u) ⊑ g_i(p)` for
//! the parent `p`, and `g_i` is monotone, so `g_i(p) ⊑ g_i(u)`. Feasibility
//! of a child `u·e` therefore only requires comparing the values `Δ` that
//! `f_i` appends against `g_i(u)` at positions `|f_i(u)|‥|f_i(u)|+|Δ|`.
//! The same invariant collapses the limit condition `f_i(u) = g_i(u)` to a
//! length comparison.

use crate::description::{Alphabet, Description};
use crate::enumerate::{EnumOptions, Enumeration};
use eqp_seqfn::{CompiledDeltaState, CompiledExpr};
use eqp_trace::{Event, Lasso, Seq, Trace, Value};

/// Which result list a classified node goes to.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Solution,
    DeadEnd,
    Frontier,
}

/// The path node at one depth.
#[derive(Debug, Default, Clone, Copy)]
struct Frame {
    /// Alphabet position of the next child to try.
    next: usize,
    has_son: bool,
    is_solution: bool,
    /// This node's entry in [`Walk::links`], once some classified node
    /// descends from it.
    link: Option<usize>,
}

/// The link of the root, whose path is empty.
const ROOT: usize = usize::MAX;

/// What [`Walk::descend`] did.
enum Next {
    /// Entered a child.
    Child,
    /// The node has no more children to visit.
    Done,
    /// A child would exceed the walk's node budget.
    Abort,
}

struct Walk<'a> {
    /// `f_1‥f_n` then `g_1‥g_n`.
    sides: Vec<&'a CompiledExpr>,
    arity: usize,
    /// The alphabet's events, in the seed's child order.
    events: Vec<Event>,
    max_depth: usize,
    /// Per side: evaluated incrementally (else re-evaluated from the path).
    inc: Vec<bool>,
    /// Per equation: `g_i(u)` is needed as a lasso (some side of it is
    /// re-evaluated).
    needs_seq: Vec<bool>,
    path: Vec<Event>,
    /// Per side: its output along the path.
    outs: Vec<Vec<Value>>,
    frames: Vec<Frame>,
    /// Per depth × side: the side's output length at that depth's node.
    lens: Vec<usize>,
    /// Per depth × side: the depth whose state slot holds the node's state.
    owner: Vec<usize>,
    /// Per depth × side: a state slot (`None` for re-evaluated sides).
    states: Vec<Option<CompiledDeltaState>>,
    /// Per depth × equation: `g_i(u)` where `needs_seq[i]`.
    rhs_seqs: Vec<Option<Seq>>,
    /// This walk's depth bound: nodes at it are not expanded.
    limit: usize,
    /// This walk visits only the first `cut` nodes at depth `limit`.
    cut: usize,
    /// This walk stops at its node `budget + 1`.
    budget: usize,
    /// This walk classifies nodes (else it only counts them).
    record: bool,
    /// Nodes visited per depth.
    counts: Vec<usize>,
    total: usize,
    /// Per depth: the classified nodes, in pre-order, as (kind, path link).
    found: Vec<Vec<(Kind, usize)>>,
    /// Path links: (parent link, last event).
    links: Vec<(usize, Event)>,
}

impl<'a> Walk<'a> {
    fn new(desc: &'a Description, alphabet: &Alphabet, max_depth: usize) -> Walk<'a> {
        let sides: Vec<&CompiledExpr> = desc
            .lhs_compiled()
            .iter()
            .chain(desc.rhs_compiled())
            .collect();
        let arity = desc.arity();
        let mut inc = Vec::with_capacity(sides.len());
        let mut outs = Vec::with_capacity(sides.len());
        let mut states = Vec::with_capacity(sides.len());
        for s in &sides {
            let init = s.delta_init();
            inc.push(init.is_some());
            let (state, out) = init.map_or((None, Vec::new()), |(st, out)| (Some(st), out));
            states.push(state);
            outs.push(out);
        }
        let needs_seq = (0..arity).map(|i| !inc[i] || !inc[arity + i]).collect();
        Walk {
            arity,
            events: alphabet
                .iter()
                .flat_map(|(c, msgs)| msgs.iter().map(move |m| Event::new(c, *m)))
                .collect(),
            max_depth,
            inc,
            needs_seq,
            path: Vec::new(),
            outs,
            frames: vec![Frame::default()],
            lens: vec![0; sides.len()],
            owner: vec![0; sides.len()],
            states,
            rhs_seqs: vec![None; arity],
            limit: max_depth,
            cut: usize::MAX,
            budget: usize::MAX,
            record: true,
            counts: Vec::new(),
            total: 0,
            found: vec![Vec::new()],
            links: Vec::new(),
            sides,
        }
    }

    /// Counts a node at depth `d`; `false` past the budget.
    fn count(&mut self, d: usize) -> bool {
        if d == self.counts.len() {
            self.counts.push(0);
        }
        self.counts[d] += 1;
        self.total += 1;
        self.total <= self.budget
    }

    /// Makes the per-depth slots of depth `d` exist.
    fn reach(&mut self, d: usize) {
        let ns = self.sides.len();
        while self.frames.len() <= d {
            self.frames.push(Frame::default());
            self.lens.extend(std::iter::repeat_n(0, ns));
            self.owner.extend(std::iter::repeat_n(0, ns));
            for s in 0..ns {
                let root = self.states[s].clone();
                self.states.push(root);
            }
            self.rhs_seqs.extend(std::iter::repeat_n(None, self.arity));
            self.found.push(Vec::new());
        }
    }

    fn trace(&self) -> Trace {
        Trace::finite(self.path.clone())
    }

    /// Sets up the node at depth `d` (the path and side outputs already
    /// include its event).
    fn enter(&mut self, d: usize) {
        let (ns, arity) = (self.sides.len(), self.arity);
        for s in 0..ns {
            self.lens[d * ns + s] = self.outs[s].len();
        }
        let trace = self.needs_seq.contains(&true).then(|| self.trace());
        for i in 0..arity {
            if self.needs_seq[i] {
                let g = arity + i;
                self.rhs_seqs[d * arity + i] = Some(if self.inc[g] {
                    Lasso::finite(self.outs[g].clone())
                } else {
                    self.sides[g].eval(trace.as_ref().expect("trace"))
                });
            }
        }
        // Limit condition f(u) = g(u). Below the root the prefix invariant
        // makes per-equation equality a length comparison.
        let is_solution = (0..arity).all(|i| {
            let rhs = self.rhs_seqs[d * arity + i].as_ref();
            if !self.inc[i] {
                return self.sides[i].eval(trace.as_ref().expect("trace")) == *rhs.expect("rhs");
            }
            let f = &self.outs[i];
            match rhs {
                None => {
                    let g = &self.outs[arity + i];
                    g.len() == f.len() && (d > 0 || f == g)
                }
                Some(g) => {
                    g.len().as_finite() == Some(f.len())
                        && (d > 0 || f.iter().enumerate().all(|(k, v)| g.get(k) == Some(v)))
                }
            }
        });
        self.frames[d] = Frame {
            next: 0,
            has_son: false,
            is_solution,
            link: None,
        };
    }

    /// Advances side `s` from the state at depth `d` by `ev` into the slot
    /// of depth `d + 1`, appending its new output.
    fn step_side(&mut self, d: usize, s: usize, ev: Event) {
        let ns = self.sides.len();
        let owner = self.owner[d * ns + s];
        self.owner[(d + 1) * ns + s] = owner;
        let src = self.states[owner * ns + s]
            .as_ref()
            .expect("incremental side");
        if !src.reads(ev.chan) {
            return;
        }
        let (head, tail) = self.states.split_at_mut((d + 1) * ns);
        let dst = tail[s].as_mut().expect("incremental side");
        dst.clone_from(head[owner * ns + s].as_ref().expect("incremental side"));
        dst.step_into(ev, &mut self.outs[s]);
        self.owner[(d + 1) * ns + s] = d + 1;
    }

    /// Tests `f(u·ev) ⊑ g(u)` for the node `u` at depth `d`. On success the
    /// `f` outputs and depth-`d + 1` states hold the child's; on failure
    /// the outputs are restored.
    fn admit(&mut self, d: usize, ev: Event) -> bool {
        let arity = self.arity;
        let verify_base = d == 0;
        for i in 0..arity {
            let ok = if self.inc[i] {
                let l = self.outs[i].len();
                self.step_side(d, i, ev);
                if l == self.outs[i].len() && !verify_base {
                    // Appends nothing; the invariant is the whole check.
                    continue;
                }
                // The root's prefix invariant is not established yet:
                // verify the already-emitted values too.
                let from = if verify_base { 0 } else { l };
                let f = &self.outs[i];
                match &self.rhs_seqs[d * arity + i] {
                    None => {
                        let g = &self.outs[arity + i];
                        f.len() <= g.len() && f[from..] == g[from..f.len()]
                    }
                    Some(g) => {
                        g.len().as_finite().is_none_or(|m| m >= f.len())
                            && (from..f.len()).all(|k| g.get(k) == Some(&f[k]))
                    }
                }
            } else {
                self.path.push(ev);
                let f = self.sides[i].eval(&self.trace());
                self.path.pop();
                f.leq(self.rhs_seqs[d * arity + i].as_ref().expect("rhs"))
            };
            if !ok {
                self.truncate_outs(d, 0..arity);
                return false;
            }
        }
        true
    }

    /// Cuts the outputs of `sides` back to their length at depth `d`.
    fn truncate_outs(&mut self, d: usize, sides: std::ops::Range<usize>) {
        let ns = self.sides.len();
        for s in sides {
            self.outs[s].truncate(self.lens[d * ns + s]);
        }
    }

    /// Tries the remaining children of the node at depth `d`.
    fn descend(&mut self, d: usize) -> Next {
        let (ns, arity) = (self.sides.len(), self.arity);
        self.reach(d + 1);
        while self.frames[d].next < self.events.len() {
            // A node at the limit is not expanded; a classifying walk
            // needs its has-son test, up to the first son.
            if d == self.limit && (!self.record || self.frames[d].has_son) {
                return Next::Done;
            }
            let ev = self.events[self.frames[d].next];
            self.frames[d].next += 1;
            if !self.admit(d, ev) {
                continue;
            }
            self.frames[d].has_son = true;
            let past_cut =
                d + 1 == self.limit && self.counts.get(d + 1).is_some_and(|&n| n >= self.cut);
            if d == self.limit || past_cut {
                // The son is not visited. Past the cut, neither is any
                // later node of its depth.
                self.truncate_outs(d, 0..arity);
                self.frames[d].next = self.events.len();
                return Next::Done;
            }
            for s in arity..ns {
                if self.inc[s] {
                    self.step_side(d, s, ev);
                }
            }
            self.path.push(ev);
            if !self.count(d + 1) {
                return Next::Abort;
            }
            self.enter(d + 1);
            return Next::Child;
        }
        Next::Done
    }

    /// Records the classification of the finished node at depth `d`.
    fn finish(&mut self, d: usize) {
        if !self.record {
            return;
        }
        let f = self.frames[d];
        let link = self.link(d);
        let bucket = &mut self.found[d];
        let mut record = |kind| bucket.push((kind, link));
        if f.is_solution {
            record(Kind::Solution);
        }
        if d >= self.max_depth {
            if f.has_son {
                record(Kind::Frontier);
            } else if !f.is_solution {
                record(Kind::DeadEnd);
            }
        } else if !f.has_son && !f.is_solution {
            record(Kind::DeadEnd);
        }
    }

    /// The path link of the node at depth `d`, creating the missing links
    /// along the path (each path node gets at most one).
    fn link(&mut self, d: usize) -> usize {
        let mut k = d;
        while k > 0 && self.frames[k].link.is_none() {
            k -= 1;
        }
        let mut link = if k == 0 {
            ROOT
        } else {
            self.frames[k].link.expect("linked")
        };
        for j in k + 1..=d {
            self.links.push((link, self.path[j - 1]));
            link = self.links.len() - 1;
            self.frames[j].link = Some(link);
        }
        link
    }

    fn trace_of(&self, mut link: usize, depth: usize) -> Trace {
        let mut events = Vec::with_capacity(depth);
        while link != ROOT {
            let (parent, ev) = self.links[link];
            events.push(ev);
            link = parent;
        }
        events.reverse();
        Trace::finite(events)
    }

    /// One depth-first walk down to `limit`, visiting only the first `cut`
    /// nodes at that depth; `false` if it stopped at node `budget + 1`.
    /// Every walk starts and ends at the root.
    fn walk(&mut self, limit: usize, cut: usize, budget: usize, record: bool) -> bool {
        (self.limit, self.cut, self.budget, self.record) = (limit, cut, budget, record);
        self.counts.clear();
        self.total = 0;
        self.found.iter_mut().for_each(Vec::clear);
        self.links.clear();
        if limit == 0 && cut == 0 {
            return true;
        }
        if !self.count(0) {
            return false;
        }
        self.enter(0);
        loop {
            let d = self.path.len();
            match self.descend(d) {
                Next::Child => continue,
                Next::Done => {}
                Next::Abort => {
                    self.path.clear();
                    self.truncate_outs(0, 0..self.sides.len());
                    return false;
                }
            }
            self.finish(d);
            if d == 0 {
                return true;
            }
            self.path.pop();
            self.truncate_outs(d - 1, 0..self.sides.len());
        }
    }

    fn run(mut self, max_nodes: usize) -> Enumeration {
        let truncated = !self.walk(self.max_depth, usize::MAX, max_nodes, true);
        if truncated {
            // The first level where the aborted walk's cumulative count
            // reached `max_nodes` bounds `k` from above.
            let mut n = 0;
            let mut hi = self
                .counts
                .iter()
                .position(|c| {
                    n += c;
                    n >= max_nodes
                })
                .expect("the walk counted past max_nodes");
            let (mut lo, mut above) = (0, 0);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.walk(mid, usize::MAX, max_nodes - 1, false) {
                    (lo, above) = (mid + 1, self.total);
                } else {
                    hi = mid;
                }
            }
            self.walk(lo, max_nodes - above, usize::MAX, true);
        }

        let mut out = Enumeration {
            solutions: Vec::new(),
            dead_ends: Vec::new(),
            frontier: Vec::new(),
            nodes_visited: if truncated { max_nodes } else { self.total },
            truncated,
        };
        for (d, bucket) in self.found.iter().enumerate() {
            for &(kind, link) in bucket {
                let t = self.trace_of(link, d);
                match kind {
                    Kind::Solution => out.solutions.push(t),
                    Kind::DeadEnd => out.dead_ends.push(t),
                    Kind::Frontier => out.frontier.push(t),
                }
            }
        }
        out
    }
}

/// Depth-first, incrementally evaluating enumeration of the Section 3.3
/// tree — same results as [`crate::enumerate::enumerate`], without the
/// per-node O(depth) replay.
pub fn enumerate_memo(desc: &Description, alphabet: &Alphabet, opts: EnumOptions) -> Enumeration {
    Walk::new(desc, alphabet, opts.max_depth).run(opts.max_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate;
    use eqp_seqfn::paper::{ch, even, odd, r_map, t_bar};
    use eqp_seqfn::SeqExpr;
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

    fn assert_same(a: &Enumeration, e: &Enumeration) {
        assert_eq!(a.solutions, e.solutions, "solutions differ");
        assert_eq!(a.dead_ends, e.dead_ends, "dead ends differ");
        assert_eq!(a.frontier, e.frontier, "frontier differs");
        assert_eq!(a.nodes_visited, e.nodes_visited, "visit count differs");
        assert_eq!(a.truncated, e.truncated, "truncation flag differs");
    }

    fn check_against_seed(desc: &Description, alpha: &Alphabet, opts: EnumOptions) {
        assert_same(
            &enumerate_memo(desc, alpha, opts),
            &enumerate(desc, alpha, opts),
        );
    }

    #[test]
    fn random_bit_matches_seed() {
        let desc = Description::new("random-bit").equation(r_map(ch(b())), t_bar());
        let alpha = Alphabet::new().with_bits(b());
        check_against_seed(&desc, &alpha, EnumOptions::default());
    }

    #[test]
    fn dfm_matches_seed() {
        let dfm = Description::new("dfm")
            .equation(even(ch(d())), ch(b()))
            .equation(odd(ch(d())), ch(c()));
        let alpha = Alphabet::new()
            .with_chan(b(), [Value::Int(0), Value::Int(2)])
            .with_chan(c(), [Value::Int(1)])
            .with_ints(d(), 0, 2);
        check_against_seed(
            &dfm,
            &alpha,
            EnumOptions {
                max_depth: 4,
                max_nodes: 50_000,
            },
        );
    }

    #[test]
    fn ticks_infinite_rhs_falls_back_and_matches() {
        // t_bar() is the infinite constant T̄ — no delta support on that
        // side, exercising the Full fallback path.
        let ticks = Description::new("ticks").defines(b(), SeqExpr::concat([Value::tt()], ch(b())));
        let alpha = Alphabet::new().with_chan(b(), [Value::tt()]);
        check_against_seed(
            &ticks,
            &alpha,
            EnumOptions {
                max_depth: 5,
                max_nodes: 100,
            },
        );
    }

    #[test]
    fn truncation_matches_seed_exactly() {
        let chaos = Description::new("chaos").equation(SeqExpr::epsilon(), SeqExpr::epsilon());
        let alpha = Alphabet::new().with_ints(b(), 0, 9);
        // Sweep caps across level boundaries: 1+10+100+1000 node levels.
        for max_nodes in [0, 1, 5, 10, 11, 12, 110, 111, 500, 1111, 1112, 5000] {
            let opts = EnumOptions {
                max_depth: 3,
                max_nodes,
            };
            check_against_seed(&chaos, &alpha, opts);
        }
    }

    #[test]
    fn brock_ackermann_root_with_nonempty_sides() {
        // The eliminated Brock–Ackermann description has rhs(ε) = ⟨0 2⟩ ≠ ε:
        // exercises the root verification path (no prefix invariant yet).
        let desc = crate::description::Description::new("ba")
            .equation(even(ch(d())), SeqExpr::const_ints([0, 2]))
            .equation(odd(ch(d())), SeqExpr::affine(1, 1, even(ch(d()))));
        let alpha = Alphabet::new().with_ints(d(), 0, 3);
        check_against_seed(
            &desc,
            &alpha,
            EnumOptions {
                max_depth: 4,
                max_nodes: 10_000,
            },
        );
    }
}
