//! The sharded-runtime differential suite: the epoch-commit multicore
//! runtime ([`eqp::kahn::shard`]) must be **observationally invisible** —
//! for every zoo network, every scheduler, and every shard count in
//! {1, 2, 4, 8}, the run report (trace, telemetry, counters, status),
//! the conformance verdict, and any captured checkpoint are
//! byte-identical. This is the generalized Kahn principle made a test
//! matrix: how work is partitioned across threads is just another
//! implementation detail the canonical event order erases.
//!
//! The companion model check lives in `tests/shard_model.rs`; the
//! unsharded-vs-sharded *verdict* agreement (any deterministic merge
//! certifies identically) is pinned here too.

use eqp::core::Description;
use eqp::kahn::conformance::{check_report, ConformanceOptions, Verdict};
use eqp::kahn::{
    procs, Adversarial, MonitorPolicy, Network, RandomSched, RoundRobin, RunOptions, Scheduler,
};
use eqp::processes::zoo::conformance_zoo;
use eqp::seqfn::paper::{ch, twice};
use eqp::seqfn::SeqExpr;
use eqp::trace::{Chan, Lasso, Value};

/// The shard counts every differential run is replicated across.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomSched::new(seed)),
        Box::new(Adversarial::new(seed ^ 0xABCD)),
    ]
}

/// Reports carry no `PartialEq` (floats in derived telemetry would make
/// it misleading); the byte-identity claim is exactly Debug-equality of
/// the full structure — every trace event, meter, and status.
fn rendered<T: std::fmt::Debug>(r: &T) -> String {
    format!("{r:?}")
}

/// The headline theorem: for every zoo entry × scheduler × seed, the
/// sharded run's full report and verdict are byte-identical across all
/// shard counts — partitioning the processes over 1, 2, 4, or 8 worker
/// threads changes nothing observable.
#[test]
fn zoo_sharded_byte_identical_across_shard_counts() {
    for entry in conformance_zoo() {
        for seed in [0u64, 7] {
            for kind in 0..schedulers(seed).len() {
                let mut base_sched = schedulers(seed).remove(kind);
                let (base_report, base_conf) = entry.certify_sharded(&mut *base_sched, seed, 1);
                assert!(
                    base_conf.is_conformant(),
                    "{} (seed {seed}, kind {kind}) sharded run must certify: {base_conf}",
                    entry.name
                );
                assert_eq!(
                    base_report.quiescent, entry.quiesces,
                    "{} (seed {seed}, kind {kind}): unexpected sharded run shape",
                    entry.name
                );
                let base_rendered = rendered(&base_report);
                for shards in &SHARD_COUNTS[1..] {
                    let mut sched = schedulers(seed).remove(kind);
                    let (report, conf) = entry.certify_sharded(&mut *sched, seed, *shards);
                    assert_eq!(
                        rendered(&report),
                        base_rendered,
                        "{} (seed {seed}, kind {kind}): report differs at {shards} shards",
                        entry.name
                    );
                    assert_eq!(
                        conf.verdict, base_conf.verdict,
                        "{} (seed {seed}, kind {kind}): verdict differs at {shards} shards",
                        entry.name
                    );
                }
            }
        }
    }
}

/// Any deterministic merge certifies identically (Abramsky's generalized
/// Kahn principle): the sharded runtime's verdict must agree with the
/// unsharded engine's on every entry, and for deterministic quiescing
/// networks the per-channel histories themselves must coincide — the
/// two runtimes are just two schedules of the same Kahn network.
#[test]
fn zoo_sharded_verdict_agrees_with_unsharded() {
    for entry in conformance_zoo() {
        let seed = 3u64;
        for kind in 0..schedulers(seed).len() {
            let mut plain_sched = schedulers(seed).remove(kind);
            let (plain, plain_conf) = entry.certify(&mut *plain_sched, seed);
            let mut sharded_sched = schedulers(seed).remove(kind);
            let (sharded, sharded_conf) = entry.certify_sharded(&mut *sharded_sched, seed, 2);
            assert_eq!(
                sharded_conf.verdict, plain_conf.verdict,
                "{} (kind {kind}): sharded verdict diverges from unsharded",
                entry.name
            );
            if entry.deterministic && entry.quiesces {
                for chan_report in &plain.channels {
                    let c = chan_report.chan;
                    assert_eq!(
                        sharded.trace.seq_on(c),
                        plain.trace.seq_on(c),
                        "{} (kind {kind}): deterministic history on {c:?} diverges",
                        entry.name
                    );
                }
            }
        }
    }
}

/// The online smoothness monitor rides the canonical committed order, so
/// a monitored sharded run must (a) reach the same verdict as a post-hoc
/// check of the very same trace (the raw `check_report`, matching the
/// unsharded monitor-equivalence convention — the fork's completion hook
/// is a zoo-level amendment neither checker sees) and (b) leave the run
/// untouched — monitoring is pure observation at any shard count.
#[test]
fn zoo_sharded_monitor_agrees_with_posthoc() {
    for entry in conformance_zoo() {
        let seed = 5u64;
        for shards in [2usize, 4] {
            let mut bare_sched: Box<dyn Scheduler> = Box::new(RandomSched::new(seed));
            let (bare, _) = entry.certify_sharded(&mut *bare_sched, seed, shards);
            let mut mon_sched: Box<dyn Scheduler> = Box::new(RandomSched::new(seed));
            let (monitored, online) = entry.certify_sharded_monitored(
                &mut *mon_sched,
                seed,
                shards,
                MonitorPolicy::Observe,
            );
            assert_eq!(
                rendered(&monitored),
                rendered(&bare),
                "{} ({shards} shards): monitoring perturbed the run",
                entry.name
            );
            let posthoc = check_report(
                &entry.description(),
                &monitored,
                &ConformanceOptions::default(),
            );
            assert_eq!(
                online.verdict, posthoc.verdict,
                "{} ({shards} shards): online verdict diverges from post-hoc",
                entry.name
            );
        }
    }
}

/// Checkpoints taken mid-run by the sharded runtime are part of the
/// byte-identity contract: capturing at step `k` under 1, 2, 4, or 8
/// shards yields the same fingerprint (same queues, trace, RNG,
/// per-process state, scheduler state) and the same final report.
#[test]
fn sharded_checkpoint_fingerprint_identical_across_shard_counts() {
    let seed = 11u64;
    let mut exercised = 0usize;
    for entry in conformance_zoo() {
        let opts = RunOptions {
            max_steps: entry.max_steps,
            seed,
            ..RunOptions::default()
        };
        // Scout the run length so the capture point always lands mid-run
        // (fig1-plain legitimately makes zero steps: nothing to capture).
        let scout = entry
            .network(seed)
            .run_report_sharded(&mut RoundRobin::new(), opts.with_shards(1));
        if scout.steps < 2 {
            continue;
        }
        exercised += 1;
        let at_step = scout.steps / 2;
        let mut fingerprints = Vec::new();
        let mut reports = Vec::new();
        for shards in SHARD_COUNTS {
            let mut sched = RoundRobin::new();
            let mut net = entry.network(seed);
            let (report, ckpt) =
                net.run_report_sharded_checkpointed(&mut sched, opts.with_shards(shards), at_step);
            let ckpt =
                ckpt.unwrap_or_else(|| panic!("{}: no checkpoint at step {at_step}", entry.name));
            assert!(
                ckpt.steps() >= at_step,
                "{}: capture landed before its step",
                entry.name
            );
            fingerprints.push(ckpt.fingerprint());
            reports.push(rendered(&report));
        }
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "{}: checkpoint fingerprints differ across shard counts: {fingerprints:?}",
            entry.name
        );
        assert!(
            reports.windows(2).all(|w| w[0] == w[1]),
            "{}: checkpointed reports differ across shard counts",
            entry.name
        );
    }
    assert!(
        exercised >= 10,
        "the fingerprint matrix must exercise most of the zoo, got {exercised}"
    );
}

/// Capture under one shard count, resume under another: a checkpoint
/// taken at 2 shards and resumed at 4 (on a freshly built network and
/// freshly built scheduler) must finish byte-identically to the
/// uninterrupted run — shard count is not part of the persisted state.
#[test]
fn sharded_checkpoint_resume_is_byte_identical_across_shard_counts() {
    let seed = 13u64;
    let mut exercised = 0usize;
    for entry in conformance_zoo() {
        let opts = RunOptions {
            max_steps: entry.max_steps,
            seed,
            ..RunOptions::default()
        };
        let mut full_sched = RoundRobin::new();
        let full = entry
            .network(seed)
            .run_report_sharded(&mut full_sched, opts.with_shards(2));
        if full.steps < 2 {
            continue;
        }
        let at_step = full.steps / 2;
        let mut cut_sched = RoundRobin::new();
        let (_, ckpt) = entry.network(seed).run_report_sharded_checkpointed(
            &mut cut_sched,
            opts.with_shards(2),
            at_step,
        );
        let ckpt = ckpt.expect("capture fired");
        if !ckpt.is_complete() {
            continue; // hookless process somewhere: not resumable, same skip as the unsharded suite
        }
        exercised += 1;
        for resume_shards in [1usize, 4] {
            let mut resume_sched = RoundRobin::new();
            let resumed = match entry.network(seed).resume_report_sharded(
                &ckpt,
                &mut resume_sched,
                opts.with_shards(resume_shards),
            ) {
                Ok(r) => r,
                Err(e) => panic!("{}: resume rejected: {e:?}", entry.name),
            };
            assert_eq!(
                rendered(&resumed),
                rendered(&full),
                "{}: resume at {resume_shards} shards diverges from full run",
                entry.name
            );
        }
    }
    assert!(
        exercised >= 8,
        "the resume matrix must exercise most of the zoo, got {exercised}"
    );
}

/// The telemetry-sketch differential, stated explicitly rather than via
/// report Debug-identity: for every zoo entry the merged sketch summary
/// (quantiles, heavy hitters, distinct count) and the serialized sketch
/// image itself are identical across shard counts {1, 2, 4, 8}. Worker
/// threads stage observations locally and the committer folds them in
/// plan order, so partitioning must not perturb a single bucket.
#[test]
fn zoo_sketch_summaries_identical_across_shard_counts() {
    let seed = 17u64;
    let mut with_sketches = 0usize;
    for entry in conformance_zoo() {
        let mut base_sched = schedulers(seed).remove(0);
        let (base_report, _) = entry.certify_sharded(&mut *base_sched, seed, 1);
        let base_image = base_report
            .sketches
            .as_ref()
            .map(eqp::kahn::TelemetrySketches::to_bytes);
        let base_stats = base_report.sketch_stats();
        if base_report.steps > 0 {
            let stats = base_stats
                .as_ref()
                .unwrap_or_else(|| panic!("{}: active run must carry sketches", entry.name));
            assert!(
                stats.events > 0,
                "{}: sketches must have observed the run",
                entry.name
            );
            with_sketches += 1;
        }
        for shards in &SHARD_COUNTS[1..] {
            let mut sched = schedulers(seed).remove(0);
            let (report, _) = entry.certify_sharded(&mut *sched, seed, *shards);
            assert_eq!(
                report
                    .sketches
                    .as_ref()
                    .map(eqp::kahn::TelemetrySketches::to_bytes),
                base_image,
                "{}: sketch image differs at {shards} shards",
                entry.name
            );
            assert_eq!(
                rendered(&report.sketch_stats()),
                rendered(&base_stats),
                "{}: sketch summary differs at {shards} shards",
                entry.name
            );
        }
    }
    assert!(
        with_sketches >= 10,
        "the sketch matrix must exercise most of the zoo, got {with_sketches}"
    );
}

/// A 220-channel wide network — 110 parallel source → doubler lanes —
/// certified end-to-end by the *online* monitor on the sharded runtime.
/// Channel ids run past 128, so the compiled support masks overflow and
/// the exact-`ChanSet` fallback (the satellite bugfix) carries the
/// monitor's channel bookkeeping; the run itself exercises wide-network
/// scatter/commit across every shard count.
#[test]
fn wide_network_sharded_monitored_certifies_identically() {
    const LANES: usize = 110;
    let build = || {
        let mut net = Network::new();
        for lane in 0..LANES {
            let (input, output) = (Chan::new(2 * lane as u32), Chan::new(2 * lane as u32 + 1));
            let feed: Vec<Value> = (1..=3).map(|v| Value::Int(v + lane as i64)).collect();
            net.add(procs::Source::new(format!("env-{lane}"), input, feed));
            net.add(procs::Apply::int_affine(
                format!("double-{lane}"),
                input,
                output,
                2,
                0,
            ));
        }
        net
    };
    let mut desc = Description::new("wide-lanes");
    for lane in 0..LANES {
        let (input, output) = (Chan::new(2 * lane as u32), Chan::new(2 * lane as u32 + 1));
        let feed: Vec<Value> = (1..=3).map(|v| Value::Int(v + lane as i64)).collect();
        desc = desc
            .defines(input, SeqExpr::constant(Lasso::finite(feed)))
            .defines(output, twice(ch(input)));
    }
    assert!(
        desc.channels().iter().max().map(|c| c.index()).unwrap_or(0) >= 200,
        "the wide network must spill past the 128-bit support mask"
    );

    let mut baseline: Option<String> = None;
    for shards in SHARD_COUNTS {
        let mut sched = RandomSched::new(21);
        let mut net = build();
        let opts = RunOptions {
            max_steps: 2000,
            seed: 21,
            ..RunOptions::default()
        }
        .with_shards(shards);
        let (report, conf) = net.run_report_sharded_monitored(&desc, &mut sched, opts);
        assert!(
            report.quiescent,
            "{shards} shards: wide network must quiesce"
        );
        assert_eq!(
            conf.verdict,
            Verdict::SmoothSolution,
            "{shards} shards: wide network must certify as a solution: {conf}"
        );
        let this = rendered(&report);
        match &baseline {
            None => baseline = Some(this),
            Some(b) => assert_eq!(&this, b, "{shards} shards: wide report diverges"),
        }
    }
}
