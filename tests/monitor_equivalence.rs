//! Differential property suite: every conformance result the runtime
//! produces — the online `SmoothnessMonitor` and the post-hoc
//! `check_report` replay alike — is *identical* to the reference check,
//! `eqp_core::diagnose` on the projected trace with the shared
//! `verdict_for` derivation. Covered: the whole zoo under all three
//! schedulers, engine fault schedules (delay/drop/duplicate/reorder/
//! crash), reliable (ARQ) wrapping including graceful degradation,
//! mid-run checkpoint/resume of monitor state, lasso-source netlang
//! pipelines (whose source equation is an infinite constant), random
//! tenant programs, drop/duplicate faults convicting on a constant side,
//! and a network wide enough to spill past the 128-bit channel masks.
//!
//! The comparison is the honest one: each run's own `RunReport` is fed to
//! the oracle, so every path judges the *same* trace; and a monitored
//! run's trace is compared against the plain run's to pin that
//! observation is pure. Equality is field-exact — verdict, full
//! `SmoothReport` (limits, first violation, depth), quiescence flag, and
//! checked trace.

use eqp::core::diagnose::{diagnose, SmoothReport};
use eqp::core::Description;
use eqp::kahn::chaos::{self, SchedulerChoice, Trial};
use eqp::kahn::conformance::{
    check_report, check_trace, verdict_for, Conformance, ConformanceOptions, Verdict,
};
use eqp::kahn::report::RunStatus;
use eqp::kahn::{
    procs, Adversarial, ArqOptions, CrashPoint, Fault, FaultSchedule, LinkFaultSpec, MonitorPolicy,
    Network, RandomSched, RoundRobin, RunOptions, RunReport, Scheduler, SupervisorOptions,
};
use eqp::processes::bag;
use eqp::processes::zoo::{conformance_zoo, ZooEntry};
use eqp::seqfn::paper::{ch, twice};
use eqp::seqfn::{CompiledSideEval, SeqExpr};
use eqp::trace::{Chan, Lasso, Trace, Value};
use eqp_netlang::{parse, random_program, NetLimits, NetProgram};
use eqpd::spec::MAX_TRACE_EVENTS;
use std::time::{Duration, Instant};

fn schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomSched::new(seed)),
        Box::new(Adversarial::new(seed ^ 0xABCD)),
    ]
}

/// The reference verdict on one finished run: the paper's definition as
/// written, re-walking every prefix pair of the projected trace.
struct Oracle {
    verdict: Verdict,
    report: SmoothReport,
    quiescent: bool,
    checked: Trace,
    equations: Vec<String>,
}

fn oracle(desc: &Description, run: &RunReport) -> Oracle {
    let checked = run.trace.project(&desc.channels());
    let depth = checked.events().expect("run traces are finite").len();
    let report = diagnose(desc, &checked, depth);
    Oracle {
        verdict: verdict_for(&report, &run.status),
        report,
        quiescent: run.status.is_quiescent(),
        checked,
        equations: desc.equations_rendered().to_vec(),
    }
}

/// Field-exact equality of a conformance result with the oracle's (the
/// struct keeps its rendered equations private, so compare the
/// observable surface).
fn assert_matches_oracle(context: &str, conf: &Conformance, oracle: &Oracle) {
    assert_eq!(conf.verdict, oracle.verdict, "{context}: verdict");
    assert_eq!(conf.report, oracle.report, "{context}: smooth report");
    assert_eq!(conf.quiescent, oracle.quiescent, "{context}: quiescence");
    assert_eq!(conf.checked, oracle.checked, "{context}: checked trace");
    if let Some(k) = conf.failing_component() {
        assert_eq!(
            conf.component_equation(k),
            oracle.equations.get(k).map(String::as_str),
            "{context}: named equation"
        );
    }
}

/// Both production paths on one run — the online monitor's result and
/// the post-hoc `check_report` replay — against the oracle. Returns the
/// oracle's verdict.
fn assert_certified(
    context: &str,
    desc: &Description,
    run: &RunReport,
    online: &Conformance,
) -> Verdict {
    let oracle = oracle(desc, run);
    assert_matches_oracle(&format!("{context} online"), online, &oracle);
    let replay = check_report(desc, run, &ConformanceOptions::default());
    assert_matches_oracle(&format!("{context} check_report"), &replay, &oracle);
    oracle.verdict
}

#[test]
fn zoo_monitored_verdicts_equal_posthoc_under_all_schedulers() {
    for entry in conformance_zoo() {
        for seed in [0u64, 3, 11] {
            for sched in schedulers(seed).iter_mut() {
                let (report, online) =
                    entry.certify_monitored(&mut **sched, seed, MonitorPolicy::Observe);
                let ctx = format!("{} (seed {seed}, {})", entry.name, sched.name());
                assert_certified(&ctx, &entry.description(), &report, &online);
            }
        }
        // observation is pure: the monitored trace is the plain run's
        let (plain, _) = entry.certify(&mut RoundRobin::new(), 3);
        let (monitored, _) =
            entry.certify_monitored(&mut RoundRobin::new(), 3, MonitorPolicy::Observe);
        assert_eq!(
            plain.trace, monitored.trace,
            "{}: the monitor must not perturb the run",
            entry.name
        );
    }
}

/// The faults of PR 2's conviction matrix, scheduled on every channel of
/// the entry's network (plus a supervised-style crash point where asked).
fn fault_schedules(entry: &ZooEntry, with_crash: bool) -> Vec<(String, FaultSchedule)> {
    let channels = entry.network(0).channels();
    let faults = [
        ("delay", Fault::Delay { slack: 2 }),
        ("drop", Fault::Drop { period: 2 }),
        ("duplicate", Fault::Duplicate { period: 2 }),
        (
            "reorder",
            Fault::Reorder {
                window: 3,
                seed: 0x5EED,
            },
        ),
    ];
    let mut schedules: Vec<(String, FaultSchedule)> = faults
        .iter()
        .map(|(name, fault)| {
            (
                (*name).to_owned(),
                FaultSchedule {
                    crashes: vec![],
                    links: channels
                        .iter()
                        .map(|&chan| LinkFaultSpec {
                            chan,
                            fault: fault.clone(),
                        })
                        .collect(),
                },
            )
        })
        .collect();
    if with_crash {
        schedules.push((
            "crash".to_owned(),
            FaultSchedule {
                crashes: vec![CrashPoint {
                    process: 0,
                    at_step: 2,
                }],
                links: vec![],
            },
        ));
    }
    schedules
}

#[test]
fn zoo_monitored_verdicts_equal_posthoc_under_fault_schedules() {
    for entry in conformance_zoo() {
        for (fault_name, schedule) in fault_schedules(&entry, true) {
            for sched in schedulers(7).iter_mut() {
                let (report, online) = entry.certify_monitored_faulted(
                    &mut **sched,
                    7,
                    MonitorPolicy::Observe,
                    &schedule,
                );
                let ctx = format!("{} × {fault_name} ({})", entry.name, sched.name());
                assert_certified(&ctx, &entry.description(), &report, &online);
            }
        }
    }
}

#[test]
fn zoo_monitored_verdicts_equal_posthoc_under_reliable_wrapping() {
    for entry in conformance_zoo() {
        for (fault_name, schedule) in fault_schedules(&entry, false) {
            if schedule.links.is_empty() {
                continue;
            }
            let mut sched = RoundRobin::new();
            let (report, online) =
                entry.certify_monitored_reliable(&mut sched, 13, MonitorPolicy::Observe, &schedule);
            let ctx = format!("{} × arq({fault_name})", entry.name);
            assert_certified(&ctx, &entry.description(), &report, &online);
        }
    }
}

#[test]
fn degraded_runs_certify_identically_online() {
    // Pinned graceful degradation (same setup as chaos_zoo): a total drop
    // on the bag's ARQ-protected input under an impatient retry budget
    // exhausts the link. Every path must map `ReliabilityExhausted` to
    // `Degraded` exactly as the oracle's derivation does.
    let entry = conformance_zoo()
        .into_iter()
        .find(|e| e.name == "bag")
        .expect("bag is registered");
    let scenario = entry
        .scenario()
        .expect("bag has no completion hook")
        .with_reliable([bag::C], ArqOptions::impatient());
    let trial = Trial {
        net_seed: 0,
        scheduler: SchedulerChoice::RoundRobin,
        schedule: FaultSchedule {
            crashes: vec![],
            links: vec![LinkFaultSpec {
                chan: bag::C,
                fault: Fault::Drop { period: 1 },
            }],
        },
    };
    let sup = SupervisorOptions::one_for_one();
    let (report, online) =
        chaos::run_trial_monitored(&scenario, &trial, sup, MonitorPolicy::Observe);
    assert!(
        matches!(&report.status, RunStatus::ReliabilityExhausted { .. }),
        "setup must exhaust the retry budget, got: {}",
        report.status
    );
    assert!(
        matches!(&online.verdict, Verdict::Degraded { link } if link == "arq@ch120"),
        "online verdict must be Degraded naming the link: {:?}",
        online.verdict
    );
    assert_certified("bag degraded", &scenario.description(), &report, &online);
}

#[test]
fn checkpointed_monitor_state_resumes_byte_identically() {
    // For every resumable zoo entry: capture mid-run (monitor state
    // included), resume on a fresh network, and require the stitched
    // run's trace AND conformance to equal the uninterrupted monitored
    // run's. Entries whose processes lack snapshot hooks return an error
    // from resume and are skipped, same as the checkpoint_resume suite.
    let mut resumed_somewhere = 0usize;
    for entry in conformance_zoo() {
        let seed = 5u64;
        let opts = RunOptions {
            max_steps: entry.max_steps,
            seed,
            ..RunOptions::default()
        };
        let desc = entry.description();
        let (full_report, full_conf) = {
            let mut net = entry.network(seed);
            net.run_report_monitored(&desc, &mut RoundRobin::new(), opts)
        };
        let mid = full_report.steps / 2;
        let (_, _, ckpt) = {
            let mut net = entry.network(seed);
            net.run_report_checkpointed_monitored(&desc, &mut RoundRobin::new(), opts, mid)
        };
        let Some(ckpt) = ckpt else {
            continue; // run ended before the capture point
        };
        assert!(ckpt.has_monitor(), "{}: monitored checkpoint", entry.name);
        let mut net = entry.network(seed);
        match net.resume_report_monitored(&ckpt, &mut RoundRobin::new(), opts) {
            Ok((resumed_report, resumed_conf)) => {
                assert_eq!(
                    resumed_report.trace, full_report.trace,
                    "{}: resumed trace must be byte-identical",
                    entry.name
                );
                let ctx = format!("{} resume", entry.name);
                let reference = oracle(&desc, &full_report);
                assert_matches_oracle(&ctx, &resumed_conf, &reference);
                assert_matches_oracle(&ctx, &full_conf, &reference);
                resumed_somewhere += 1;
            }
            Err(_) => continue, // hookless process or scheduler: not resumable
        }
    }
    assert!(
        resumed_somewhere > 2,
        "the resume matrix must actually exercise several entries"
    );
}

#[test]
fn abort_policy_halts_before_the_step_bound_and_names_the_posthoc_component() {
    // The acceptance pin: under a drop-fault schedule,
    // `AbortOnViolation` must stop the run at the convicting event —
    // strictly before both the step bound and the faulted run's natural
    // end — and name the same component equation the oracle convicts on
    // the completed run.
    const C: Chan = Chan::new(0);
    const D: Chan = Chan::new(1);
    let values: Vec<i64> = (1..=64).collect();
    let build = || {
        let mut net = Network::new();
        net.add(procs::Source::new(
            "env",
            C,
            values.iter().map(|&n| Value::Int(n)).collect::<Vec<_>>(),
        ));
        net.add(procs::Apply::int_affine("double", C, D, 2, 0));
        net
    };
    let desc = Description::new("double-pipeline")
        .equation(ch(C), SeqExpr::const_ints(values.clone()))
        .equation(ch(D), SeqExpr::affine(2, 0, ch(C)));
    let schedule = FaultSchedule {
        crashes: vec![],
        links: vec![LinkFaultSpec {
            chan: C,
            fault: Fault::Drop { period: 2 },
        }],
    };
    let opts = RunOptions {
        max_steps: 10_000,
        seed: 0,
        ..RunOptions::default()
    };

    // reference: run to the end, then re-walk the whole trace
    let full = build().run_report_faulted(&mut RoundRobin::new(), opts, &schedule);
    let convicted = match oracle(&desc, &full).verdict {
        Verdict::SmoothnessViolation { component } => component,
        other => panic!("the periodic drop must convict, got {other:?}"),
    };

    // online, aborting: halts at the convicting event
    let (aborted, online) = build().run_report_monitored_faulted(
        &desc,
        &mut RoundRobin::new(),
        opts.with_monitor(MonitorPolicy::AbortOnViolation),
        &schedule,
    );
    match &aborted.status {
        RunStatus::MonitorAborted { component } => assert_eq!(
            *component, convicted,
            "the abort must name the oracle's failing equation"
        ),
        other => panic!("expected a monitor abort, got: {other}"),
    }
    assert!(
        aborted.steps < full.steps,
        "abort at step {} must beat the faulted run's natural end ({})",
        aborted.steps,
        full.steps
    );
    assert!(aborted.steps < opts.max_steps, "…and the step bound");
    assert_eq!(
        online.failing_component(),
        Some(convicted),
        "the online conformance names the same equation: {online}"
    );
    assert!(!online.is_conformant());
}

#[test]
fn unmonitored_checkpoints_refuse_monitored_resume() {
    let entry = conformance_zoo()
        .into_iter()
        .find(|e| e.name == "bag")
        .expect("bag is registered");
    let opts = RunOptions {
        max_steps: entry.max_steps,
        seed: 0,
        ..RunOptions::default()
    };
    let (_, ckpt) = entry
        .network(0)
        .run_report_checkpointed(&mut RoundRobin::new(), opts, 2);
    let ckpt = ckpt.expect("capture at step 2");
    assert!(!ckpt.has_monitor());
    let err = entry
        .network(0)
        .resume_report_monitored(&ckpt, &mut RoundRobin::new(), opts)
        .expect_err("monitored resume from an unmonitored checkpoint");
    assert_eq!(err, eqp::kahn::SnapshotError::NoMonitor);
}

/// A lasso-source pipeline in the shape tenants submit: `src` emits
/// `prefix · cycle^ω` on `c0` (described by the infinite constant
/// `loop(...)`), followed by map/delay/copy stages. The source never
/// ends, so every run is cut by its step budget.
fn pipeline(seed: u64, steps: u64) -> NetProgram {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut below = |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    let mut vals = |min: u64| -> String {
        let len = min + below(3);
        (0..len)
            .map(|_| below(10).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let (prefix, cycle) = (vals(0), vals(1));
    let stages = 2 + below(4);
    let mut src = format!("net pipeline-{seed}\nsteps {steps}\n");
    for i in 0..=stages {
        src.push_str(&format!("chan c{i} = {i}\n"));
    }
    src.push_str(&format!("proc src = lasso c0 [{prefix}] [{cycle}]\n"));
    let mut eqs = vec![format!("eq c0 <= loop([{prefix}],[{cycle}])")];
    for i in 1..=stages {
        let a = i - 1;
        match below(3) {
            0 => {
                let (m, b) = (1 + below(3), below(4));
                src.push_str(&format!("proc p{i} = map affine({m},{b}) c{a} -> c{i}\n"));
                eqs.push(format!("eq c{i} <= map(affine({m},{b}), c{a})"));
            }
            1 => {
                let v = below(10);
                src.push_str(&format!("proc p{i} = delay [{v}] c{a} -> c{i}\n"));
                eqs.push(format!("eq c{i} <= concat([{v}], c{a})"));
            }
            _ => {
                src.push_str(&format!("proc p{i} = copy c{a} -> c{i}\n"));
                eqs.push(format!("eq c{i} <= c{a}"));
            }
        }
    }
    for eq in eqs {
        src.push_str(&eq);
        src.push('\n');
    }
    parse(&src, &NetLimits::default()).expect("generated pipelines parse")
}

fn opts(steps: u64, seed: u64) -> RunOptions {
    RunOptions {
        max_steps: steps as usize,
        seed,
        ..RunOptions::default()
    }
}

#[test]
fn lasso_pipelines_certify_like_the_oracle() {
    for seed in 0..8u64 {
        let program = pipeline(seed, 200 + 25 * seed);
        let desc = program.description();
        assert!(
            matches!(
                CompiledSideEval::new(&desc.rhs_compiled()[0]),
                CompiledSideEval::Const { .. }
            ),
            "the source equation's side is an infinite constant"
        );
        for sched in schedulers(seed).iter_mut() {
            let (report, online) =
                program
                    .build(seed)
                    .run_report_monitored(&desc, sched, opts(program.steps(), seed));
            let ctx = format!("{} ({})", program.name(), sched.name());
            let verdict = assert_certified(&ctx, &desc, &report, &online);
            assert_eq!(verdict, Verdict::SmoothPrefix, "{ctx}: cut by its budget");
        }
    }
}

#[test]
fn random_tenant_programs_certify_like_the_oracle() {
    for seed in 0..16u64 {
        let program =
            parse(&random_program(seed), &NetLimits::default()).expect("generated programs parse");
        let desc = program.description();
        // Budgets are capped so the quadratic oracle stays quick.
        let steps = program.steps().min(300);
        for sched in schedulers(seed).iter_mut() {
            let (report, online) =
                program
                    .build(seed)
                    .run_report_monitored(&desc, sched, opts(steps, seed));
            let ctx = format!("{} ({})", program.name(), sched.name());
            let verdict = assert_certified(&ctx, &desc, &report, &online);
            assert!(
                matches!(verdict, Verdict::SmoothSolution | Verdict::SmoothPrefix),
                "{ctx}: generated programs certify, got {verdict:?}"
            );
        }
    }
}

#[test]
fn source_faults_convict_on_the_constant_side_like_the_oracle() {
    let mut convicted_on_source = 0usize;
    for seed in 0..8u64 {
        let program = pipeline(seed, 200);
        let desc = program.description();
        for (name, fault) in [
            ("drop", Fault::Drop { period: 2 }),
            ("duplicate", Fault::Duplicate { period: 2 }),
        ] {
            let schedule = FaultSchedule {
                crashes: vec![],
                links: vec![LinkFaultSpec {
                    chan: Chan::new(0),
                    fault,
                }],
            };
            let (report, online) = program.build(seed).run_report_monitored_faulted(
                &desc,
                &mut RoundRobin::new(),
                opts(program.steps(), seed),
                &schedule,
            );
            let ctx = format!("{} × {name}", program.name());
            if assert_certified(&ctx, &desc, &report, &online)
                == (Verdict::SmoothnessViolation { component: 0 })
            {
                convicted_on_source += 1;
            }
        }
    }
    assert!(
        convicted_on_source >= 8,
        "faults on the source channel must convict its constant equation \
         (got {convicted_on_source} of 16)"
    );
}

#[test]
fn largest_checkable_trace_certifies_in_linear_time() {
    // The `check` RPC accepts traces up to `MAX_TRACE_EVENTS` events. A
    // lasso pipeline cut at that length must certify in one linear
    // replay — a prefix-pair re-walk would take minutes — and agree with
    // the oracle on a prefix short enough for it to finish.
    let program = pipeline(3, (MAX_TRACE_EVENTS + 100) as u64);
    let desc = program.description();
    let run = program
        .build(3)
        .run_report(&mut RoundRobin::new(), opts(program.steps(), 3));
    let events = run.trace.events().expect("run traces are finite");
    assert!(events.len() >= MAX_TRACE_EVENTS, "{} events", events.len());
    let trace = Trace::finite(events[..MAX_TRACE_EVENTS].to_vec());

    let started = Instant::now();
    let conf = check_trace(&desc, &trace, false, &ConformanceOptions::default());
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(10),
        "certifying {MAX_TRACE_EVENTS} events took {took:?}"
    );
    assert_eq!(conf.verdict, Verdict::SmoothPrefix);
    assert_eq!(conf.report.depth, MAX_TRACE_EVENTS);

    let prefix = Trace::finite(events[..2_000].to_vec());
    let conf = check_trace(&desc, &prefix, false, &ConformanceOptions::default());
    let report = diagnose(&desc, &prefix, 2_000);
    assert_eq!(
        conf.verdict,
        verdict_for(&report, &RunStatus::BudgetExhausted)
    );
    assert_eq!(conf.report, report);
    assert_eq!(conf.checked, prefix);
}

/// 110 independent source → doubler lanes, 220 channels. Channel ids run
/// past 128, so the compiled support masks overflow and the
/// exact-`ChanSet` fallback carries the monitor's channel bookkeeping.
#[test]
fn wide_network_monitored_certifies_like_the_oracle() {
    const LANES: usize = 110;
    let lane = |i: usize| {
        let (input, output) = (Chan::new(2 * i as u32), Chan::new(2 * i as u32 + 1));
        let feed: Vec<Value> = (1..=3).map(|v| Value::Int(v + i as i64)).collect();
        (input, output, feed)
    };
    let build = || {
        let mut net = Network::new();
        for i in 0..LANES {
            let (input, output, feed) = lane(i);
            net.add(procs::Source::new(format!("env-{i}"), input, feed));
            net.add(procs::Apply::int_affine(
                format!("double-{i}"),
                input,
                output,
                2,
                0,
            ));
        }
        net
    };
    let mut desc = Description::new("wide-lanes");
    for i in 0..LANES {
        let (input, output, feed) = lane(i);
        desc = desc
            .defines(input, SeqExpr::constant(Lasso::finite(feed)))
            .defines(output, twice(ch(input)));
    }
    assert!(
        desc.channels().iter().max().map_or(0, |c| c.index()) >= 200,
        "the wide network must spill past the 128-bit support mask"
    );

    let opts = RunOptions {
        max_steps: 2000,
        seed: 21,
        ..RunOptions::default()
    };
    let (report, online) = build().run_report_monitored(&desc, &mut RandomSched::new(21), opts);
    assert!(report.quiescent, "wide network must quiesce");
    assert_eq!(
        assert_certified("wide-lanes", &desc, &report, &online),
        Verdict::SmoothSolution,
        "wide network must certify as a solution: {online}"
    );
    // observation is pure: the monitored trace is the plain run's
    let plain = build().run_report(&mut RandomSched::new(21), opts);
    assert_eq!(
        plain.trace, report.trace,
        "the monitor must not perturb the run"
    );
}
