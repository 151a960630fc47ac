//! The daemon workload `open-long`, its reference checks and the traced
//! in-process replay of its sessions.

use crate::daemon::{run_dir, Daemon, DaemonConfig, Tenant};
use crate::inputs::{pipeline_session, short_session, submit_line, Kind, Rng, SessionInput};
use crate::stats::{backlog_grew, mean, median, quantile, schedule};
use crate::trace::Tracer;
use crate::{Accounting, Ctx, Outcome};
use eqp_kahn::TelemetrySketches;
use eqpd::journal::Journal;
use eqpd::json::{obj, s, Json};
use eqpd::proto::{parse_request_limited, MAX_FRAME_BYTES};
use eqpd::session::{to_hex, verdict_name};
use eqpd::{ChunkOutcome, Client, SessionResult, SessionRun, SessionSpec, SpecLimits};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

/// Daemon starts per run; `setup_s` is their median.
const STARTS: usize = 5;
/// How long to wait for outstanding verdicts before counting them missing.
const VERDICT_TIMEOUT: Duration = Duration::from_secs(60);

/// What the daemon reported for one session.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    verdict: String,
    trace_hash: u64,
    steps: u64,
}

impl Verdict {
    fn of(result: &SessionResult) -> Verdict {
        Verdict {
            verdict: result.verdict.clone(),
            trace_hash: result.trace_hash,
            steps: result.steps,
        }
    }

    fn from_event(doc: &Json) -> Option<Verdict> {
        Some(Verdict {
            verdict: doc.get("verdict")?.as_str()?.to_owned(),
            trace_hash: doc.get("trace_hash")?.as_u64()?,
            steps: doc.get("steps")?.as_u64()?,
        })
    }
}

/// One submitted session and everything observed about it.
struct Submitted {
    input: SessionInput,
    line: String,
    session: Option<u64>,
    /// Refused by admission control.
    rejected: bool,
    /// When the session was due to be sent.
    due: Instant,
    verdict: Option<(Verdict, Instant)>,
    /// Due→verdict latency, ms.
    latency_ms: f64,
}

fn rpc(client: &mut Client, method: &str, params: Json) -> Result<Json, String> {
    client
        .call(method, params)
        .map_err(|e| format!("{method}: {e}"))?
        .map_err(|e| format!("{method}: {e}"))
}

/// Starts the daemon [`STARTS`] times on fresh journals and keeps the
/// last one running. Returns it with the median start-to-ready time.
fn start_daemon(ctx: &Ctx, cfg: &DaemonConfig) -> Result<(Daemon, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..STARTS {
        drop(last.take());
        let dir = run_dir(&ctx.out, &format!("daemon{i}"));
        let (d, ready) = Daemon::start(&ctx.eqpd, &dir, cfg).map_err(|e| format!("eqpd: {e}"))?;
        times.push(ready.as_secs_f64());
        last = Some(d);
    }
    Ok((last.expect("at least one start"), median(&times)))
}

fn remove_run_dirs(ctx: &Ctx) {
    for i in 0..STARTS {
        let _ = std::fs::remove_dir_all(run_dir(&ctx.out, &format!("daemon{i}")));
    }
    let _ = std::fs::remove_dir_all(run_dir(&ctx.out, "replay"));
}

/// Counts what the daemon did not deliver: shed submissions, aborted
/// sessions and sessions never answered. Reference mismatches are added
/// later.
fn account(subs: &[Submitted]) -> Accounting {
    let mut acc = Accounting::default();
    for sub in subs {
        acc.attempted += 1;
        match (&sub.session, &sub.verdict) {
            (None, _) if sub.rejected => acc.shed += 1,
            (_, None) => acc.missing += 1,
            (_, Some((v, _))) if v.verdict == "Aborted" => acc.aborted += 1,
            _ => {}
        }
    }
    acc
}

/// `open-long`: an open loop of long lasso-pipeline sessions at
/// `--open-rate` per second, each followed half an interval later by a
/// short tenant session (named zoo workload, netlang re-encoding or
/// generated program). Long sessions run in 500-step chunks and park in
/// memory between them; residency is generous, so the daemon evicts
/// nothing, and post-hoc certification of the ~2000-event traces takes
/// almost all of the service time. Latency is reported over the long
/// sessions, timed from when each was due.
pub fn open_long(ctx: &Ctx) -> Result<Outcome, String> {
    let out = run_open_long(ctx);
    remove_run_dirs(ctx);
    out
}

fn run_open_long(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = DaemonConfig {
        workers: ctx.nproc,
        chunk_steps: 500,
        max_resident: 4_096,
        max_in_flight: 4_096,
        max_per_tenant: 4_096,
    };
    let (daemon, setup_s) = start_daemon(ctx, &cfg)?;
    let mut control = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
    let mut tenant = Tenant::connect(&daemon.addr).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(ctx.seed);
    let due = schedule(2.0 * ctx.open_rate, ctx.seconds);
    // Generate and render everything before the clock starts: the
    // generator only writes bytes on schedule.
    let inputs: Vec<(SessionInput, String)> = (0..due.len())
        .map(|i| {
            let input = if i % 2 == 0 {
                pipeline_session(&mut rng)
            } else {
                short_session(&mut rng)
            };
            let line = submit_line(i as u64 + 1, &input);
            (input, line)
        })
        .collect();

    let mut subs: Vec<Submitted> = Vec::with_capacity(due.len());
    let mut arrivals = Arrivals::default();
    let mut late_ms = Vec::with_capacity(due.len());
    let mut in_flight = Vec::with_capacity(due.len());
    let mut answered = 0usize;
    let t0 = Instant::now() + Duration::from_millis(20);
    for ((input, line), d) in inputs.into_iter().zip(&due) {
        let target = t0 + Duration::from_secs_f64(*d);
        std::thread::sleep(target.saturating_duration_since(Instant::now()));
        // Fold in whatever arrived since the last send.
        while let Ok(a) = tenant.inbox.try_recv() {
            answered += arrivals.handle(&a.doc, a.at, &mut subs);
        }
        in_flight.push(subs.len() - answered);
        let sent = Instant::now();
        tenant.send(&line).map_err(|e| e.to_string())?;
        late_ms.push(sent.duration_since(target).as_secs_f64() * 1e3);
        subs.push(Submitted {
            input,
            line,
            session: None,
            rejected: false,
            due: target,
            verdict: None,
            latency_ms: 0.0,
        });
    }
    let deadline = Instant::now() + VERDICT_TIMEOUT;
    while answered < subs.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        let Ok(a) = tenant.inbox.recv_timeout(left) else {
            break;
        };
        answered += arrivals.handle(&a.doc, a.at, &mut subs);
    }
    let slack = 2.0 * cfg.workers as f64 + 2.0;
    if backlog_grew(&in_flight, slack) {
        return Err(format!(
            "open-long is unsustainable at {} long sessions/s: the backlog grew over the \
             window (in flight per send: first {:?} .. last {:?}); no latency is reported",
            ctx.open_rate,
            &in_flight[..in_flight.len().min(8)],
            &in_flight[in_flight.len().saturating_sub(8)..]
        ));
    }
    let mut last = t0;
    let (mut long_ms, mut short_ms) = (Vec::new(), Vec::new());
    for sub in &mut subs {
        if let Some((_, at)) = &sub.verdict {
            sub.latency_ms = at.duration_since(sub.due).as_secs_f64() * 1e3;
            last = last.max(*at);
            if sub.input.kind == Kind::Pipeline {
                long_ms.push(sub.latency_ms);
            } else {
                short_ms.push(sub.latency_ms);
            }
        }
    }
    let completed = long_ms.len() + short_ms.len();
    let span_s = last.duration_since(t0).as_secs_f64();
    let stats = rpc(&mut control, "stats", obj([]))?;
    let mut rollups = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        rpc(&mut control, "fleet_report", obj([]))?;
        rollups.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(tenant);
    drop(control);
    drop(daemon);

    let mut out = check(ctx, &subs, &cfg)?;
    out.e2e(setup_s, completed as f64 / span_s, &long_ms);
    let ack_ms = arrivals.ack_ms;
    let p = |xs: &[f64], q| Json::Float(quantile(xs, q).unwrap_or(0.0));
    let prov = [
        ("workers", Json::UInt(cfg.workers as u64)),
        ("chunk_steps", Json::UInt(cfg.chunk_steps as u64)),
        ("max_resident", Json::UInt(cfg.max_resident as u64)),
        (
            "journal",
            s("inside the checkout; fsync elided by the preloaded nosync library, as on tmpfs"),
        ),
        ("long_sessions_per_s", Json::Float(ctx.open_rate)),
        (
            "short_latency_ms_p50_p90",
            Json::Arr(vec![p(&short_ms, 0.5), p(&short_ms, 0.9)]),
        ),
        (
            "admit_ms_p50_p90",
            Json::Arr(vec![p(&ack_ms, 0.5), p(&ack_ms, 0.9)]),
        ),
        ("gen_late_ms_p90", p(&late_ms, 0.9)),
        (
            "in_flight_first_last",
            Json::Arr(vec![
                Json::UInt(in_flight.first().copied().unwrap_or(0) as u64),
                Json::UInt(in_flight.last().copied().unwrap_or(0) as u64),
            ]),
        ),
    ];
    out.provenance.extend(prov);
    if ctx.trace {
        let stat = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        out.layer("server.evicted", stat("evicted"));
        out.layer("server.resumed", stat("resumed"));
        out.layer(
            "server.shed",
            stat("rejected_quota") + stat("rejected_backpressure"),
        );
        out.layer("server.rollup_ms", median(&rollups));
        out.layer("gen.late_ms", quantile(&late_ms, 0.9).unwrap_or(0.0));
        out.layer(
            "server.admit_p50_us",
            1e3 * quantile(&ack_ms, 0.5).unwrap_or(0.0),
        );
        out.layer(
            "server.admit_p90_us",
            1e3 * quantile(&ack_ms, 0.9).unwrap_or(0.0),
        );
    }
    out.provenance.push(("daemon_stats", stats));
    out.provenance
        .push(("rollup_ms", Json::Float(median(&rollups))));
    Ok(out)
}

/// Binds daemon responses and events to submitted sessions.
#[derive(Default)]
struct Arrivals {
    by_session: HashMap<u64, usize>,
    /// Verdicts that overtook their submit response: a short session can
    /// finish on a worker before the connection thread writes its ack.
    early: HashMap<u64, (Verdict, Instant)>,
    /// Due→ack latency of every answered submit, ms.
    ack_ms: Vec<f64>,
}

impl Arrivals {
    /// Handles one line: a submit response (request id `i + 1` answers
    /// `subs[i]`) or a verdict event. Returns how many sessions it ended
    /// (a verdict, or a rejected submit).
    fn handle(&mut self, doc: &Json, at: Instant, subs: &mut [Submitted]) -> usize {
        if let Some(id) = doc.get("id").and_then(Json::as_u64) {
            let Some(i) = (id as usize).checked_sub(1).filter(|&i| i < subs.len()) else {
                return 0;
            };
            self.ack_ms
                .push(at.duration_since(subs[i].due).as_secs_f64() * 1e3);
            let Some(session) = doc
                .get("result")
                .and_then(|r| r.get("session"))
                .and_then(Json::as_u64)
            else {
                subs[i].rejected = true;
                return 1;
            };
            subs[i].session = Some(session);
            self.by_session.insert(session, i);
            return match self.early.remove(&session) {
                Some(v) => {
                    subs[i].verdict = Some(v);
                    1
                }
                None => 0,
            };
        }
        if doc.get("event").and_then(Json::as_str) != Some("verdict") {
            return 0;
        }
        let (Some(session), Some(v)) = (
            doc.get("session").and_then(Json::as_u64),
            Verdict::from_event(doc),
        ) else {
            return 0;
        };
        match self.by_session.get(&session) {
            Some(&i) if subs[i].verdict.is_none() => {
                subs[i].verdict = Some((v, at));
                1
            }
            Some(_) => 0,
            None => {
                self.early.insert(session, (v, at));
                0
            }
        }
    }
}

/// Checks every answered session: against an uninterrupted in-process
/// run (untraced runs) or through the traced replay (traced runs), which
/// also gives the per-layer metrics.
fn check(ctx: &Ctx, subs: &[Submitted], cfg: &DaemonConfig) -> Result<Outcome, String> {
    let mut acc = account(subs);
    let done: Vec<&Submitted> = subs.iter().filter(|s| s.verdict.is_some()).collect();
    if !ctx.trace {
        acc.mismatched += reference_check(&done);
        return Ok(Outcome::new(acc.settle()));
    }
    let replay = replay(ctx, &done, cfg)?;
    acc.mismatched += replay.mismatched;
    let mut out = Outcome::new(acc.settle());
    replay.layers(&mut out, &done);
    out.tracer = Some(replay.tracer);
    Ok(out)
}

fn parse_spec(input: &SessionInput) -> SessionSpec {
    SessionSpec::from_json(&input.spec).expect("generated specs are valid")
}

/// An uninterrupted in-process run of `spec`.
fn reference_run(spec: SessionSpec) -> Verdict {
    let max = spec.max_steps;
    match SessionRun::new(spec).advance(max) {
        Ok(ChunkOutcome::Finished(r)) => Verdict::of(&r),
        Ok(ChunkOutcome::Parked(_)) => unreachable!("one chunk covers the whole budget"),
        Err(e) => Verdict::of(&SessionResult::aborted(&e)),
    }
}

/// The named zoo twin of a netlang re-encoding, with the same seeds.
fn twin_spec(name: &str, input: &SessionInput) -> SessionSpec {
    let mut spec = input.spec.clone();
    if let Json::Obj(map) = &mut spec {
        map.remove("netlang");
        map.insert("workload".to_owned(), s(name));
    }
    SessionSpec::from_json(&spec).expect("twin spec is valid")
}

/// Every daemon verdict must equal an uninterrupted in-process run of
/// the same spec, and every re-encoding must match its zoo twin.
/// Returns the number of mismatched sessions. Runs on `nproc` threads
/// after the measured window.
fn reference_check(done: &[&Submitted]) -> u64 {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut bad = 0;
                    for sub in done.iter().skip(t).step_by(threads) {
                        let (got, _) = sub.verdict.as_ref().expect("done");
                        let want = reference_run(parse_spec(&sub.input));
                        let mut ok = *got == want;
                        if let Kind::Reencoded(name) = sub.input.kind {
                            ok &= reference_run(twin_spec(name, &sub.input)) == want;
                        }
                        if !ok {
                            eprintln!(
                                "eqpbench: session {:?} ({:?}) differs from its reference: {got:?} vs {want:?}",
                                sub.session, sub.input.kind
                            );
                            bad += 1;
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .sum()
    })
}

/// FNV-1a over the rendered trace, computed independently of the
/// daemon's own hash.
fn trace_hash(report: &eqp_kahn::RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in report.trace.events().unwrap_or(&[]) {
        for b in ev.to_string().bytes().chain(*b";") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one replayed session produced.
struct Replayed {
    verdict: Verdict,
    /// Steps taken in non-final chunks.
    chunk_steps: u64,
    /// Size of each checkpoint image written.
    ckpt_bytes: Vec<f64>,
}

struct Replay {
    tracer: Tracer,
    mismatched: u64,
    /// Service time per replayed session (ms), by index into `done`.
    service_ms: Vec<f64>,
    /// Certification time of each long session (µs).
    certify_long_us: Vec<f64>,
    chunk_steps: u64,
    ckpt_bytes: Vec<f64>,
    overhead: f64,
}

/// Replays one session through the layers' public functions, as the
/// daemon serves it: request parse, spec validation (and netlang parse
/// and compile), spec journaling, every non-final chunk, then an
/// uninterrupted run whose report is certified, journaled and folded
/// into a fleet sketch. After each non-final chunk it also prices the
/// evict/resume round trip (wire encode, journal segment write and load,
/// wire decode) and resumes from the decoded image, although the daemon
/// keeps these sessions resident.
fn replay_session(
    tr: &mut Tracer,
    journal: &Journal,
    fleet: &mut TelemetrySketches,
    sub: &Submitted,
    chunk: usize,
) -> Result<Replayed, String> {
    let id = sub.session.expect("replayed sessions were admitted");
    let total_steps = sub
        .verdict
        .as_ref()
        .expect("replayed sessions finished")
        .0
        .steps;
    let limits = &SpecLimits::default();
    let req = tr
        .span("proto.request", id, || {
            parse_request_limited(sub.line.trim_end(), MAX_FRAME_BYTES)
        })
        .map_err(|e| e.to_string())?;
    let spec_json = req.params.get("spec").ok_or("no spec")?;
    let name = if sub.input.is_netlang() {
        "spec.netlang"
    } else {
        "spec.named"
    };
    let spec = tr
        .span(name, id, || {
            SessionSpec::from_json_limited(spec_json, limits)
        })
        .map_err(|e| e.to_string())?;
    if let Some(src) = spec_json.get("netlang").and_then(Json::as_str) {
        let program = tr
            .span("netlang.parse", id, || {
                eqp_netlang::parse(src, &limits.netlang)
            })
            .map_err(|e| e.to_string())?;
        let desc = program.description();
        for side in desc.lhs().iter().chain(desc.rhs()) {
            black_box(tr.span("seqfn.compile", id, || side.compile()));
        }
    }
    let tenant = req
        .params
        .get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("anon");
    tr.span("journal.spec", id, || {
        journal.record_spec(id, tenant, &spec)
    })
    .map_err(|e| e.to_string())?;

    let mut run = SessionRun::new(spec.clone());
    let mut chunk_steps = 0;
    let mut ckpt_bytes = Vec::new();
    while run.steps_done() + (chunk as u64) < total_steps {
        let before = run.steps_done();
        match tr.span("session.chunk", id, || run.advance(chunk)) {
            Ok(ChunkOutcome::Parked(_)) => {}
            _ => {
                return Err(format!(
                    "session {id}: chunk did not park before its last step"
                ))
            }
        }
        chunk_steps += run.steps_done() - before;
        let bytes = tr
            .span("wire.encode", id, || run.checkpoint_bytes())
            .map_err(|e| e.to_string())?
            .ok_or("parked run has a checkpoint")?;
        ckpt_bytes.push(bytes.len() as f64);
        tr.span("journal.ckpt", id, || journal.record_checkpoint(id, &bytes))
            .map_err(|e| e.to_string())?;
        let loaded = tr
            .span("journal.load", id, || journal.load_checkpoint(id))
            .map_err(|e| e.to_string())?
            .ok_or("journaled checkpoint loads")?;
        run = tr
            .span("wire.decode", id, || {
                SessionRun::from_checkpoint_bytes(spec.clone(), &loaded)
            })
            .map_err(|e| e.to_string())?;
    }

    tr.enter("session.reference_run", id);
    let mut net = spec.build_network(spec.seed);
    let mut sched = spec.sched.build();
    let (report, _) = net.run_report_checkpointed(
        &mut &mut *sched,
        spec.run_options(spec.max_steps),
        spec.max_steps,
    );
    tr.exit();
    let conf = tr.span("certify", id, || spec.check(&report));
    let result = SessionResult {
        verdict: verdict_name(&conf.verdict),
        conformant: conf.is_conformant(),
        status: report.status.to_string(),
        steps: report.steps as u64,
        rounds: report.rounds as u64,
        trace_len: report.trace.events().map_or(0, |e| e.len()) as u64,
        faults: report.fault_log().len() as u64,
        trace_hash: trace_hash(&report),
        wall_deadline_expired: false,
        sketches: report
            .sketches
            .as_ref()
            .filter(|s| !s.is_empty())
            .map(|s| to_hex(&s.to_bytes())),
    };
    tr.span("journal.result", id, || journal.record_result(id, &result))
        .map_err(|e| e.to_string())?;
    if let Some(sk) = report.sketches.as_ref().filter(|s| !s.is_empty()) {
        let bytes = sk.to_bytes();
        tr.span("sketch.merge", id, || {
            TelemetrySketches::from_bytes(&bytes).map(|b| fleet.merge(&b))
        })
        .map_err(|e| format!("{e:?}"))?;
    }
    Ok(Replayed {
        verdict: Verdict::of(&result),
        chunk_steps,
        ckpt_bytes,
    })
}

/// Replays every finished session twice, untraced and traced, in
/// alternating order, each against its own journal. The traced pass
/// gives the per-layer metrics; the wall-time ratio of the two passes
/// is the tracing overhead. Both passes must reproduce the daemon's
/// verdicts and trace hashes.
fn replay(ctx: &Ctx, done: &[&Submitted], cfg: &DaemonConfig) -> Result<Replay, String> {
    let dir = run_dir(&ctx.out, "replay");
    let _ = std::fs::remove_dir_all(&dir);
    let io = |e: io::Error| e.to_string();
    let journals = [
        Journal::open(dir.join("untraced")).map_err(io)?,
        Journal::open(dir.join("traced")).map_err(io)?,
    ];
    let mut tracers = [Tracer::new(false), Tracer::new(true)];
    let mut fleets = [TelemetrySketches::default(), TelemetrySketches::default()];
    let mut walls = [0.0f64; 2];
    let mut ckpt_bytes = Vec::new();
    let mut mismatched = 0;
    let mut service_ms = Vec::with_capacity(done.len());
    let mut certify_long_us = Vec::new();
    let mut chunk_steps = 0;
    for (i, sub) in done.iter().enumerate() {
        let (want, _) = sub.verdict.as_ref().expect("done");
        let id = sub.session.expect("admitted");
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        let root = tracers[1].spans().len();
        let mut ok = true;
        for pass in order {
            let t0 = Instant::now();
            tracers[pass].enter("session", id);
            let got = replay_session(
                &mut tracers[pass],
                &journals[pass],
                &mut fleets[pass],
                sub,
                cfg.chunk_steps,
            )?;
            tracers[pass].exit();
            walls[pass] += t0.elapsed().as_secs_f64();
            ok &= got.verdict == *want;
            if pass == 1 {
                chunk_steps += got.chunk_steps;
                ckpt_bytes.extend(got.ckpt_bytes);
            }
        }
        if let Kind::Reencoded(name) = sub.input.kind {
            ok &= reference_run(twin_spec(name, &sub.input)) == *want;
        }
        if !ok {
            eprintln!(
                "eqpbench: replay of session {id} differs from the daemon's verdict {want:?}"
            );
            mismatched += 1;
        }
        // Service time: the session span minus the reference run, which
        // re-executes steps the chunks already paid for.
        let spans = tracers[1].spans();
        let reference_ns: u64 = spans[root..]
            .iter()
            .filter(|s| s.name == "session.reference_run")
            .map(|s| s.duration_ns())
            .sum();
        service_ms.push((spans[root].duration_ns() - reference_ns) as f64 / 1e6);
        if sub.input.kind == Kind::Pipeline {
            certify_long_us.extend(
                spans[root..]
                    .iter()
                    .filter(|s| s.name == "certify")
                    .map(|s| s.duration_ns() as f64 / 1e3),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let [_, tracer] = tracers;
    Ok(Replay {
        tracer,
        mismatched,
        service_ms,
        certify_long_us,
        chunk_steps,
        ckpt_bytes,
        overhead: walls[1] / walls[0],
    })
}

impl Replay {
    fn layers(&self, out: &mut Outcome, done: &[&Submitted]) {
        let tr = &self.tracer;
        let us = |name: &str| mean(&tr.durations_ns(name)) / 1e3;
        out.layer("proto.request_us", us("proto.request"));
        out.layer("spec.named_us", us("spec.named"));
        out.layer("spec.netlang_us", us("spec.netlang"));
        out.layer("netlang.parse_us", us("netlang.parse"));
        out.layer("seqfn.compile_us", us("seqfn.compile"));
        out.layer("journal.spec_us", us("journal.spec"));
        out.layer("journal.ckpt_us", us("journal.ckpt"));
        out.layer("journal.ckpt_bytes", mean(&self.ckpt_bytes));
        out.layer("journal.load_us", us("journal.load"));
        out.layer("journal.result_us", us("journal.result"));
        out.layer("session.chunk_us", us("session.chunk"));
        let chunk_s: f64 = tr.durations_ns("session.chunk").iter().sum::<f64>() / 1e9;
        out.layer(
            "session.steps_per_s",
            if chunk_s > 0.0 {
                self.chunk_steps as f64 / chunk_s
            } else {
                0.0
            },
        );
        out.layer("wire.encode_us", us("wire.encode"));
        out.layer("wire.decode_us", us("wire.decode"));
        let long = &self.certify_long_us;
        out.layer("certify.p50_us", quantile(long, 0.5).unwrap_or(0.0));
        out.layer("certify.p90_us", quantile(long, 0.9).unwrap_or(0.0));
        let certify_ms: f64 = tr.durations_ns("certify").iter().sum::<f64>() / 1e6;
        let service_ms: f64 = self.service_ms.iter().sum();
        out.layer("certify.share", certify_ms / service_ms);
        let waits: Vec<f64> = done
            .iter()
            .zip(&self.service_ms)
            .map(|(sub, service)| sub.latency_ms - service)
            .collect();
        out.layer("server.queue_wait_ms", median(&waits));
        out.layer("sketch.merge_us", us("sketch.merge"));
        out.layer("trace.overhead", self.overhead);
    }
}
