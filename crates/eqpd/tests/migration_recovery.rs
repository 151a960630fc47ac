//! Live migration between two real `eqpd` daemons, including kill -9 of
//! either side mid-handoff. The invariants under test:
//!
//! - the migrated session certifies on the destination to a verdict
//!   identical — trace hash included — to an uninterrupted direct run;
//! - at every crash point the protocol converges to **exactly one
//!   owner** after restart (an uncommitted import never runs, a
//!   released source never runs);
//! - the offer and commit are idempotent, so re-sends after lost acks
//!   are harmless.

use eqpd::json::{obj, s, Json};
use eqpd::{ChunkOutcome, Client, SessionRun, SessionSpec};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eqpd-mig-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Spawns the daemon binary and waits for its port file.
fn spawn_daemon(journal: &Path, port_file: &Path, extra: &[&str]) -> (Child, String) {
    let _ = std::fs::remove_file(port_file);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eqpd"));
    cmd.arg("--journal")
        .arg(journal)
        .arg("--port-file")
        .arg(port_file)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let child = cmd.spawn().expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    let port = loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if let Ok(p) = text.trim().parse::<u16>() {
                break p;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote its port file"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, format!("127.0.0.1:{port}"))
}

fn wait_exit(child: &mut Child, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            _ if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("{what} never exited");
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn shutdown(client: &mut Client, child: &mut Child) {
    let _ = client.call("shutdown", obj([("mode", s("abort"))]));
    wait_exit(child, "daemon on shutdown");
}

/// A tenant-defined (netlang) network with the largest step budget a
/// session may request (`MAX_SESSION_STEPS`) and no equations, so
/// certification stays cheap: ~100 worker chunks, so the mid-run
/// migration test can freeze it after the first chunk with almost all of
/// the run still ahead.
const LONG_TICKS: &str = "net ticks-long\n\
     steps 200000\n\
     chan b = 40\n\
     proc ticks = lasso b [] [T]\n";
const LONG_TICKS_STEPS: u64 = eqpd::spec::MAX_SESSION_STEPS as u64;

fn spec_json(workload: &str, seed: u64) -> Json {
    obj([
        ("workload", s(workload)),
        ("seed", Json::UInt(seed)),
        (
            "sched",
            obj([("kind", s("random")), ("seed", Json::UInt(seed))]),
        ),
    ])
}

fn netlang_spec_json(src: &str, seed: u64) -> Json {
    obj([
        ("netlang", s(src)),
        ("seed", Json::UInt(seed)),
        (
            "sched",
            obj([("kind", s("random")), ("seed", Json::UInt(seed))]),
        ),
    ])
}

fn direct_result_of(spec: &Json) -> eqpd::SessionResult {
    let spec = SessionSpec::from_json(spec).expect("valid spec");
    let mut run = SessionRun::new(spec);
    loop {
        match run.advance(usize::MAX / 2).expect("direct run is clean") {
            ChunkOutcome::Finished(r) => return *r,
            ChunkOutcome::Parked(_) => {}
        }
    }
}

fn poll_done(client: &mut Client, session: u64, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        assert!(
            Instant::now() < deadline,
            "session {session} never finished"
        );
        let r = client
            .call("poll", obj([("session", Json::UInt(session))]))
            .expect("io")
            .expect("poll succeeds");
        if r.get("done").and_then(Json::as_bool) == Some(true) {
            return r.get("result").cloned().expect("result present");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn status(client: &mut Client, session: u64) -> Result<Json, eqpd::RpcError> {
    client
        .call("status", obj([("session", Json::UInt(session))]))
        .expect("io")
}

/// Polls the source until its status for `session` reports `migrated`,
/// returning the destination session id.
fn wait_migrated(client: &mut Client, session: u64, timeout: Duration) -> u64 {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(st) = status(client, session) {
            if st.get("phase").and_then(Json::as_str) == Some("migrated") {
                return st
                    .get("peer_session")
                    .and_then(Json::as_u64)
                    .expect("migrated status names the peer session");
            }
        }
        assert!(
            Instant::now() < deadline,
            "session {session} never reported `migrated`"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn stat(client: &mut Client, key: &str) -> u64 {
    client
        .call("stats", obj([]))
        .expect("io")
        .expect("stats ok")
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Asserts the migrated verdict on the destination equals the direct
/// ground truth, trace hash included.
fn assert_matches_truth(result: &Json, spec: &Json, ctx: &str) {
    let truth = direct_result_of(spec);
    assert_eq!(
        result.get("verdict").and_then(Json::as_str),
        Some(truth.verdict.as_str()),
        "{ctx}: verdict"
    );
    assert_eq!(
        result.get("trace_hash").and_then(Json::as_u64),
        Some(truth.trace_hash),
        "{ctx}: the migrated history must be byte-identical"
    );
    assert_eq!(
        result.get("steps").and_then(Json::as_u64),
        Some(truth.steps),
        "{ctx}: steps"
    );
    assert_eq!(
        result.get("conformant").and_then(Json::as_bool),
        Some(truth.conformant),
        "{ctx}: conformance"
    );
}

#[test]
fn mid_run_migration_transfers_the_checkpoint_and_preserves_the_verdict() {
    let ja = temp_dir("clean-a");
    let jb = temp_dir("clean-b");
    let (mut a, addr_a) = spawn_daemon(&ja, &ja.join("port"), &["--workers", "1", "--paused"]);
    // Mid-run checkpoints of the long network are ~1 MB hex on the wire,
    // so the destination accepts oversized frames.
    let (mut b, addr_b) = spawn_daemon(
        &jb,
        &jb.join("port"),
        &["--workers", "1", "--max-frame-bytes", "4194304"],
    );
    let mut ca = Client::connect(&addr_a).expect("connects");
    let mut cb = Client::connect(&addr_b).expect("connects");

    // A long tenant-defined network: release the worker, and pause it
    // the moment `status` first shows progress — the session is frozen
    // mid-run with real in-memory progress to hand over, however fast
    // the host runs it. A session only shows its progress while parked
    // between chunks, so a companion session shares the single worker:
    // the two alternate chunks, and each stays parked while the other
    // runs.
    let job = netlang_spec_json(LONG_TICKS, 42);
    let id = ca
        .submit("mig", job.clone())
        .expect("io")
        .expect("admitted");
    ca.submit("mig", netlang_spec_json(LONG_TICKS, 43))
        .expect("io")
        .expect("companion admitted");
    ca.call("pause", obj([("paused", Json::Bool(false))]))
        .expect("io")
        .expect("released");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let st = status(&mut ca, id).expect("status ok");
        if st.get("steps_done").and_then(Json::as_u64).unwrap_or(0) > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "session never progressed: {st:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    ca.call("pause", obj([("paused", Json::Bool(true))]))
        .expect("io")
        .expect("paused");
    // Wait for the in-flight chunk to land, then confirm it is mid-run.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let st = status(&mut ca, id).expect("status ok");
        if st.get("phase").and_then(Json::as_str) == Some("parked") {
            let steps = st.get("steps_done").and_then(Json::as_u64).unwrap_or(0);
            assert!(steps > 0, "the session must have made progress");
            assert!(
                steps < LONG_TICKS_STEPS,
                "the session must not have finished"
            );
            break;
        }
        assert!(Instant::now() < deadline, "session never parked: {st:?}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let resp = ca
        .call(
            "migrate",
            obj([("session", Json::UInt(id)), ("peer", s(addr_b.clone()))]),
        )
        .expect("io")
        .expect("migration succeeds");
    assert_eq!(resp.get("migrated").and_then(Json::as_bool), Some(true));
    let dst = resp
        .get("peer_session")
        .and_then(Json::as_u64)
        .expect("destination session id");

    let result = poll_done(&mut cb, dst, Duration::from_secs(120));
    assert_matches_truth(&result, &job, "clean migration");

    // The source remembers where the session went; both sides count it.
    let st = status(&mut ca, id).expect("status ok");
    assert_eq!(st.get("phase").and_then(Json::as_str), Some("migrated"));
    assert_eq!(st.get("peer_session").and_then(Json::as_u64), Some(dst));
    assert_eq!(stat(&mut ca, "migrated_out"), 1);
    assert_eq!(stat(&mut cb, "migrated_in"), 1);

    shutdown(&mut ca, &mut a);
    shutdown(&mut cb, &mut b);
    let _ = std::fs::remove_dir_all(&ja);
    let _ = std::fs::remove_dir_all(&jb);
}

#[test]
fn source_killed_after_intent_redrives_the_handoff_on_restart() {
    let ja = temp_dir("intent-a");
    let jb = temp_dir("intent-b");
    let (mut a, addr_a) = spawn_daemon(&ja, &ja.join("port"), &["--workers", "1", "--paused"]);
    let (mut b, addr_b) = spawn_daemon(&jb, &jb.join("port"), &["--workers", "1"]);
    let mut ca = Client::connect(&addr_a).expect("connects");
    let mut cb = Client::connect(&addr_b).expect("connects");

    let job = spec_json("bag", 7);
    let id = ca
        .submit("mig", job.clone())
        .expect("io")
        .expect("admitted");
    // The daemon kills itself (exit as-if kill -9) right after the
    // `intent` journal write: the offer was never sent.
    let _ = ca.call(
        "migrate",
        obj([
            ("session", Json::UInt(id)),
            ("peer", s(addr_b.clone())),
            ("halt_after", s("intent")),
        ]),
    );
    wait_exit(&mut a, "source at `intent`");

    // Restart the source on the same journal: recovery finds the intent
    // record and re-drives the whole offer/commit sequence.
    let (mut a2, addr_a2) = spawn_daemon(&ja, &ja.join("port"), &["--workers", "1"]);
    let mut ca2 = Client::connect(&addr_a2).expect("connects");
    let dst = wait_migrated(&mut ca2, id, Duration::from_secs(60));

    let result = poll_done(&mut cb, dst, Duration::from_secs(60));
    assert_matches_truth(&result, &job, "redriven after intent");
    assert_eq!(stat(&mut ca2, "migrated_out"), 1);
    assert_eq!(stat(&mut cb, "migrated_in"), 1);

    shutdown(&mut ca2, &mut a2);
    shutdown(&mut cb, &mut b);
    let _ = std::fs::remove_dir_all(&ja);
    let _ = std::fs::remove_dir_all(&jb);
}

#[test]
fn source_killed_after_release_redrives_only_the_commit() {
    let ja = temp_dir("released-a");
    let jb = temp_dir("released-b");
    let (mut a, addr_a) = spawn_daemon(&ja, &ja.join("port"), &["--workers", "1", "--paused"]);
    let (mut b, addr_b) = spawn_daemon(&jb, &jb.join("port"), &["--workers", "1"]);
    let mut ca = Client::connect(&addr_a).expect("connects");
    let mut cb = Client::connect(&addr_b).expect("connects");

    let job = spec_json("sec23-merge", 9);
    let id = ca
        .submit("mig", job.clone())
        .expect("io")
        .expect("admitted");
    // Die right after journaling `released`: the destination holds the
    // bytes as an uncommitted import, the source may never run it again.
    let _ = ca.call(
        "migrate",
        obj([
            ("session", Json::UInt(id)),
            ("peer", s(addr_b.clone())),
            ("halt_after", s("released")),
        ]),
    );
    wait_exit(&mut a, "source at `released`");

    // Exactly-one-owner, crash window: the destination durably holds an
    // *uncommitted* import — inert, not admitted, never running.
    let imports: Vec<(u64, bool)> = std::fs::read_dir(&jb)
        .expect("dest journal")
        .filter_map(|e| {
            let dir = e.ok()?.path();
            let name = dir.file_name()?.to_str()?.strip_prefix('s')?.to_owned();
            let text = std::fs::read_to_string(dir.join("import.json")).ok()?;
            let doc = Json::parse(&text).ok()?;
            Some((
                name.parse().ok()?,
                doc.get("committed").and_then(Json::as_bool)?,
            ))
        })
        .collect();
    assert_eq!(
        imports.len(),
        1,
        "exactly one import journaled: {imports:?}"
    );
    let (dst, committed) = imports[0];
    assert!(!committed, "the import must still be uncommitted");
    assert!(
        status(&mut cb, dst).is_err(),
        "an uncommitted import is not an admitted session"
    );

    // Restart the source: recovery sees phase `released` and re-drives
    // only the commit — it must not (and cannot) run the session.
    let (mut a2, addr_a2) = spawn_daemon(&ja, &ja.join("port"), &["--workers", "1"]);
    let mut ca2 = Client::connect(&addr_a2).expect("connects");
    let dst2 = wait_migrated(&mut ca2, id, Duration::from_secs(60));
    assert_eq!(dst2, dst, "the redriven commit targets the same import");

    let result = poll_done(&mut cb, dst, Duration::from_secs(60));
    assert_matches_truth(&result, &job, "redriven after release");
    assert_eq!(stat(&mut cb, "migrated_in"), 1);

    shutdown(&mut ca2, &mut a2);
    shutdown(&mut cb, &mut b);
    let _ = std::fs::remove_dir_all(&ja);
    let _ = std::fs::remove_dir_all(&jb);
}

#[test]
fn destination_killed_before_commit_is_retried_until_it_owns_the_session() {
    let ja = temp_dir("dstkill-a");
    let jb = temp_dir("dstkill-b");
    let (mut a, addr_a) = spawn_daemon(&ja, &ja.join("port"), &["--workers", "1", "--paused"]);
    // The destination dies on the first `migrate_commit`, *before*
    // journaling the commit — the handoff is mid-air.
    let (mut b, addr_b) = spawn_daemon(
        &jb,
        &jb.join("port"),
        &["--workers", "1", "--fault-halt", "commit"],
    );
    let mut ca = Client::connect(&addr_a).expect("connects");

    let job = spec_json("brock-ackermann", 5);
    let id = ca
        .submit("mig", job.clone())
        .expect("io")
        .expect("admitted");

    // The migrate call blocks while the source retries the commit, so
    // drive it from a second connection on its own thread.
    let addr_a2 = addr_a.clone();
    let addr_b2 = addr_b.clone();
    let migrate = std::thread::spawn(move || {
        let mut c = Client::connect(&addr_a2).expect("connects");
        c.call(
            "migrate",
            obj([("session", Json::UInt(id)), ("peer", s(addr_b2))]),
        )
        .expect("io")
        .expect("migration eventually succeeds")
    });

    wait_exit(&mut b, "destination at `commit`");
    // Restart the destination on the *same* address and journal; the
    // source's idempotent commit retries land on the new incarnation,
    // which finds the durable import by token.
    let (mut b2, addr_b3) = spawn_daemon(
        &jb,
        &jb.join("port2"),
        &["--workers", "1", "--addr", &addr_b],
    );
    assert_eq!(addr_b3, addr_b, "restarted on the same port");
    let mut cb2 = Client::connect(&addr_b3).expect("connects");

    let resp = migrate.join().expect("migrate thread");
    assert_eq!(resp.get("migrated").and_then(Json::as_bool), Some(true));
    let dst = resp
        .get("peer_session")
        .and_then(Json::as_u64)
        .expect("destination session id");

    let result = poll_done(&mut cb2, dst, Duration::from_secs(60));
    assert_matches_truth(&result, &job, "commit retried across restart");
    assert_eq!(stat(&mut cb2, "migrated_in"), 1);
    assert_eq!(stat(&mut ca, "migrated_out"), 1);

    shutdown(&mut ca, &mut a);
    shutdown(&mut cb2, &mut b2);
    let _ = std::fs::remove_dir_all(&ja);
    let _ = std::fs::remove_dir_all(&jb);
}
