//! `eqpbench`: the repository's benchmark.
//!
//! ```text
//! eqpbench --workload open-long|enum-trees --seed N --seconds S
//!          --trace 0|1 --eqpd PATH --open-rate R
//!          [--rustc VERSION] [--commit SHA]
//! ```
//!
//! With `--trace 0` it runs the workload, checks every result against
//! an independent reference and prints the end-to-end metrics. With
//! `--trace 1` it runs the workload the same way, then replays the same
//! inputs in-process through the layers' public functions inside spans
//! and prints the per-layer metrics; the spans are written to
//! `eqpbench/out/spans-<workload>-<seed>.jsonl`. Run it from the
//! repository root. The last line of standard output
//! is always the result object. `run.sh` builds everything and supplies
//! `--eqpd`, `--rustc` and `--commit`; README.md says what each metric
//! means on each workload.

mod daemon;
mod enumeration;
mod inputs;
mod service;
mod stats;
mod trace;

use eqpd::json::{s, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics, reported on every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ok_share", "share"),
    ("throughput_per_s", "1/s"),
    ("latency_mean_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics from the traced replay. A layer a workload does not
/// use reads 0 there.
const PER_LAYER: [(&str, &str); 32] = [
    ("proto.request_us", "us"),
    ("spec.named_us", "us"),
    ("spec.netlang_us", "us"),
    ("netlang.parse_us", "us"),
    ("seqfn.compile_us", "us"),
    ("journal.spec_us", "us"),
    ("journal.ckpt_us", "us"),
    ("journal.ckpt_bytes", "bytes"),
    ("journal.load_us", "us"),
    ("journal.result_us", "us"),
    ("session.chunk_us", "us"),
    ("session.steps_per_s", "1/s"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("certify.p50_us", "us"),
    ("certify.p90_us", "us"),
    ("certify.share", "share"),
    ("server.evicted", "count"),
    ("server.resumed", "count"),
    ("server.shed", "count"),
    ("server.queue_wait_ms", "ms"),
    ("server.admit_p50_us", "us"),
    ("server.admit_p90_us", "us"),
    ("server.rollup_ms", "ms"),
    ("sketch.merge_us", "us"),
    ("engine.nodes", "count"),
    ("engine.solutions", "count"),
    ("engine.node_ns", "ns"),
    ("gen.late_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("run.attempted", "count"),
    ("run.failed", "count"),
];

/// Settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub eqpd: PathBuf,
    pub open_rate: f64,
    pub out: PathBuf,
    pub nproc: usize,
}

/// Per-run accounting of operations attempted and how they ended.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accounting {
    pub attempted: u64,
    pub succeeded: u64,
    /// Refused by admission control.
    pub shed: u64,
    /// Killed by the daemon's backstop.
    pub aborted: u64,
    /// Results that differ from their reference.
    pub mismatched: u64,
    /// Admitted sessions whose verdict never arrived.
    pub missing: u64,
}

impl Accounting {
    pub fn failed(&self) -> u64 {
        self.shed + self.aborted + self.mismatched + self.missing
    }

    /// Fills in `succeeded` once every failure is counted.
    pub fn settle(mut self) -> Accounting {
        self.succeeded = self.attempted.saturating_sub(self.failed());
        self
    }

    fn to_json(self) -> Json {
        Json::Obj(
            [
                ("attempted", self.attempted),
                ("succeeded", self.succeeded),
                ("shed", self.shed),
                ("aborted", self.aborted),
                ("mismatched", self.mismatched),
                ("missing", self.missing),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Json::UInt(v)))
            .collect(),
        )
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub acc: Accounting,
    metrics: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    pub provenance: Vec<(&'static str, Json)>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new(acc: Accounting) -> Outcome {
        Outcome {
            acc,
            metrics: BTreeMap::new(),
            layers: BTreeMap::new(),
            provenance: Vec::new(),
            tracer: None,
        }
    }

    /// Records the end-to-end figures: set-up time, throughput and the
    /// latency sample (ms) whose mean and p90 are reported. The mean, not
    /// the median: on a host whose speed flips between two modes, the
    /// median jumps between them while the mean moves with the share of
    /// time spent in each. The median is kept in the provenance line.
    pub fn e2e(&mut self, setup_s: f64, throughput_per_s: f64, latency_ms: &[f64]) {
        self.metrics.insert("setup_s", setup_s);
        self.metrics.insert("throughput_per_s", throughput_per_s);
        let q = |p| stats::quantile(latency_ms, p).unwrap_or(f64::NAN);
        self.metrics
            .insert("latency_mean_ms", stats::mean(latency_ms));
        self.metrics.insert("latency_p90_ms", q(0.9));
        self.provenance
            .push(("latency_samples", Json::UInt(latency_ms.len() as u64)));
        self.provenance
            .push(("latency_p50_ms", Json::Float(q(0.5))));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }
}

struct Args {
    workload: String,
    ctx: Ctx,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut eqpd = None;
    let mut open_rate = None;
    let mut rustc = "unknown".to_owned();
    let mut commit = "unknown".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--eqpd" => eqpd = Some(PathBuf::from(value)),
            "--open-rate" => open_rate = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--rustc" => rustc = value,
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            eqpd: eqpd.ok_or("--eqpd is required")?,
            open_rate: open_rate.ok_or("--open-rate is required")?,
            out: PathBuf::from("eqpbench/out"),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
        rustc,
        commit,
    })
}

/// FNV-1a over the program's sources (`crates/**/*.rs` and manifests),
/// identifying the measured code when the checkout has no git metadata.
fn source_fingerprint() -> Option<String> {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files).ok()?;
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).ok()?;
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Some(format!("{h:016x}"))
}

fn metric_json(names: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> Result<Json, String> {
    let mut map = BTreeMap::new();
    for (name, unit) in names {
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        let mut m = BTreeMap::new();
        m.insert("value".to_owned(), Json::Float(value));
        m.insert("unit".to_owned(), s(*unit));
        map.insert((*name).to_owned(), Json::Obj(m));
    }
    Ok(Json::Obj(map))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let ctx = &args.ctx;
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    let mut out = match args.workload.as_str() {
        "open-long" => service::open_long(ctx)?,
        "enum-trees" => enumeration::run(ctx)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let acc = out.acc;
    if acc.attempted == 0 {
        return Err("the run attempted no operation".to_owned());
    }

    let mut prov = vec![
        ("workload", s(args.workload.clone())),
        ("seed", Json::UInt(ctx.seed)),
        ("seconds", Json::Float(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("nproc", Json::UInt(ctx.nproc as u64)),
        ("commit", s(args.commit.clone())),
        (
            "source_fnv",
            s(source_fingerprint().unwrap_or_else(|| "unknown".to_owned())),
        ),
        ("rustc", s(args.rustc.clone())),
    ];
    prov.append(&mut out.provenance);
    let mut summary = vec![
        (
            "provenance".to_owned(),
            Json::Obj(prov.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()),
        ),
        ("accounting".to_owned(), acc.to_json()),
    ];
    if let Some(tracer) = &out.tracer {
        let path = ctx
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, ctx.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let self_ms = tracer
            .self_time_by_name()
            .into_iter()
            .map(|(k, ns)| (k.to_owned(), Json::Float(ns as f64 / 1e6)))
            .collect();
        summary.push(("self_time_ms".to_owned(), Json::Obj(self_ms)));
        summary.push(("spans".to_owned(), s(path.display().to_string())));
    }
    println!("{}", Json::Obj(summary.into_iter().collect()).to_line());

    let metrics = if ctx.trace {
        out.layers.insert("run.attempted", acc.attempted as f64);
        out.layers.insert("run.failed", acc.failed() as f64);
        metric_json(&PER_LAYER, &out.layers)?
    } else {
        out.metrics.insert(
            "ok_share",
            acc.succeeded as f64 / acc.attempted.max(1) as f64,
        );
        metric_json(&END_TO_END, &out.metrics)?
    };
    let correct = acc.mismatched == 0 && acc.aborted == 0 && acc.missing == 0;
    let result = [
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::UInt(acc.attempted)),
        ("failed".to_owned(), Json::UInt(acc.failed())),
        ("metrics".to_owned(), metrics),
    ];
    println!("{}", Json::Obj(result.into_iter().collect()).to_line());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("eqpbench: {e}");
            ExitCode::FAILURE
        }
    }
}
