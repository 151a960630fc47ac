//! Seeded generation of every input the benchmark sends. The same seed
//! always gives the same sessions and trees; the program sees only the
//! generated specs.

use eqpd::json::{obj, s, Json};

/// splitmix64: a small, well-mixed deterministic generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A seed for one generated item, derived from this stream.
    pub fn fork(&mut self) -> u64 {
        self.next() >> 1
    }
}

/// What a generated session is, which decides its reference checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// A named conformance-zoo workload.
    Named(&'static str),
    /// The netlang re-encoding of the named zoo workload: its result
    /// must be hash-identical to the named twin's.
    Reencoded(&'static str),
    /// A generated tenant netlang program.
    Generated,
    /// A long lasso-driven netlang pipeline.
    Pipeline,
}

/// One session as submitted: tenant, the `spec` object and its kind.
#[derive(Debug, Clone)]
pub struct SessionInput {
    pub tenant: String,
    pub spec: Json,
    pub kind: Kind,
}

impl SessionInput {
    pub fn is_netlang(&self) -> bool {
        !matches!(self.kind, Kind::Named(_))
    }
}

/// The service soak's five named zoo workloads.
const NAMED: [&str; 5] = ["sec23-merge", "fair-merge", "ticks", "random-bit", "bag"];

const TENANTS: u64 = 4;

fn spec_with(key: &str, value: String, seed: u64) -> Json {
    obj([
        (key, s(value)),
        ("seed", Json::UInt(seed)),
        (
            "sched",
            obj([("kind", s("random")), ("seed", Json::UInt(seed))]),
        ),
    ])
}

/// A short tenant session: two thirds named zoo workloads (the service
/// soak's five), one sixth netlang re-encodings of zoo networks, one
/// sixth generated tenant programs.
pub fn short_session(rng: &mut Rng) -> SessionInput {
    let seed = rng.fork();
    let tenant = format!("tenant-{}", rng.below(TENANTS));
    let (spec, kind) = match rng.below(6) {
        0..=3 => {
            let name = NAMED[rng.below(NAMED.len() as u64) as usize];
            (
                spec_with("workload", name.to_owned(), seed),
                Kind::Named(name),
            )
        }
        4 => {
            let pairs = eqp_processes::netlang_zoo::pairs();
            let (name, src) = pairs[rng.below(pairs.len() as u64) as usize];
            (
                spec_with("netlang", src.to_owned(), seed),
                Kind::Reencoded(name),
            )
        }
        _ => (
            spec_with("netlang", eqp_netlang::random_program(rng.fork()), seed),
            Kind::Generated,
        ),
    };
    SessionInput { tenant, spec, kind }
}

/// An `open-long` session: a lasso source feeding a pipeline of two to
/// five stages, with a step budget of 1800–2200 steps. The source never
/// ends, so every run is cut by its budget and certifies a smooth
/// prefix; post-hoc certification of the ~2000-event trace dominates the
/// session's service time.
pub fn pipeline_session(rng: &mut Rng) -> SessionInput {
    let seed = rng.fork();
    let tenant = format!("tenant-{}", rng.below(TENANTS));
    let steps = 1800 + rng.below(401);
    let stages = 2 + rng.below(4) as usize;
    let mut vals = |n: u64| -> String {
        let len = n + rng.below(3);
        (0..len)
            .map(|_| rng.below(10).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let prefix = vals(0);
    let cycle = vals(1);
    let mut src = format!("net pipeline-{seed}\nsteps {steps}\n");
    for i in 0..=stages {
        src.push_str(&format!("chan c{i} = {i}\n"));
    }
    src.push_str(&format!("proc src = lasso c0 [{prefix}] [{cycle}]\n"));
    let mut eqs = vec![format!("eq c0 <= loop([{prefix}],[{cycle}])")];
    for i in 1..=stages {
        let a = i - 1;
        match rng.below(3) {
            0 => {
                let (m, b) = (1 + rng.below(3), rng.below(4));
                src.push_str(&format!("proc p{i} = map affine({m},{b}) c{a} -> c{i}\n"));
                eqs.push(format!("eq c{i} <= map(affine({m},{b}), c{a})"));
            }
            1 => {
                let v = rng.below(10);
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
    SessionInput {
        tenant,
        spec: spec_with("netlang", src, seed),
        kind: Kind::Pipeline,
    }
}

/// The `submit` request line for `input`, as sent on the wire.
pub fn submit_line(id: u64, input: &SessionInput) -> String {
    let mut line = obj([
        ("id", Json::UInt(id)),
        ("method", s("submit")),
        (
            "params",
            obj([
                ("tenant", s(input.tenant.clone())),
                ("spec", input.spec.clone()),
            ]),
        ),
    ])
    .to_line();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqpd::SessionSpec;

    #[test]
    fn generated_sessions_are_deterministic_and_valid() {
        for seed in 0..20 {
            let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
            for _ in 0..30 {
                let (x, y) = (short_session(&mut a), short_session(&mut b));
                assert_eq!(x.spec, y.spec);
                SessionSpec::from_json(&x.spec).expect("short spec admits");
            }
            let (x, y) = (pipeline_session(&mut a), pipeline_session(&mut b));
            assert_eq!(x.spec, y.spec);
            let spec = SessionSpec::from_json(&x.spec).expect("pipeline spec admits");
            assert!((1800..=2200).contains(&spec.max_steps));
        }
    }

    #[test]
    fn short_mix_is_about_a_third_netlang() {
        let mut rng = Rng::new(9);
        let netlang = (0..3000)
            .filter(|_| short_session(&mut rng).is_netlang())
            .count();
        assert!((800..1200).contains(&netlang), "{netlang} of 3000");
    }
}
