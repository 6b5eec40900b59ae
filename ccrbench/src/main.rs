//! In-process half of the end-to-end benchmark (see `README.md`). Each
//! subcommand prints one JSON object on stdout and exits nonzero on any
//! error, so `run.py` counts it as a failed op:
//!
//! * `setup <spec> <n> <verify|dsm>` — time of the derivation and system
//!   construction a workload's op starts with, split by layer: the
//!   fastest batch mean in half a second of batches.
//! * `dsm <spec> <n> <workload-seed> <sched-seed> <steps>` — one
//!   fixed-length `Machine::run` and its report.
//! * `full <spec> <n>` — unreduced reachable-state counts at both levels.
//! * `trace <spec> <n>` — the `ccr verify` pipeline in process, once as
//!   the CLI calls it and once through counting wrappers.
//! * `trace-dsm <spec> <n> <workload-seed> <sched-seed> <steps>` — the DSM
//!   op, once plain and once through a counting replica of its step loop.
//! * `probe` — the host-speed probe that runs beside each op until its
//!   stdin closes: a fixed hash-set kernel, timed every few milliseconds,
//!   that uses none of the project's code.

use ccr_core::ids::{MsgType, ProcessId};
use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions, RefinedProtocol};
use ccr_core::text::parse_validated;
use ccr_dsm::{Machine, MachineConfig, MachineReport, ReadMostly, Workload};
use ccr_mc::progress::check_progress_observed;
use ccr_mc::search::{explore_plain, Budget, SearchObserver};
use ccr_mc::simrel::check_simulation;
use ccr_mc::trace::explore_traced_observed;
use ccr_mc::{spec_permutable, Reduced, Symmetric};
use ccr_metrics::Registry;
use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};
use ccr_runtime::rendezvous::RendezvousSystem;
use ccr_runtime::sched::RandomSched;
use ccr_runtime::sim::Simulator;
use ccr_runtime::{Label, LabelKind, TransitionSystem};
use ccr_trace::NullSink;
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `ccr verify`'s default `--budget`.
const CLI_BUDGET: usize = 2_000_000;

/// The DSM mix: the share of accesses that are writes, and the chances
/// that an idle CPU starts an access and that a sharer evicts when the
/// scheduler offers it the step.
const WRITE_RATIO: f64 = 0.3;
const ACCESS_PROB: f64 = 0.5;
const EVICT_PROB: f64 = 0.2;

/// Setup timing: batches of `SETUP_BATCH` derivations for
/// `SETUP_SECONDS`. One derivation takes tens of microseconds, so a sample
/// is the mean of a batch. The reported figure is the fastest sample:
/// other work on the host slows this allocation-heavy code by up to 2x in
/// spells of a tenth of a second and longer, and the fastest batch is the
/// one it slowed least.
const SETUP_BATCH: usize = 32;
const SETUP_SECONDS: f64 = 0.5;

/// The probe inserts `PROBE_KEYS` keys into a fresh hash set per sample,
/// about 1.5 ms in a set of under a megabyte, then sleeps `PROBE_GAP`.
/// It keeps about a tenth of one CPU busy while the op uses another. Its
/// samples take as long beside an op as alone, so the op does not slow
/// it; a set reused across samples ran 1.8x slower beside an op.
const PROBE_KEYS: u64 = 20_000;
const PROBE_GAP: Duration = Duration::from_millis(15);

/// Plain and traced passes alternate this many times in a traced run;
/// their medians give the tracing overhead.
const TRACE_PAIRS: usize = 3;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("ccrbench: {msg}");
    exit(1)
}

fn arg<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> T {
    let s = args.get(i).unwrap_or_else(|| fail(format!("missing <{what}>")));
    s.parse().unwrap_or_else(|_| fail(format!("bad <{what}>: {s}")))
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
}

fn load(path: &str) -> ProtocolSpec {
    parse_validated(&read(path)).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

fn derive(spec: &ProtocolSpec) -> RefinedProtocol {
    refine(spec, &RefineOptions::default()).unwrap_or_else(|e| fail(format!("refine: {e}")))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Prints `pairs` as one flat JSON object.
fn emit(pairs: &[(&str, String)]) {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{{}}}", body.join(", "));
}

/// Calls and nanoseconds spent in one method of a wrapped system.
#[derive(Default)]
struct Tally {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl Tally {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.nanos.set(self.nanos.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }

    fn read(&self) -> (u64, u64) {
        (self.calls.get(), self.nanos.get())
    }
}

#[derive(Default)]
struct Counters {
    successors: Tally,
    encode: Tally,
}

/// Forwards every [`TransitionSystem`] method to `inner` — the fast
/// encode path included, so the engines take the same code paths as on
/// the bare system — and times and counts `successors` and the encodes.
struct Traced<'a, T> {
    inner: &'a T,
    c: &'a Counters,
}

impl<T: TransitionSystem> TransitionSystem for Traced<'_, T> {
    type State = T::State;

    fn initial(&self) -> T::State {
        self.inner.initial()
    }

    fn successors(
        &self,
        s: &T::State,
        out: &mut Vec<(Label, T::State)>,
    ) -> ccr_runtime::Result<()> {
        self.c.successors.time(|| self.inner.successors(s, out))
    }

    fn encode(&self, s: &T::State, out: &mut Vec<u8>) {
        self.c.encode.time(|| self.inner.encode(s, out))
    }

    fn max_encoded_len(&self) -> Option<usize> {
        self.inner.max_encoded_len()
    }

    fn encode_into(&self, s: &T::State, buf: &mut [u8]) -> usize {
        self.c.encode.time(|| self.inner.encode_into(s, buf))
    }

    fn decode(&self, bytes: &[u8]) -> Option<T::State> {
        self.inner.decode(bytes)
    }

    fn link_occupancy(&self, s: &T::State, from: ProcessId, to: ProcessId) -> Option<u32> {
        self.inner.link_occupancy(s, from, to)
    }

    fn home_buffer_occupancy(&self, s: &T::State) -> Option<(u32, u32)> {
        self.inner.home_buffer_occupancy(s)
    }

    fn msg_name(&self, m: MsgType) -> String {
        self.inner.msg_name(m)
    }
}

/// [`Reduced`] needs a [`Symmetric`] system; forwarding it lets a
/// [`Traced`] sit under the reduction and count the plain encodes that
/// canonicalization makes.
impl<T: Symmetric> Symmetric for Traced<'_, T> {
    fn remote_count(&self) -> usize {
        self.inner.remote_count()
    }

    fn permutable(&self) -> bool {
        self.inner.permutable()
    }

    fn permute(&self, s: &T::State, perm: &[usize]) -> T::State {
        self.inner.permute(s, perm)
    }

    fn signature(&self, s: &T::State, i: usize, out: &mut Vec<u8>) {
        self.inner.signature(s, i, out)
    }
}

/// Runs `$body` with `$s` bound to `$sys` as the CLI would search it —
/// through [`Reduced`] when `$reduce`. When `$traced`, the searched
/// system is wrapped in a [`Traced`] counting into `$c`, and under
/// reduction the concrete system too, counting into `$under`.
macro_rules! as_searched {
    ($sys:expr, $reduce:expr, $traced:expr, $c:expr, $under:expr, |$s:ident| $body:expr) => {
        match ($reduce, $traced) {
            (true, true) => {
                let concrete = Traced { inner: $sys, c: $under };
                let red = Reduced::new(&concrete);
                let $s = &Traced { inner: &red, c: $c };
                $body
            }
            (true, false) => {
                let $s = &Reduced::new($sys);
                $body
            }
            (false, true) => {
                let $s = &Traced { inner: $sys, c: $c };
                $body
            }
            (false, false) => {
                let $s = $sys;
                $body
            }
        }
    };
}

fn cmd_setup(args: &[String]) {
    let path: String = arg(args, 0, "spec");
    let n: u32 = arg(args, 1, "n");
    let kind: String = arg(args, 2, "verify|dsm");
    let src = read(&path);
    let dsm = match kind.as_str() {
        "verify" => false,
        "dsm" => true,
        _ => fail(format!("bad kind {kind}")),
    };
    let (mut parse, mut refine_v, mut build, mut total) = (vec![], vec![], vec![], vec![]);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < SETUP_SECONDS {
        let (mut p, mut r, mut b) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for _ in 0..SETUP_BATCH {
            let t0 = Instant::now();
            let spec = parse_validated(black_box(&src)).unwrap_or_else(|e| fail(e));
            let t1 = Instant::now();
            let refined = derive(&spec);
            let t2 = Instant::now();
            if dsm {
                let config = MachineConfig::standard(&refined, n, 0);
                black_box(AsyncSystem::new(&refined, n, config.asynch.clone()));
                black_box(Machine::new(&refined, config));
            } else {
                black_box(RendezvousSystem::new(&spec, n));
                black_box(AsyncSystem::new(&refined, n, AsyncConfig::default()));
            }
            let t3 = Instant::now();
            black_box((&spec, &refined));
            p += t1 - t0;
            r += t2 - t1;
            b += t3 - t2;
        }
        let per = |d: Duration| d.as_secs_f64() / SETUP_BATCH as f64;
        parse.push(per(p));
        refine_v.push(per(r));
        build.push(per(b));
        total.push(per(p + r + b));
    }
    emit(&[
        ("setup_s", format!("{:e}", fastest(&total))),
        ("parse_s", format!("{:e}", fastest(&parse))),
        ("refine_s", format!("{:e}", fastest(&refine_v))),
        ("build_s", format!("{:e}", fastest(&build))),
    ]);
}

struct DsmInput {
    n: u32,
    workload_seed: u64,
    sched_seed: u64,
    steps: u64,
}

impl DsmInput {
    fn parse(args: &[String]) -> Self {
        Self {
            n: arg(args, 1, "n"),
            workload_seed: arg(args, 2, "workload-seed"),
            sched_seed: arg(args, 3, "sched-seed"),
            steps: arg(args, 4, "steps"),
        }
    }

    fn mix(&self) -> ReadMostly {
        ReadMostly::new(self.workload_seed, WRITE_RATIO, ACCESS_PROB, EVICT_PROB)
    }

    /// One fixed-length machine run and the host time of `Machine::run`.
    fn run(&self, refined: &RefinedProtocol) -> (MachineReport, f64) {
        let machine = Machine::new(refined, MachineConfig::standard(refined, self.n, self.steps));
        let mut sched = RandomSched::new(self.sched_seed);
        let t = Instant::now();
        let report = machine
            .run("derived", &mut self.mix(), &mut sched)
            .unwrap_or_else(|e| fail(format!("machine run: {e}")));
        (report, t.elapsed().as_secs_f64())
    }
}

fn report_pairs(r: &MachineReport, run_s: f64) -> Vec<(&'static str, String)> {
    vec![
        ("steps", r.steps.to_string()),
        ("acquisitions", r.ops.to_string()),
        ("messages", r.messages.to_string()),
        ("acks", r.acks.to_string()),
        ("nacks", r.nacks.to_string()),
        ("starved", r.starved.to_string()),
        ("deadlocked", r.deadlocked.to_string()),
        ("max_link_occupancy", r.max_link_occupancy.to_string()),
        ("run_s", format!("{run_s:e}")),
    ]
}

fn cmd_dsm(args: &[String]) {
    let input = DsmInput::parse(args);
    let refined = derive(&load(&arg::<String>(args, 0, "spec")));
    let (report, run_s) = input.run(&refined);
    emit(&report_pairs(&report, run_s));
}

fn cmd_full(args: &[String]) {
    let spec = load(&arg::<String>(args, 0, "spec"));
    let n: u32 = arg(args, 1, "n");
    let refined = derive(&spec);
    let budget = Budget::states(CLI_BUDGET);
    let rv = explore_plain(&RendezvousSystem::new(&spec, n), &budget);
    let asy = explore_plain(&AsyncSystem::new(&refined, n, AsyncConfig::default()), &budget);
    if !rv.outcome.is_complete() || !asy.outcome.is_complete() {
        fail(format!("unreduced search incomplete: {:?} / {:?}", rv.outcome, asy.outcome));
    }
    emit(&[("rv_states", rv.states.to_string()), ("async_states", asy.states.to_string())]);
}

/// One search phase: wall time, counts, and the wrapped calls it made.
#[derive(Default)]
struct Phase {
    secs: f64,
    states: usize,
    transitions: usize,
    successors: (u64, u64),
    encode: (u64, u64),
}

fn delta(after: (u64, u64), before: (u64, u64)) -> (u64, u64) {
    (after.0 - before.0, after.1 - before.1)
}

fn measured<R>(c: &Counters, f: impl FnOnce() -> R) -> (R, Phase) {
    let (s0, e0) = (c.successors.read(), c.encode.read());
    let t = Instant::now();
    let r = f();
    let secs = t.elapsed().as_secs_f64();
    let phase = Phase {
        secs,
        successors: delta(c.successors.read(), s0),
        encode: delta(c.encode.read(), e0),
        ..Phase::default()
    };
    (r, phase)
}

/// The explore call `ccr verify` makes (traced search, deadlock check
/// on), with the registry it uses when no `--metrics` is asked for: the
/// plain and traced passes differ only in the [`Traced`] wrapper.
fn explore_phase<T: TransitionSystem>(sys: &T, c: &Counters) -> Phase {
    let mut sink = NullSink;
    let mut obs = SearchObserver::new(&mut sink);
    let budget = Budget::states(CLI_BUDGET);
    let (r, mut phase) =
        measured(c, || explore_traced_observed(sys, &budget, |_| None, true, &mut obs));
    if !r.outcome.is_complete() {
        fail(format!("explore: {:?}", r.outcome));
    }
    phase.states = r.states;
    phase.transitions = r.transitions;
    phase
}

/// The store's shape after the asynchronous explore — peak frontier and
/// bytes held — read from a live registry in one extra, untimed explore,
/// so that no timed pass pays for recording it.
fn store_shape<T: TransitionSystem>(sys: &T) -> (u64, u64) {
    let reg = Registry::new();
    let mut sink = NullSink;
    let mut obs = SearchObserver::with_metrics(&mut sink, reg.clone());
    let r = explore_traced_observed(sys, &Budget::states(CLI_BUDGET), |_| None, true, &mut obs);
    if !r.outcome.is_complete() {
        fail(format!("explore: {:?}", r.outcome));
    }
    let snap = reg.snapshot();
    let gauge = |k: &str| snap.gauges.get(k).copied().unwrap_or(0);
    (gauge("mc_peak_frontier"), gauge("mc_store_bytes"))
}

/// One pass of the `ccr verify` pipeline: parse → refine → systems →
/// rendezvous explore → asynchronous explore → Equation 1 → progress.
struct Pass {
    total_s: f64,
    reduce: bool,
    static_msgs: u32,
    rv: Phase,
    asy: Phase,
    eq1: Phase,
    eq1_report: ccr_mc::SimRelReport,
    progress: Phase,
    /// Calls and nanoseconds over the three searches: successor
    /// generation, plain state encoding, and canonicalization (the
    /// encodes asked of [`Reduced`], which include plain encodes).
    successors: (u64, u64),
    encode: (u64, u64),
    canon: (u64, u64),
}

fn pipeline(src: &str, n: u32, traced: bool) -> Pass {
    let (c, under) = (Counters::default(), Counters::default());
    let started = Instant::now();
    let spec = parse_validated(src).unwrap_or_else(|e| fail(e));
    let refined = derive(&spec);
    let rv = RendezvousSystem::new(&spec, n);
    let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
    let reduce = spec_permutable(&spec);
    let rvp = as_searched!(&rv, reduce, traced, &c, &under, |s| explore_phase(s, &c));
    let ap = as_searched!(&asys, reduce, traced, &c, &under, |s| explore_phase(s, &c));
    let budget = Budget::states(CLI_BUDGET);
    let (eq1_report, eq1) = measured(&c, || check_simulation(&asys, &rv, &budget));
    let (prog, mut progress) = measured(&c, || {
        as_searched!(&asys, reduce, traced, &c, &under, |s| {
            let mut sink = NullSink;
            let mut obs = SearchObserver::new(&mut sink);
            check_progress_observed(s, &budget, |l| l.completes.is_some(), &mut obs)
        })
    });
    let total_s = started.elapsed().as_secs_f64();
    if !eq1_report.holds() || !prog.holds() {
        fail("Equation 1 or progress does not hold");
    }
    progress.states = prog.states;
    Pass {
        total_s,
        reduce,
        static_msgs: refined.total_static_cost(),
        rv: rvp,
        asy: ap,
        eq1,
        eq1_report,
        progress,
        successors: c.successors.read(),
        encode: if reduce { under.encode.read() } else { c.encode.read() },
        canon: if reduce { c.encode.read() } else { (0, 0) },
    }
}

fn cmd_trace(args: &[String]) {
    let path: String = arg(args, 0, "spec");
    let n: u32 = arg(args, 1, "n");
    let src = read(&path);
    let (mut plain, mut traced) = (vec![], vec![]);
    for _ in 0..TRACE_PAIRS {
        plain.push(pipeline(&src, n, false));
        traced.push(pipeline(&src, n, true));
    }
    let counts =
        |p: &Pass| (p.rv.states, p.asy.states, p.asy.transitions, p.eq1_report.transitions_checked);
    if plain.iter().chain(&traced).any(|p| counts(p) != counts(&traced[0])) {
        fail("traced and plain passes disagree on state counts");
    }
    let plain_total_s = median(&mut plain.iter().map(|p| p.total_s).collect::<Vec<_>>());
    traced.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
    let t = &traced[TRACE_PAIRS / 2];
    let spec = parse_validated(&src).unwrap_or_else(|e| fail(e));
    let refined = derive(&spec);
    let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
    let (peak_frontier, store_bytes) =
        if t.reduce { store_shape(&Reduced::new(&asys)) } else { store_shape(&asys) };
    let explore_wrapped_ns: u64 = [&t.rv, &t.asy].iter().map(|p| p.successors.1 + p.encode.1).sum();
    let secs = |ns: u64| format!("{:e}", ns as f64 * 1e-9);
    let e = &t.eq1_report;
    emit(&[
        ("reduce", t.reduce.to_string()),
        ("static_msgs", t.static_msgs.to_string()),
        ("plain_total_s", format!("{plain_total_s:e}")),
        ("traced_total_s", format!("{:e}", t.total_s)),
        ("rv_states", t.rv.states.to_string()),
        ("rv_transitions", t.rv.transitions.to_string()),
        ("async_states", t.asy.states.to_string()),
        ("async_transitions", t.asy.transitions.to_string()),
        ("equation1_states", e.async_states.to_string()),
        ("equation1_transitions", e.transitions_checked.to_string()),
        ("equation1_stutters", e.stutters.to_string()),
        ("progress_states", t.progress.states.to_string()),
        ("explore_rv_s", format!("{:e}", t.rv.secs)),
        ("explore_async_s", format!("{:e}", t.asy.secs)),
        ("equation1_s", format!("{:e}", t.eq1.secs)),
        ("progress_s", format!("{:e}", t.progress.secs)),
        ("successor_calls", t.successors.0.to_string()),
        ("successors_s", secs(t.successors.1)),
        ("encode_s", secs(t.encode.1)),
        ("canon_s", secs(t.canon.1)),
        (
            "explore_self_s",
            format!("{:e}", t.rv.secs + t.asy.secs - explore_wrapped_ns as f64 * 1e-9),
        ),
        ("peak_frontier", peak_frontier.to_string()),
        ("store_bytes", store_bytes.to_string()),
    ]);
}

/// `Machine::run`'s step loop, driven over a [`Traced`] system so that
/// the successor calls along the path are timed. Returns its report.
fn replica(refined: &RefinedProtocol, input: &DsmInput, c: &Counters) -> MachineReport {
    let config = MachineConfig::standard(refined, input.n, input.steps);
    let started = Instant::now();
    let asys = AsyncSystem::new(refined, input.n, config.asynch.clone());
    let sys = Traced { inner: &asys, c };
    let mut sim = Simulator::new(&sys);
    let mut workload = input.mix();
    let mut sched = RandomSched::new(input.sched_seed);
    let (mut steps, mut ops, mut deadlocked) = (0u64, 0u64, false);
    while steps < config.max_steps {
        let fired = sim
            .step_filtered(&mut sched, |label| match (&label.tag, label.actor) {
                (Some(tag), ProcessId::Remote(r)) if label.kind == LabelKind::Tau => {
                    workload.enable(r, tag)
                }
                _ => true,
            })
            .unwrap_or_else(|e| fail(format!("replica step: {e}")));
        steps += 1;
        match fired {
            Some(label) => {
                if label.completes.is_some_and(|(_, m)| config.ops.contains(&m)) {
                    ops += 1;
                }
            }
            None => {
                let mut probe = Vec::new();
                sys.successors(sim.state(), &mut probe)
                    .unwrap_or_else(|e| fail(format!("replica probe: {e}")));
                if probe.is_empty() {
                    deadlocked = true;
                    break;
                }
            }
        }
    }
    MachineReport::from_stats(
        &refined.spec.name,
        "derived",
        input.n,
        steps,
        deadlocked,
        ops,
        sim.stats(),
        started.elapsed(),
    )
}

fn cmd_trace_dsm(args: &[String]) {
    let input = DsmInput::parse(args);
    let refined = derive(&load(&arg::<String>(args, 0, "spec")));
    let key = |r: &MachineReport| (r.steps, r.ops, r.messages, r.acks, r.nacks, r.deadlocked);
    let (mut plain, mut traced) = (vec![], vec![]);
    let mut report = None;
    for _ in 0..TRACE_PAIRS {
        let (rep, run_s) = input.run(&refined);
        let c = Counters::default();
        let t = Instant::now();
        let replayed = replica(&refined, &input, &c);
        traced.push((t.elapsed().as_secs_f64(), c.successors.read()));
        if key(&replayed) != key(&rep) {
            fail("the traced replica diverged from Machine::run");
        }
        plain.push(run_s);
        report = Some(rep);
    }
    let report = report.expect("TRACE_PAIRS > 0");
    let run_s = median(&mut plain);
    traced.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (replica_s, (calls, ns)) = traced[TRACE_PAIRS / 2];
    let mut pairs = report_pairs(&report, run_s);
    pairs.extend([
        ("static_msgs", refined.total_static_cost().to_string()),
        ("replica_s", format!("{replica_s:e}")),
        ("successor_calls", calls.to_string()),
        ("successors_s", format!("{:e}", ns as f64 * 1e-9)),
    ]);
    emit(&pairs);
}

/// Times the probe kernel again and again until stdin closes, then prints
/// the number of samples and their mean. The kernel depends only on the
/// standard library, so a change to the project leaves its time alone,
/// while a slower host slows it as it slows the op beside it.
fn cmd_probe() {
    let closed = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&closed);
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        flag.store(true, Ordering::Relaxed);
    });
    let mut x = 0u64;
    let (mut samples, mut total) = (0u64, 0.0);
    while samples == 0 || !closed.load(Ordering::Relaxed) {
        let t = Instant::now();
        let mut set: HashSet<u64, BuildHasherDefault<DefaultHasher>> = HashSet::default();
        for _ in 0..PROBE_KEYS {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            set.insert((z ^ (z >> 27)) % (4 * PROBE_KEYS));
        }
        black_box(&set);
        total += t.elapsed().as_secs_f64();
        samples += 1;
        std::thread::sleep(PROBE_GAP);
    }
    emit(&[("samples", samples.to_string()), ("mean_s", format!("{:e}", total / samples as f64))]);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("setup") => cmd_setup(rest),
        Some("dsm") => cmd_dsm(rest),
        Some("full") => cmd_full(rest),
        Some("trace") => cmd_trace(rest),
        Some("trace-dsm") => cmd_trace_dsm(rest),
        Some("probe") => cmd_probe(),
        _ => fail("usage: ccrbench setup|dsm|full|trace|trace-dsm <spec> <n> ... | probe"),
    }
}
