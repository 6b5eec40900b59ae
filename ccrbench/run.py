#!/usr/bin/env python3
"""End-to-end benchmark for `ccr verify` and the DSM machine.

    python3 ccrbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ccrbench/run.py --negative

Run from the repository root. It builds `ccr` and the `ccrbench` helper
with cargo (target directory $CARGO_TARGET_DIR, default `.bench_build`),
times the workload's set-up, then runs its ops one after another, each
in its own child process beside a host-speed probe, for S seconds
(closed loop, at least MIN_OPS ops). Every op's output is checked. The
last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
traced in-process run (`--trace 1`). `--negative` tests the checks: it
exits 0 only if an op on the deliberately broken spec fails them and
each property, broken in turn in a real passing report, is rejected.
See README.md.
"""

import argparse
import copy
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = {
    "verify_migratory_sym_n5": {
        "kind": "verify", "spec": "specs/migratory.ccp", "n": 5, "symmetry": "on"},
    "verify_invalidate_n3": {
        "kind": "verify", "spec": "specs/invalidate.ccp", "n": 3, "symmetry": "off"},
    "dsm_invalidate_n8": {"kind": "dsm", "spec": "specs/invalidate.ccp", "n": 8},
}
# A time metric is a median; three ops are the fewest that give one.
MIN_OPS = 3
# Set-up is timed in this many helper processes spread over the run. Each
# reports its fastest batch of derivations, and the figure is the fastest
# of those: the host's speed drifts in spells, and the run's fastest batch
# is the one they slowed least.
SETUP_REPEATS = 10
# Each op runs beside `ccrbench probe`, which times a fixed kernel every
# few milliseconds on the other CPU. The host's speed drifts by 20% and
# more over minutes and moves op and probe alike, so an op's time is
# divided by the probe's mean time during the op and multiplied by
# PROBE_S, about the probe's mean here: `op_norm_s` is the op's time on a
# host where the probe takes PROBE_S.
PROBE_S = 1.25e-3
# Machine steps per DSM run: about two seconds of `Machine::run` here.
DSM_STEPS = 200_000

PER_LAYER = [
    "core.parse_s", "core.refine_s", "core.static_msgs", "runtime.system_build_s",
    "runtime.successor_calls", "runtime.successors_s", "runtime.encode_s",
    "mc.explore_rv_s", "mc.rv_states", "mc.explore_async_s", "mc.async_states",
    "mc.async_transitions", "mc.explore_self_s", "mc.store_bytes_per_state",
    "mc.peak_frontier", "mc.canon_s", "mc.orbit_states", "mc.equation1_s",
    "mc.equation1_states", "mc.equation1_transitions", "mc.equation1_stutters",
    "mc.progress_s", "mc.progress_states", "cli.residual_s", "dsm.run_s", "dsm.steps",
    "dsm.acquisitions", "dsm.messages", "dsm.acks", "dsm.nacks", "dsm.nack_share",
    "dsm.max_link_occupancy", "bench.trace_overhead_s", "bench.op_wall_s", "bench.probe_s",
]


class BenchError(Exception):
    pass


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    return {"mc.store_bytes_per_state": "B/state", "dsm.nack_share": "ratio"}.get(name, "count")


def splitmix64(x):
    m = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & m
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
    return z ^ (z >> 31)


def build():
    """Builds `ccr` and the helper; returns their paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for extra in (["--bin", "ccr"], ["--manifest-path", "ccrbench/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = (target if target.is_absolute() else ROOT / target) / "release"
    return str(release / "ccr"), str(release / "ccrbench")


def run_child(argv):
    """Runs one child to its end: (exit code, stdout, wall seconds, peak RSS MB)."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return proc.returncode, out.decode(errors="replace"), wall, usage.ru_maxrss / 1024


def last_json(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def helper(bench, *args):
    """Runs a helper subcommand that must succeed; returns its JSON."""
    code, out, _, _ = run_child([bench, *map(str, args)])
    if code != 0:
        raise BenchError(f"ccrbench {' '.join(map(str, args))} exited {code}")
    return last_json(out)


def check_verify(code, out, wl, full):
    """Checks one `ccr verify --json` op against what the method must
    satisfy. Returns (failed checks, parsed report)."""
    errs = [] if code == 0 else [f"exit status {code}"]
    try:
        d = last_json(out)
        missing = [k for k in ("rendezvous", "asynchronous", "equation1", "progress") if not d[k]]
        if missing:
            return errs + [f"no {k} report" for k in missing], d
        rv, a, e, p = d["rendezvous"], d["asynchronous"], d["equation1"], d["progress"]
        if d["holds"] is not True:
            errs.append("holds is not true")
        if rv["outcome"] != "Complete" or a["outcome"] != "Complete":
            errs.append("a search outcome is not Complete")
        if e["complete"] is not True or p["complete"] is not True:
            errs.append("Equation 1 or progress is incomplete")
        if e["stutters"] + e["mapped_steps"] != e["transitions_checked"]:
            errs.append("stutters + mapped_steps != transitions_checked")
        if p["states"] != a["states"]:
            errs.append("progress states != asynchronous states")
        if not rv["states"] < a["states"]:
            errs.append("rendezvous states not below asynchronous states")
        if d["symmetry"] != wl["symmetry"]:
            errs.append(f"symmetry {d['symmetry']}, expected {wl['symmetry']}")
        elif wl["symmetry"] == "off":
            if (e["async_states"], e["transitions_checked"]) != (a["states"], a["transitions"]):
                errs.append("Equation 1 and explore disagree on the unreduced graph")
        else:
            group = math.factorial(wl["n"])
            for level, key in (("rendezvous", "rv_states"), ("asynchronous", "async_states")):
                if not full[key] / group <= d[level]["states"] <= full[key]:
                    errs.append(f"{level} orbit count outside [full/{wl['n']}!, full]")
    except (TypeError, KeyError, ValueError, AttributeError) as exc:
        errs.append(f"malformed report: {exc!r}")
        d = None
    return errs, d


def check_dsm(code, out, first):
    """Checks one DSM op's report; `first` is the run's first passing
    report, which every later op (same seeds) must repeat exactly."""
    errs = [] if code == 0 else [f"exit status {code}"]
    try:
        d = last_json(out)
        if d["deadlocked"]:
            errs.append("deadlocked")
        if d["starved"] != 0:
            errs.append("a remote starved")
        if d["steps"] != DSM_STEPS:
            errs.append("run stopped short")
        if d["messages"] < 2 * d["acquisitions"]:
            errs.append("messages < 2 x acquisitions")
        if d["acks"] + d["nacks"] > d["messages"]:
            errs.append("acks + nacks > messages")
        if first is not None and deterministic(d) != deterministic(first):
            errs.append("same seeds, different report")
    except (TypeError, KeyError, ValueError, AttributeError) as exc:
        errs.append(f"malformed report: {exc!r}")
        d = None
    return errs, d


def deterministic(report):
    return {k: v for k, v in report.items() if k != "run_s"}


def dsm_args(wl, seed):
    """The DSM input drawn from `seed`: mix and scheduler seeds."""
    return [wl["spec"], wl["n"], splitmix64(2 * seed), splitmix64(2 * seed + 1), DSM_STEPS]


def dsm_argv(bench, wl, seed):
    return [bench, "dsm", *map(str, dsm_args(wl, seed))]


def verify_argv(ccr, wl):
    return [ccr, "verify", wl["spec"], "-n", str(wl["n"]), "--json"]


def probed(bench, f):
    """Runs `f()` beside the host-speed probe; returns its result and the
    probe's mean time. The probe stops when its stdin closes."""
    probe = subprocess.Popen([bench, "probe"], cwd=ROOT, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE)
    try:
        result = f()
    finally:
        probe.stdin.close()
        out = probe.stdout.read()
        probe.stdout.close()
        code = probe.wait()
    report = last_json(out.decode(errors="replace")) if code == 0 else None
    if not report or not report["samples"] > 0 or not report["mean_s"] > 0:
        raise BenchError(f"ccrbench probe exited {code} with no timing")
    return result, report["mean_s"]


def run_ops(seconds, op, time_setup):
    """Closed loop: the next op starts when the last ends, while the median
    op so far would end within `seconds`, and until at least MIN_OPS ops
    ran. Between ops, `time_setup` runs SETUP_REPEATS times at evenly
    spaced moments; the set-up timings are returned with the ops."""
    ops, setups, spans = [], [], []
    started = time.perf_counter()
    while len(ops) < MIN_OPS or (
            time.perf_counter() - started + statistics.median(spans) <= seconds):
        if len(setups) * seconds / SETUP_REPEATS <= time.perf_counter() - started:
            setups.append(time_setup())
        begun = time.perf_counter()
        ops.append(op())
        spans.append(time.perf_counter() - begun)
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup())
    return ops, setups


def altered(doc, path, value):
    """`doc` as JSON text with the field at dotted `path` replaced by
    `value`, or by `value(old)` when it is callable."""
    d = copy.deepcopy(doc)
    *outer, key = path.split(".")
    node = d
    for k in outer:
        node = node[k]
    node[key] = value(node[key]) if callable(value) else value
    return json.dumps(d)


def rejects(label, errs, want):
    """True if `errs` names the broken property `want`; says so."""
    hit = any(want in e for e in errs)
    print(f"  {label}: " + (f"rejected ({want})" if hit else f"NOT REJECTED: {errs}"))
    return hit


def negative():
    """The checks' own test. The broken spec must be reported as a failed
    op, and each property, broken in turn in a real passing report, must
    be rejected by the check that tests it."""
    ccr, bench = build()
    ok = True
    plus1 = lambda v: v + 1  # noqa: E731
    label = lambda path, value: f"{path} + 1" if value is plus1 else f"{path} = {value}"  # noqa: E731

    broken = dict(WORKLOADS["verify_migratory_sym_n5"], spec="specs/migratory_broken.ccp")
    code, out, _, _ = run_child(verify_argv(ccr, broken))
    errs, _ = check_verify(code, out, broken, helper(bench, "full", broken["spec"], broken["n"]))
    print(f"{broken['spec']} -n {broken['n']}: " + ("; ".join(errs) or "passed every check"))
    ok &= bool(errs)

    def passing(what, check, argv, *rest):
        code, out, _, _ = run_child(argv)
        errs, doc = check(code, out, *rest)
        print(f"{what}: " + ("; ".join(errs) or "passed every check"))
        if errs:
            raise BenchError(f"{what}: a passing report was expected")
        return doc

    sym = WORKLOADS["verify_migratory_sym_n5"]
    full = helper(bench, "full", sym["spec"], sym["n"])
    doc = passing(f"{sym['spec']} -n {sym['n']}", check_verify, verify_argv(ccr, sym), sym, full)
    group = math.factorial(sym["n"])
    for path, value, want in [
        ("holds", False, "holds is not true"),
        ("asynchronous.outcome", "BudgetExhausted", "not Complete"),
        ("equation1.complete", False, "incomplete"),
        ("equation1.stutters", plus1, "stutters + mapped_steps"),
        ("progress.states", plus1, "progress states"),
        ("rendezvous.states", doc["asynchronous"]["states"], "rendezvous states not below"),
        ("symmetry", "off", "symmetry off"),
        ("asynchronous.states", full["async_states"] + 1, "asynchronous orbit count"),
        ("asynchronous.states", math.ceil(full["async_states"] / group) - 1,
         "asynchronous orbit count"),
        ("rendezvous.states", full["rv_states"] + 1, "rendezvous orbit count"),
    ]:
        errs, _ = check_verify(0, altered(doc, path, value), sym, full)
        ok &= rejects(label(path, value), errs, want)
    ok &= rejects("exit status 1", check_verify(1, json.dumps(doc), sym, full)[0], "exit status")

    # Unreduced, small enough to be quick: invalidate at n = 2.
    unred = dict(WORKLOADS["verify_invalidate_n3"], n=2)
    doc = passing(f"{unred['spec']} -n 2", check_verify, verify_argv(ccr, unred), unred, None)
    for path in ("equation1.async_states", "equation1.transitions_checked"):
        errs, _ = check_verify(0, altered(doc, path, plus1), unred, None)
        ok &= rejects(label(path, plus1), errs, "Equation 1 and explore disagree")

    dsm = WORKLOADS["dsm_invalidate_n8"]
    doc = passing("DSM op", check_dsm, dsm_argv(bench, dsm, 1), None)
    passing("the same DSM op again", check_dsm, dsm_argv(bench, dsm, 1), doc)
    for path, value, want in [
        ("deadlocked", True, "deadlocked"),
        ("starved", 1, "starved"),
        ("steps", DSM_STEPS - 1, "stopped short"),
        ("messages", 2 * doc["acquisitions"] - 1, "messages < 2 x acquisitions"),
        ("acks", doc["messages"] - doc["nacks"] + 1, "acks + nacks > messages"),
    ]:
        errs, _ = check_dsm(0, altered(doc, path, value), None)
        ok &= rejects(label(path, value), errs, want)
    errs, _ = check_dsm(0, altered(doc, "acquisitions", plus1), doc)
    ok &= rejects("acquisitions + 1, against the first op", errs, "same seeds, different report")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "specs").is_dir():
        raise BenchError("run from the repository root (Cargo.toml and specs/ not found)")
    if args.negative:
        return negative()
    if args.workload is None:
        ap.error("--workload is required")
    wl = WORKLOADS[args.workload]
    ccr, bench = build()

    correct = True
    if wl["kind"] == "verify":
        full = helper(bench, "full", wl["spec"], wl["n"]) if wl["symmetry"] == "on" else None
        # The workload's protocol on the machine, for msgs_per_acq.
        code, out, _, _ = run_child(dsm_argv(bench, wl, args.seed))
        sample_errs, dsm_report = check_dsm(code, out, None)
        if sample_errs:
            raise BenchError("DSM sample: " + "; ".join(sample_errs))

        def op():
            code, out, wall, rss = run_child(verify_argv(ccr, wl))
            errs, doc = check_verify(code, out, wl, full)
            return errs, doc, wall, rss
    else:
        dsm_report = None

        def op():
            nonlocal dsm_report
            code, out, _, rss = run_child(dsm_argv(bench, wl, args.seed))
            errs, doc = check_dsm(code, out, dsm_report)
            if not errs and dsm_report is None:
                dsm_report = doc
            return errs, doc, doc and doc.get("run_s"), rss

    def probed_op():
        result, probe_s = probed(bench, op)
        print(f"op: {result[2]:.4f} s, probe {probe_s * 1e3:.4f} ms", file=sys.stderr)
        return (*result, probe_s)

    ops, setups = run_ops(
        args.seconds, probed_op, lambda: helper(bench, "setup", wl["spec"], wl["n"], wl["kind"]))
    setup = {k: min(s[k] for s in setups) for k in setups[0]}
    ok = [o for o in ops if not o[0]]
    for errs, *_ in ops:
        if errs:
            print("failed op: " + "; ".join(errs), file=sys.stderr)
    if not ok:
        raise BenchError("every op failed")
    op_s = statistics.median(o[2] for o in ok)
    op_norm_s = statistics.median(o[2] / o[4] for o in ok) * PROBE_S

    if args.trace == 0:
        metrics = {
            "op_norm_s": (op_norm_s, "s"),
            "peak_rss_mb": (statistics.median(o[3] for o in ok), "MB"),
            "setup_s": (setup["setup_s"], "s"),
            "msgs_per_acq": (dsm_report["messages"] / dsm_report["acquisitions"], "messages"),
        }
    else:
        m = dict.fromkeys(PER_LAYER, 0)
        m.update({
            "bench.op_wall_s": op_s,
            "bench.probe_s": statistics.median(o[4] for o in ok),
            "core.parse_s": setup["parse_s"],
            "core.refine_s": setup["refine_s"],
            "runtime.system_build_s": setup["build_s"],
        })
        if wl["kind"] == "verify":
            t = helper(bench, "trace", wl["spec"], wl["n"])
            cli = ok[-1][1]
            traced = (t["rv_states"], t["rv_transitions"], t["async_states"],
                      t["async_transitions"], t["equation1_states"], t["equation1_transitions"],
                      t["equation1_stutters"], t["progress_states"])
            shown = (cli["rendezvous"]["states"], cli["rendezvous"]["transitions"],
                     cli["asynchronous"]["states"], cli["asynchronous"]["transitions"],
                     cli["equation1"]["async_states"], cli["equation1"]["transitions_checked"],
                     cli["equation1"]["stutters"], cli["progress"]["states"])
            if traced != shown:
                print(f"traced counts {traced} != ccr verify counts {shown}", file=sys.stderr)
                correct = False
            for k in ("successor_calls", "successors_s", "encode_s"):
                m[f"runtime.{k}"] = t[k]
            for k in ("explore_rv_s", "rv_states", "explore_async_s", "async_states",
                      "async_transitions", "explore_self_s", "peak_frontier", "canon_s",
                      "equation1_s", "equation1_states", "equation1_transitions",
                      "equation1_stutters", "progress_s", "progress_states"):
                m[f"mc.{k}"] = t[k]
            m["mc.store_bytes_per_state"] = t["store_bytes"] / t["async_states"]
            m["mc.orbit_states"] = t["async_states"] if t["reduce"] else 0
            m["cli.residual_s"] = op_s - t["plain_total_s"]
            m["bench.trace_overhead_s"] = t["traced_total_s"] - t["plain_total_s"]
        else:
            t = helper(bench, "trace-dsm", *dsm_args(wl, args.seed))
            if deterministic(dsm_report) != {k: t[k] for k in deterministic(dsm_report)}:
                print("traced DSM run differs from the ops' report", file=sys.stderr)
                correct = False
            dsm_report = t
            m["runtime.successor_calls"] = t["successor_calls"]
            m["runtime.successors_s"] = t["successors_s"]
            m["bench.trace_overhead_s"] = t["replica_s"] - t["run_s"]
        m["core.static_msgs"] = t["static_msgs"]
        for k in ("run_s", "steps", "acquisitions", "messages", "acks", "nacks",
                  "max_link_occupancy"):
            m[f"dsm.{k}"] = dsm_report[k]
        m["dsm.nack_share"] = dsm_report["nacks"] / dsm_report["messages"]
        metrics = {k: (v, unit_of(k)) for k, v in m.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(1)
