"""End-to-end benchmark of the `mzero` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 [--trace 1]

Each call is `python3 -m mzero.cli <command> ... --json` in a fresh child
process with PYTHONPATH=src, timed from spawn to exit; peak memory comes
from `os.wait4`. Load is a closed loop: one client, one child at a time.
A run makes at least one whole pass over the workload's call list and
repeats passes while another is predicted to fit in --seconds, and checks
every call's output. The seed drives the cli-dense systems and start
points; the other workloads have fixed inputs.

Every call is bracketed by runs of `reference.py`, a fixed child that
imports numpy and does a little pure-Python arithmetic without touching
the package. A call's relative time is its wall time divided by the mean
of the two reference times around it: the cost of the call in units of a
bare numpy-importing interpreter run on the same machine at the same
moment. The benchmark runs on small shared hosts whose speed drifts by
20-30% over stretches of seconds to minutes, and that drift slows calls
and references alike (the children's CPU time drifts with their wall
time, so it is not waiting for a processor); the ratio cancels it. The
reference imports nothing of the package, so a change to the program
moves only the numerator.

Gated end-to-end metrics (the JSON result of an untraced run):
  setup_s            `import mzero.cli` in a fresh interpreter, median of
                     samples taken before the first call and before
                     every fifth call of each pass
  call_rel_gm        geometric mean over the call list of each call's
                     median relative time
  pass_rel           sum over the call list of each call's median
                     relative time: one pass in reference runs
  separation_rel_gm  call_rel_gm over the separation calls only
  ok_frac            calls whose output passes its check / calls made
  peak_rss_mb        largest peak RSS of any call's child
Printed as well, in milliseconds as measured: call_ms_p50, call_ms_p90
(from 100 calls up), pass_s (median over passes of summed call times),
ref_ms_p50, and per command <command>_ms_p50 and <command>_rel_gm.

Children run with OPENBLAS_NUM_THREADS=1:
starting the BLAS thread pool on two busy virtual CPUs made the numpy
import alone swing between about 95 and 200 ms, and the program's linear
algebra is on matrices with at most eight rows or columns, so the pool
does no useful work.

With --trace 1 every call runs twice, untraced and then through
`traced_cli.py`, which reports per-layer self time and counters; the run
prints the per-layer metrics (per pass), each module's share of traced
call time, and the tracing overhead. perfbench/layers.json maps each
per-layer metric to the end-to-end metric it should move.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. `failed` counts every call whose output fails its
check; `correct` is false only when a call fails that is not listed as a
known defect of the program (see KNOWN_DEFECTS). Without the package
source under src/ the script exits with code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(1, SRC)

import checks  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("cli-worked", "cli-dense", "constants-ladder")
COMMANDS = ("dual", "gamma", "separation", "certify", "refine", "thresholds")
# a setup sample (see `probe`) is taken before every PROBE_EVERY-th call
PROBE_EVERY = 5
P90_MIN_SAMPLES = 100
GATED = ("setup_s", "call_rel_gm", "pass_rel", "separation_rel_gm", "ok_frac",
         "peak_rss_mb")
REFERENCE = os.path.join(HERE, "reference.py")
START_WORKED = "-0.01,0.01"
WORKED = (
    # name, text, mu, exclusion radius target (acceptance items 2 and 3a)
    ("double", gen.EX_DOUBLE, 2, (0.0447, 1e-3)),
    ("triple", gen.EX_TRIPLE, 3, (0.01545, 1e-4)),
)
# Calls whose failure is a known defect of the program at the time the
# benchmark was written. They are run, checked and counted in `failed` and
# ok_frac like every other call; they only do not clear `correct`.
KNOWN_DEFECTS = {
    "gamma double": "gamma refuses a point outside the distinguished shape "
    "(exit 3); separation moves such input to a normalizing frame",
    "certify double": "certify_cluster does not move non-normalized input to a "
    "frame: radius 0 and non-finite gamma, printed as bare inf (invalid JSON)",
}


@dataclass
class Call:
    label: str
    command: str
    args: list
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    call: Call
    ms: float
    rss_mb: float
    error: str = None
    result: dict = None
    trace: dict = None
    traced_ms: float = None
    ref_ms: float = None  # mean of the reference runs just before and after


# ---------------------------------------------------------------------------
# workloads


def worked_calls(workdir, seed):
    calls = []
    for name, text, mu, bound in WORKED:
        path = os.path.join(workdir, name + ".mz")
        with open(path, "w") as handle:
            handle.write(text)
        at0 = ["--system", path, "--point", "0,0"]
        start = ["--system", path, "--point", START_WORKED, "--mu", str(mu)]
        calls += [
            Call("dual " + name, "dual", at0, {"mu": mu}),
            Call("gamma " + name, "gamma", at0, {"mu": mu}),
            Call("separation " + name, "separation", at0,
                 {"mu": mu, "system": True, "bound": bound}),
            Call("certify " + name, "certify", at0 + ["--mu", str(mu)], {"mu": mu}),
            Call("refine " + name, "refine", start),
            Call("refine-general " + name, "refine", start + ["--variant", "general"]),
        ]
    return calls + threshold_calls()


def threshold_calls():
    return [
        Call("thresholds " + v, "thresholds", ["--variant", v])
        for v in checks.THRESHOLD_TARGETS
    ]


def dense_calls(workdir, seed):
    calls = []
    for name, n, mu, polys, start in gen.dense_inputs(seed):
        text = gen.system_text(polys)
        path = os.path.join(workdir, name + ".mz")
        with open(path, "w") as handle:
            handle.write(text)
        check_roundtrip(name, polys, text, start)
        origin = ",".join(["0"] * n)
        at0 = ["--system", path, "--point", origin]
        near = ["--system", path, "--point", gen.point_text(start), "--mu", str(mu)]
        calls += [
            Call("dual " + name, "dual", at0, {"mu": mu}),
            Call("gamma " + name, "gamma", at0, {"mu": mu}),
            Call("separation " + name, "separation", at0, {"mu": mu, "system": True}),
            Call("certify " + name, "certify", at0, {"mu": mu}),
            Call("refine " + name, "refine", near),
            Call("refine-general " + name, "refine", near + ["--variant", "general"]),
        ]
    return calls


def check_roundtrip(name, polys, text, start):
    """The written file must parse back to the generator's exact system."""
    from mzero.polycore import Poly, PolySystem, parse_system

    n = len(polys)
    parsed = parse_system(text)
    mine = PolySystem([Poly(n, terms) for terms in polys])
    if [p.terms for p in parsed.polys] != [p.terms for p in mine.polys]:
        raise SystemExit("%s: parsed coefficients differ from the generator's" % name)
    for x in (np.zeros(n, dtype=complex), start, 1j * start[::-1]):
        diff = float(np.max(np.abs(parsed.eval_at(x) - mine.eval_at(x))))
        if diff != 0.0:
            raise SystemExit("%s: round-trip max |df| = %g" % (name, diff))


def ladder_calls(workdir, seed):
    return [
        Call("separation mu=%d" % k, "separation", ["--mu", str(k)], {"mu": k})
        for k in range(2, 11)
    ] + threshold_calls()


CALL_LISTS = {
    "cli-worked": worked_calls,
    "cli-dense": dense_calls,
    "constants-ladder": ladder_calls,
}


# ---------------------------------------------------------------------------
# running calls


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MZERO_SEED", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(argv, workdir, env):
    """Run argv to completion; return (wall ms, peak RSS MB, exit code, stdout)."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        ms = (time.perf_counter() - t0) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as handle:
        stdout = handle.read()
    return ms, usage.ru_maxrss / 1024.0, proc.returncode, stdout


def run_call(call, workdir, env, traced):
    argv = [call.command] + call.args + ["--json"]
    ms, rss, code, stdout = spawn([sys.executable, "-m", "mzero.cli"] + argv, workdir, env)
    result, error = checks.check_call(call.command, call.expect, code, stdout)
    out = Outcome(call, ms, rss, error, result)
    if traced:
        trace_path = os.path.join(workdir, "trace.json")
        script = os.path.join(HERE, "traced_cli.py")
        out.traced_ms, _, tcode, tstdout = spawn(
            [sys.executable, script, trace_path] + argv, workdir, env
        )
        if tcode != code or tstdout != stdout:
            out.error = out.error or "traced output differs from untraced output"
        with open(trace_path) as handle:
            out.trace = json.load(handle)
    return out


def run_pass(calls, workdir, env, traced, setup):
    outcomes = []
    refs = []
    for i, call in enumerate(calls):
        if i % PROBE_EVERY == 0:
            setup.append(probe(workdir, env))
        refs.append(reference(workdir, env))
        outcomes.append(run_call(call, workdir, env, traced))
    refs.append(reference(workdir, env))
    for o, before, after in zip(outcomes, refs, refs[1:]):
        o.ref_ms = (before + after) / 2
    # `separation --mu k` calls, the only ones whose arguments start with --mu
    ladder = {o.call.expect["mu"]: o for o in outcomes if o.call.args[:1] == ["--mu"]}
    results = {mu: (o.result if o.error is None else None) for mu, o in ladder.items()}
    for mu, reason in checks.check_ladder(results):
        ladder[mu].error = reason
    return outcomes


def probe(workdir, env):
    """Seconds to `import mzero.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import mzero.cli; print(time.perf_counter() - t)"
    _, _, rc, stdout = spawn([sys.executable, "-c", code], workdir, env)
    if rc != 0:
        raise SystemExit("import mzero.cli failed in a fresh interpreter")
    return float(stdout)


def reference(workdir, env):
    """Wall ms of one run of the reference child."""
    ms, _, rc, _ = spawn([sys.executable, REFERENCE], workdir, env)
    if rc != 0:
        raise SystemExit("the reference child failed")
    return ms


# ---------------------------------------------------------------------------
# metrics


def rel_times(outcomes, command=None):
    """Each call's median relative time in the run, keyed by call label."""
    ratios = {}
    for o in outcomes:
        if command is None or o.call.command == command:
            ratios.setdefault(o.call.label, []).append(o.ms / o.ref_ms)
    return {label: statistics.median(r) for label, r in ratios.items()}


def rel_gm(outcomes, command=None):
    """Geometric mean over the call list of each call's median relative time."""
    return statistics.geometric_mean(rel_times(outcomes, command).values())


def end_to_end(passes, setup):
    """{name: (value, unit, samples)}: the GATED metrics, then the medians
    and percentiles that are printed but not gated."""
    outcomes = [o for outs in passes for o in outs]
    times = [o.ms for o in outcomes]
    per_cmd = {}
    for cmd in COMMANDS:
        cmd_times = [o.ms for o in outcomes if o.call.command == cmd]
        if cmd_times:
            per_cmd[cmd + "_rel_gm"] = (rel_gm(outcomes, cmd), "ref", len(cmd_times))
            per_cmd[cmd + "_ms_p50"] = (statistics.median(cmd_times), "ms", len(cmd_times))
    m = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "call_rel_gm": (rel_gm(outcomes), "ref", len(times)),
        "pass_rel": (sum(rel_times(outcomes).values()), "ref", len(times)),
        "separation_rel_gm": per_cmd["separation_rel_gm"],
        "ok_frac": (sum(o.error is None for o in outcomes) / len(outcomes), "frac", len(outcomes)),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB", len(outcomes)),
        "call_ms_p50": (statistics.median(times), "ms", len(times)),
        "pass_s": (
            statistics.median(sum(o.ms for o in outs) / 1e3 for outs in passes), "s", len(passes)),
        "ref_ms_p50": (statistics.median(o.ref_ms for o in outcomes), "ms", len(outcomes)),
    }
    if len(times) >= P90_MIN_SAMPLES:
        m["call_ms_p90"] = (statistics.quantiles(times, n=10)[-1], "ms", len(times))
    m.update(per_cmd)
    return m


def per_layer(passes):
    """{name: (value, unit)} per pass, from the traced calls."""
    outcomes = [o for outs in passes for o in outs]
    npass = len(passes)
    self_ms, incl_ms, calls, counts = {}, {}, {}, {}
    distinct = 0
    import_ms = 0.0
    for o in outcomes:
        t = o.trace
        import_ms += t["import_ms"]
        distinct += t["tensor_distinct"]
        for src, dst in ((t["self_ms"], self_ms), (t["incl_ms"], incl_ms),
                         (t["calls"], calls), (t["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def timed(span, with_calls=True):
        put(span + ".ms", self_ms.get(span, 0.0) / npass, "ms")
        if with_calls:
            put(span + ".calls", calls.get(span, 0) / npass, "count")

    timed("polycore.parse_system")
    timed("polycore.derivative_tensor")
    for k in (2, 3, 4):
        name = "polycore.derivative_tensor.k%d" % k
        put(name + ".incl_ms", incl_ms.get(name, 0.0) / npass, "ms")
    for span in ("polycore.jacobian", "polycore.eval_at", "polycore.partials_vector",
                 "polycore.poly.partial_at"):
        timed(span)
    frame_ms = sum(v for k, v in self_ms.items() if k.startswith("polycore.frame."))
    put("polycore.frame.ms", frame_ms / npass, "ms")
    put("polycore.term_visits", counts.get("polycore.term_visits", 0) / npass, "count")
    n_tensor = calls.get("polycore.derivative_tensor", 0)
    put("polycore.derivative_tensor.distinct_frac",
        distinct / n_tensor if n_tensor else 1.0, "frac")
    frame_calls = counts.get("polycore.frame.derivative_tensor.calls", 0)
    put("polycore.frame_cache.hit_frac",
        counts.get("polycore.frame.derivative_tensor.hits", 0) / frame_calls
        if frame_calls else 0.0, "frac")
    for span in ("compute_dual_basis", "chainrule_Lk", "normalizing_frame", "is_normalized"):
        timed("dualspace." + span)
    for span in ("gamma_mu", "gamma_hat", "gamma_n"):
        timed("gamma." + span, with_calls=False)
    timed("numkit.tensor_norm")
    for name in ("numkit.linalg.svd.calls", "numkit.linalg.solve.calls"):
        put(name, counts.get(name, 0) / npass, "count")
    timed("numkit.smallest_positive_root")
    put("numkit.smallest_positive_root.failed",
        counts.get("numkit.smallest_positive_root.failed", 0) / npass, "count")
    for span in ("coefficient_table", "separation_constant", "certify_cluster",
                 "separation_bound"):
        timed("certify." + span)
    for mu in range(2, 11):
        name = "certify.separation_constant.mu%d" % mu
        put(name + ".incl_ms", incl_ms.get(name, 0.0) / npass, "ms")
    for span in ("iterate_until", "refine_general", "refine_triple", "refine_double",
                 "threshold_constants"):
        timed("newton." + span, with_calls=False)
    steps = sum(calls.get("newton." + s, 0)
                for s in ("refine_general", "refine_triple", "refine_double"))
    put("newton.iterations", steps / npass, "count")
    for span in ("main", "load_system", "canonical_json"):
        timed("cli." + span, with_calls=False)
    put("cli.import_ms", import_ms / npass, "ms")
    untraced = sum(o.ms for o in outcomes)
    put("trace.overhead_frac", sum(o.traced_ms for o in outcomes) / untraced - 1.0, "frac")
    return m


def layer_shares(passes):
    """Per command: share of traced call time in each module's self time."""
    by_cmd = {}
    for outs in passes:
        for o in outs:
            row = by_cmd.setdefault(o.call.command, {"wall": 0.0})
            row["wall"] += o.traced_ms
            row["import"] = row.get("import", 0.0) + o.trace["import_ms"]
            for span, ms in o.trace["self_ms"].items():
                mod = span.split(".")[0]
                row[mod] = row.get(mod, 0.0) + ms
    lines = []
    for cmd, row in by_cmd.items():
        wall = row.pop("wall")
        row["unattributed"] = wall - sum(row.values())
        parts = sorted(row.items(), key=lambda kv: -kv[1])
        lines.append("  %-10s " % cmd + "  ".join("%s %.2f" % (k, v / wall) for k, v in parts))
    return lines


# ---------------------------------------------------------------------------
# running a workload


def run_workload(name, seed, seconds, traced):
    env = child_env()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        calls = CALL_LISTS[name](workdir, seed)
        setup = [probe(workdir, env)]
        passes = []
        t_start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(calls, workdir, env, traced, setup))
            elapsed = time.perf_counter() - t_start
            last = time.perf_counter() - t_pass
            if elapsed + last > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for outs in passes for o in outs]
    failures = [o for o in outcomes if o.error is not None]
    unexpected = [o for o in failures if o.call.label not in KNOWN_DEFECTS]
    e2e = end_to_end(passes, setup)
    print("workload %s  seed %d  passes %d  calls %d  traced %d"
          % (name, seed, len(passes), len(outcomes), int(traced)))
    for metric, (value, unit, n) in e2e.items():
        print("  %-22s %14.6g %-5s n=%d" % (metric, value, unit, n))
    for (label, error), count in Counter((o.call.label, o.error) for o in failures).items():
        tag = "known defect" if label in KNOWN_DEFECTS else "FAILED"
        print("  %s x%d: %s: %s" % (tag, count, label, error))
    if traced:
        layers = per_layer(passes)
        print("  per-layer, per pass:")
        for metric, (value, unit) in layers.items():
            print("  %-48s %14.6g %s" % (metric, value, unit))
        print("  self-time share of traced call time, by module:")
        for line in layer_shares(passes):
            print(line)
        chosen = layers
    else:
        chosen = {k: e2e[k][:2] for k in GATED}
    return {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mzero", "cli.py")):
        print("perfbench: no package source at %s" % SRC, file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
