"""sympspec benchmark: one workload, closed loop, one client, one process.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload factorize --seed 1 --seconds 30 --trace 0

The run builds the workload's inputs from ``--seed``, measures set-up in
fresh interpreters, then runs whole rounds of ops until ``--seconds`` have
passed, checks every output after the timed loop, and prints one JSON object
as its last line of stdout. With ``--trace 0`` that object holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (spans around every call into ``sympspec.*``), whose spans are
also written to ``.perfbench/traces/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("factorize", "checkers", "cli_cold")
SETUP_REPEATS = 9          # fresh-interpreter set-ups per run; the median is reported
CALIBRATE_EVERY_S = 0.25   # run the calibration loop between ops at least this often
CALIBRATION_REF_S = 0.005  # the calibration loop's time on the reference host
CALIBRATION_WINDOW = 2     # calibrations on each side of an op that set its scale
WARM_CLI_REPEATS = 3
TAIL_PERCENTILE = 85       # op_p85_ms; see README for why not p90
ACCURACY_FLOOR = 1e-17     # accuracy_digits reads at most 17

CLI_COMMANDS = ("spectrum", "decompose", "check", "sweep", "entropy", "counterexample")
PERTURB_TRACED = (
    "bound_spectrum", "bound_bhatia_jain", "bound_S", "bound_gram",
    "check_sqrt_lemma", "check_inv_lemma", "check_woodbury_norm",
    "check_kappa_growth", "check_eigvec_bound", "check_projection_bound",
    "counterexample_scaling", "sweep",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------- metadata


def git_sha(root):
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(root, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "sympspec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def metadata(args, root, src, workload):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(src),
        "input_sha256": workload.input_digest,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


# ---------------------------------------------------------------- measuring


def percentile(values, p):
    """Linear-interpolation percentile (numpy's default), p in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def calibrate():
    """Seconds a fixed loop of numpy scalar rotations takes right now.

    The loop has the shape of a Jacobi sweep on an 8x8 matrix, but it is the
    benchmark's own code, so no library change can move it. On a shared
    host the speed of the same op drifts by up to 2x over seconds. The
    host's drift shows up in this loop too, and timing it between ops lets a
    run report its times at one reference speed.
    """
    a = np.arange(64.0).reshape(8, 8) / 64.0
    t0 = perf_counter()
    for _ in range(20):
        for p in range(7):
            for q in range(p + 1, 8):
                for k in range(8):
                    x, y = a[k, p], a[k, q]
                    a[k, p] = 0.6 * x - 0.8 * y
                    a[k, q] = 0.8 * x + 0.6 * y
    return perf_counter() - t0


def at_reference_speed(seconds, calibrations):
    """Scale wall seconds to the host on which ``calibrate`` takes
    CALIBRATION_REF_S, given the calibration times measured around them.
    The median keeps one disturbed calibration from setting the scale."""
    return seconds * CALIBRATION_REF_S / statistics.median(calibrations)


@dataclass
class Record:
    op: object
    out: object
    exc: BaseException | None
    seconds: float        # wall time of the call
    round: int            # which pass over the workload's rounds it ran in
    scale: float = 1.0    # wall seconds -> reference seconds, from the calibrations around it
    rel_error: float | None = None   # what the op's check measured, if anything

    @property
    def ref_seconds(self):
        return self.seconds * self.scale


def child_float(cmd, env, root):
    """The float a child prints last, scaled to reference speed."""
    cal = [calibrate() for _ in range(CALIBRATION_WINDOW + 1)]
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=120)
    cal += [calibrate() for _ in range(CALIBRATION_WINDOW + 1)]
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} failed ({proc.returncode}): {proc.stderr.strip()}")
    return at_reference_speed(float(proc.stdout.strip().splitlines()[-1]), cal)


def measure_setup(args, env, root, workdir):
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "setup",
           args.workload, str(args.seed), root, workdir]
    return statistics.median(child_float(cmd, env, root) for _ in range(SETUP_REPEATS))


def run_loop(workload, seconds, call, tracer=None):
    """Run whole rounds until ``seconds`` have passed; returns (records, elapsed).

    Exceptions are kept in the records, not raised: each one makes its op a
    failure when the records are checked. Each record's scale comes from
    the CALIBRATION_WINDOW calibrations before and after its op.
    """
    records, cal_index, cal = [], [], [calibrate()]
    r = 0
    start = last_cal = perf_counter()
    while True:
        for op in workload.rounds[r % len(workload.rounds)]:
            if perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                cal.append(calibrate())
                last_cal = perf_counter()
            if tracer is not None:
                tracer.op_id = len(records)
            t0 = perf_counter()
            try:
                out, exc = call(op, len(records)), None
            except Exception as e:  # noqa: BLE001 - reported by check_records
                out, exc = None, e
            records.append(Record(op, out, exc, perf_counter() - t0, r))
            cal_index.append(len(cal) - 1)
        r += 1
        if perf_counter() - start >= seconds:
            break
    elapsed = perf_counter() - start
    cal += [calibrate() for _ in range(CALIBRATION_WINDOW)]
    w = CALIBRATION_WINDOW
    for rec, j in zip(records, cal_index):
        rec.scale = at_reference_speed(1.0, cal[max(0, j + 1 - w):j + 1 + w])
    return records, elapsed


def check_records(records):
    """Check every output; returns the number of failed ops.

    An op fails if it raised or its output failed its check. A library
    error (``SympspecError``) or a failed check is printed in one line;
    any other exception is a bug and is printed with its traceback.
    """
    from sympspec.errors import SympspecError
    from workloads import CheckFailed

    failed = 0
    for rec in records:
        if rec.exc is None:
            try:
                rec.rel_error = rec.op.check(rec.out)
            except Exception as e:  # noqa: BLE001 - a crashing check is a failure
                rec.exc = e
        if rec.exc is not None:
            failed += 1
            exc = rec.exc
            print(f"FAIL {rec.op.kind} dim={rec.op.dim}: {type(exc).__name__}: {exc}", file=sys.stderr)
            if not isinstance(exc, (SympspecError, CheckFailed)):
                traceback.print_exception(exc, file=sys.stderr)
    return failed


def ops_per_s(records):
    """Median over rounds of the round's passed ops per reference second.

    Every round holds the same mix of op kinds, so rounds are comparable,
    and the median keeps a slow spell of the host within a few rounds from
    moving the result.
    """
    ok, busy = defaultdict(int), defaultdict(float)
    for rec in records:
        ok[rec.round] += rec.exc is None
        busy[rec.round] += rec.ref_seconds
    return statistics.median(ok[r] / busy[r] for r in busy)


def accuracy_digits(records):
    """Mean over rounds of -log10 of the round's worst relative error.

    The worst error of a whole run is one extreme draw and moves by factors
    of several between seeds; the digits of each round's worst, averaged
    over rounds, are steady. Errors past the 1e-8 contracts already fail
    their ops.
    """
    worst = defaultdict(float)
    for rec in records:
        if rec.rel_error is not None:
            worst[rec.round] = max(worst[rec.round], rec.rel_error)
    if not worst:
        return -math.log10(ACCURACY_FLOOR)
    return statistics.mean(-math.log10(max(w, ACCURACY_FLOOR)) for w in worst.values())


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------- end to end


def end_to_end(args, workload, call, env, root, workdir):
    setup_s = measure_setup(args, env, root, workdir)
    records, elapsed = run_loop(workload, args.seconds, call)
    failed = check_records(records)
    lat_ms = [rec.ref_seconds * 1e3 for rec in records]
    attempted = len(records)
    tail = percentile(lat_ms, TAIL_PERCENTILE)
    wall_s = sum(rec.seconds for rec in records)
    print(
        f"info ops={attempted} failed={failed} elapsed_s={elapsed:.3f} "
        f"wall_ops_per_s={(attempted - failed) / wall_s:.4f} "
        f"median_scale={statistics.median(rec.scale for rec in records):.4f} "
        f"samples_beyond_p{TAIL_PERCENTILE}={sum(x > tail for x in lat_ms)} "
        f"max_rel_error={float(max((r.rel_error or 0.0) for r in records))!r}"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(records), "1/s"),
        "op_p50_ms": (percentile(lat_ms, 50), "ms"),
        f"op_p{TAIL_PERCENTILE}_ms": (tail, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(workload.name == "cli_cold"), "MB"),
        "accuracy_digits": (accuracy_digits(records), "digits"),
    }
    return attempted, failed, metrics


# ---------------------------------------------------------------- per layer


def merge_child_spans(tracer, path, op_id):
    """Append a traced CLI child's spans, re-indexed, under ``op_id``.
    A child that died before writing them has already failed its check."""
    if not os.path.exists(path):
        return
    base = len(tracer.spans)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name, start, end, parent, _, dim = json.loads(line)
            tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1, op_id, dim])


def warm_cli_ms(workload):
    """Median in-process ``cli.run`` time per command over round 0."""
    from workloads import cli_in_process

    by_command = {c: [] for c in CLI_COMMANDS}
    for op in workload.rounds[0]:
        command = op.argv[2]
        for _ in range(WARM_CLI_REPEATS):
            before = calibrate()
            t0 = perf_counter()
            cli_in_process(op.argv)
            wall = perf_counter() - t0
            cal = [before, calibrate(), calibrate()]
            by_command[command].append(at_reference_speed(wall, cal) * 1e3)
    return {c: statistics.median(v) for c, v in by_command.items()}


def per_layer(args, workload, call, traced_call, env, root, workdir):
    """Untraced for half the time, then traced over the same rounds."""
    import tracing

    base, _ = run_loop(workload, args.seconds / 2.0, call)
    tracer = tracing.Tracer()
    if workload.name != "cli_cold":
        tracer.install()
    try:
        records, _ = run_loop(
            workload, args.seconds / 2.0, lambda op, i: traced_call(op, i, tracer), tracer
        )
    finally:
        tracer.uninstall()
    if workload.name == "cli_cold":
        for i in range(len(records)):
            merge_child_spans(tracer, os.path.join(workdir, f"spans{i}.jsonl"), i)
    failed = check_records(base) + check_records(records)
    traces = os.path.join(root, ".perfbench", "traces")
    os.makedirs(traces, exist_ok=True)
    tracer.write(os.path.join(traces, f"{workload.name}-seed{args.seed}.jsonl"))

    n_ops = len(records)
    op_s = sum(rec.seconds for rec in records)
    agg = tracing.summarize(tracer.spans)
    by_name = agg["by_name"]
    # Span times are wall times; report them at reference speed like the ops.
    scale = statistics.median(rec.scale for rec in records) * 1e3

    def entry(name):
        return by_name.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "sym_eig_below": 0})

    def ms_per_call(name):
        e = entry(name)
        return e["total_s"] * scale / e["calls"] if e["calls"] else 0.0

    def sym_eig_per_call(name):
        e = entry(name)
        return e["sym_eig_below"] / e["calls"] if e["calls"] else 0.0

    m = {}
    for d in (2, 4, 8, 20, 40):
        calls, total = agg["sym_eig_dims"].get(d, (0, 0.0))
        m[f"densemat.sym_eig.ms_per_call.d{d}"] = (total * scale / calls if calls else 0.0, "ms")
    for fn in ("sym_eig", "psd_sqrt", "spd_inverse", "singular_values", "norm", "condition_number"):
        m[f"densemat.{fn}.calls_per_op"] = (entry(f"densemat.{fn}")["calls"] / n_ops, "count")
    ratios = [
        agg["max_dim_by_op"][i] / rec.op.dim
        for i, rec in enumerate(records)
        if i in agg["max_dim_by_op"] and rec.op.dim
    ]
    m["densemat.sym_eig.max_dim_over_input_dim"] = (max(ratios, default=0.0), "ratio")
    for module in ("densemat", "symplectic", "perturb", "gaussian", "cli"):
        m[f"{module}.share_of_op"] = (agg["by_module"].get(module, 0.0) / op_s, "ratio")
    for fn in ("williamson", "symplectic_spectrum"):
        m[f"symplectic.{fn}.sym_eig_calls_per_call"] = (sym_eig_per_call(f"symplectic.{fn}"), "count")
    for fn in ("williamson", "symplectic_spectrum", "gauge_align"):
        m[f"symplectic.{fn}.self_ms_per_op"] = (entry(f"symplectic.{fn}")["self_s"] * scale / n_ops, "ms")
    for fn in PERTURB_TRACED:
        m[f"perturb.{fn}.ms_per_call"] = (ms_per_call(f"perturb.{fn}"), "ms")
        m[f"perturb.{fn}.sym_eig_calls_per_call"] = (sym_eig_per_call(f"perturb.{fn}"), "count")
    sweeps = [rec.out for rec in records if rec.op.kind == "sweep" and rec.out is not None]
    points = sum(len(s.grid) + len(s.errors) for s in sweeps)
    m["perturb.sweep.points_failed_ratio"] = (
        sum(len(s.errors) for s in sweeps) / points if points else 0.0, "ratio")
    for fn in ("entanglement_entropy", "entropy_difference_bound"):
        m[f"gaussian.{fn}.ms_per_call"] = (ms_per_call(f"gaussian.{fn}"), "ms")
        m[f"gaussian.{fn}.sym_eig_calls_per_call"] = (sym_eig_per_call(f"gaussian.{fn}"), "count")

    if workload.name == "cli_cold":
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), "import"]
        import_ms = statistics.median(child_float(cmd, env, root) for _ in range(SETUP_REPEATS)) * 1e3
        warm = warm_cli_ms(workload)
    else:
        import_ms, warm = 0.0, {c: 0.0 for c in CLI_COMMANDS}
    m["cli.import_ms"] = (import_ms, "ms")
    for command in CLI_COMMANDS:
        m[f"cli.warm_run_ms.{command}"] = (warm[command], "ms")
    m["cli.self_ms"] = (agg["by_module"].get("cli", 0.0) * scale / n_ops, "ms")
    m["trace_overhead_ratio"] = (ops_per_s(records) / ops_per_s(base), "ratio")
    return len(base) + n_ops, failed, m


# ---------------------------------------------------------------- main


def pin_to_one_cpu():
    """Run this process and every child on one CPU, so the calibration loop
    and the work it scales always share a core. Returns that CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sympspec", "__init__.py")):
        print(f"error: no sympspec sources under {src}; run from a checkout root", file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    import sympspec

    if not os.path.abspath(sympspec.__file__).startswith(src + os.sep):
        print(f"error: imported sympspec from {sympspec.__file__}, not {src}", file=sys.stderr)
        return 1
    import workloads

    workdir = os.path.join(root, ".perfbench", f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.build(args.workload, args.seed, root, workdir)
        for path, text in workload.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        env = workloads.cli_env(root)
        meta = metadata(args, root, src, workload)
        meta["pinned_cpu"] = pin_to_one_cpu()
        print("meta " + json.dumps(meta))

        def call(op, i):
            return op.call()

        def traced_call(op, i, tracer):
            if workload.name != "cli_cold":
                return op.call()
            spans = os.path.join(workdir, f"spans{i}.jsonl")
            cmd = [sys.executable, os.path.join(HERE, "tracedcli.py"), spans] + op.argv
            return workloads.run_child(cmd, env, root)

        if args.trace:
            attempted, failed, metrics = per_layer(args, workload, call, traced_call, env, root, workdir)
        else:
            attempted, failed, metrics = end_to_end(args, workload, call, env, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
