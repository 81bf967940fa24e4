"""Tests of the benchmark itself: inputs, tracing and the untraced path.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import os

import numpy as np
import pytest

import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _one_round(name, seed, tmp_path):
    return workloads.build(name, seed, ROOT, str(tmp_path), n_rounds=1)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_input_hash(name, tmp_path):
    a = _one_round(name, 7, tmp_path)
    b = _one_round(name, 7, tmp_path)
    c = _one_round(name, 8, tmp_path)
    assert a.input_digest == b.input_digest
    assert a.input_digest != c.input_digest
    assert a.files == b.files


def _traced(ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            op.call()
    finally:
        tracer.uninstall()
    return tracing.summarize(tracer.spans)


def test_traced_counts_match_the_algebra(tmp_path):
    # Five Jacobi solves per williamson: M itself, the doubled 2x embedding,
    # and three operator-norm residuals; three per symplectic_spectrum.
    ops = [op for op in _one_round("factorize", 3, tmp_path).rounds[0] if op.dim <= 8]
    agg = _traced(ops)
    will = agg["by_name"]["symplectic.williamson"]
    assert will["calls"] == len(ops)
    assert will["sym_eig_below"] == 5 * len(ops)
    for i, op in enumerate(ops):
        assert agg["max_dim_by_op"][i] == 2 * op.dim

    m = np.diag([2.0, 3.0, 5.0, 7.0])
    agg = _traced([workloads.Op("spectrum", 4, lambda: workloads.symplectic.symplectic_spectrum(m), None)])
    spec = agg["by_name"]["symplectic.symplectic_spectrum"]
    assert (spec["calls"], spec["sym_eig_below"]) == (1, 3)


def test_install_wraps_every_binding_and_uninstall_restores():
    import sympspec
    from sympspec import densemat, perturb, symplectic

    original = densemat.sym_eig
    tracer = tracing.Tracer()
    tracer.install()
    try:
        names = set(tracing.installed_wrappers())
        for where in ("sympspec.densemat", "sympspec.symplectic", "sympspec.perturb", "sympspec"):
            assert f"{where}.sym_eig" in names
        assert symplectic.sym_eig is densemat.sym_eig is perturb.sym_eig is sympspec.sym_eig
        assert densemat.sym_eig is not original
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert densemat.sym_eig is original


def test_self_time_excludes_children():
    spans = [
        ["a.f", 0.0, 10.0, -1, 0, 0],
        ["b.g", 1.0, 4.0, 0, 0, 0],
        ["b.h", 5.0, 9.0, 0, 0, 0],
        ["c.k", 6.0, 7.0, 2, 0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert tracing.subtree_counts(spans, "c.k") == [1, 0, 1, 0]


def test_untraced_run_has_no_wrappers(tmp_path):
    seen = []

    def probe(op, i):
        seen.append(tracing.installed_wrappers())
        return op.call()

    workload = _one_round("checkers", 5, tmp_path)
    records, _ = run.run_loop(workload, 0.0, probe)
    assert len(seen) == len(records) == len(workload.rounds[0])
    assert all(names == [] for names in seen)
    assert run.check_records(records) == 0

    # The probe does see wrappers when a tracer is installed.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_loop(workload, 0.0, probe, tracer)
    finally:
        tracer.uninstall()
    assert seen[-1]


def test_failed_checks_are_counted(tmp_path):
    ops = _one_round("factorize", 4, tmp_path).rounds[0][:3]

    def broken(op, i):
        if i == 1:
            raise TypeError("not a library error")
        out = op.call()
        return out if i == 0 else None

    records, _ = run.run_loop(workloads.Workload("t", [ops], ""), 0.0, broken)
    # op 1 raised a non-library exception; op 2 returned None and its check crashed
    assert run.check_records(records) == 2
    assert [rec.rel_error is not None for rec in records] == [True, False, False]


def test_counterexample_oracle_matches_library_scan():
    from sympspec import perturb

    for eps, c in [(0.05, 1.0), (0.01, 3.0), (1e-3, 10.0), workloads.CAP_HITTING]:
        rep = perturb.counterexample_scaling(50.0, eps, c)
        assert rep.details["x0"] == workloads.counterexample_x0_oracle(eps, c)


def test_benchmark_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "factorize", "--seed", "1", "--seconds", "1"]) == 1
    assert not os.path.exists(tmp_path / ".perfbench")


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, monkeypatch, capsys):
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    monkeypatch.chdir(ROOT)
    argv = ["--workload", "factorize", "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
