"""Tests of the benchmark itself: tracer hygiene, determinism, output format.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _gkm_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "gkm" or n.startswith("gkm."))]


def _patched_owners():
    owners = list(_gkm_modules())
    for _, module, cls, _ in tracing.METHODS:
        owners.append(vars(sys.modules[module])[cls])
    owners.append(Fraction)
    return owners


def _snapshot():
    return {(id(owner), key): value
            for owner in _patched_owners() for key, value in vars(owner).items()}


@pytest.fixture(scope="module")
def cases():
    """Two cases of each workload: the first orientation of cp3-k4 and of the
    type (d) instance tol-d, which carry the document covectors."""
    cwd = os.getcwd()
    os.chdir(ROOT)  # the recorded report outputs name documents relative to it
    try:
        out = {}
        for name, workload in workloads.WORKLOADS.items():
            all_cases = workload.setup(SEED, run.WORKDIR)
            out[name] = [next(c for c in all_cases if c.label.startswith(f"{inst}@"))
                         for inst in ("cp3-k4", "tol-d")]
        yield out
    finally:
        os.chdir(cwd)


def test_uninstall_restores_every_patched_attribute():
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _snapshot()
        changed = {key for key in before if during[key] is not before[key]}
        assert vars(sys.modules["gkm.lefschetz"])["thom_class"] is not before[
            (id(sys.modules["gkm.lefschetz"]), "thom_class")]
        # Functions are replaced in every namespace that binds them, class
        # attributes together with their aliases.
        for name in ("thom_class", "integrate", "check_low_degree_vanishing"):
            assert (id(sys.modules["gkm.lefschetz"]), name) in changed
        for name in ("euler_class", "congruent_mod_linear"):
            assert (id(sys.modules["gkm.cohomology"]), name) in changed
        for cls_name, module in (("Polynomial", "gkm.polynomial"),
                                 ("CohomologyElement", "gkm.cohomology")):
            cls = vars(sys.modules[module])[cls_name]
            assert cls.__mul__ is cls.__rmul__ is not before[(id(cls), "__mul__")]
        assert (id(Fraction), "__new__") in changed
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_op_output_equals_untraced(name, cases):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    for op_id, case in enumerate(cases[name]):
        plain = workload.op(case)
        with tracer.installed(), tracer.op(op_id):
            traced = workload.op(case)
        workload.check(case, traced)
        if name == "thom":  # the fresh orientations differ; the classes must not
            plain, traced = plain[1:], traced[1:]
        assert traced == plain
    assert tracer.spans


def _per_op_counts(name, cases):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    with tracer.installed():
        for op_id, case in enumerate(cases):
            with tracer.op(op_id):
                workload.op(case)
    return [({span: t["calls"] for span, t in tracer.totals([op_id]).items()},
             tracer.op_counts[op_id]) for op_id in range(len(cases))]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_per_op_counts_repeat_and_show_the_known_structure(name, cases):
    first = _per_op_counts(name, cases[name])
    assert first == _per_op_counts(name, cases[name])
    for case, (calls, _) in zip(cases[name], first):
        if name == "report":
            assert calls["lefschetz.coefficient_pairs"] == 3
            mixed = 3 if case.label.startswith("tol-d@") else 2
            assert calls["lefschetz.mixed_hr2_matrix"] == mixed
        if name == "pairing":
            assert "linalg.solve" not in calls
            assert "cohomology.thom_class" not in calls
        if name == "thom":
            assert "localization.integrate" not in calls
            assert calls["linalg.solve"] == calls["cohomology.thom_class"]


def test_one_seed_gives_the_same_inputs_and_two_seeds_differ():
    assert workloads.draw_covectors(1) == workloads.draw_covectors(1)
    assert workloads.draw_matrices(1) == workloads.draw_matrices(1)
    assert workloads.draw_covectors(1) != workloads.draw_covectors(2)
    assert workloads.draw_matrices(1) != workloads.draw_matrices(2)


def test_transform_keeps_every_edge_orientation():
    from gkm.corpus import corpus

    inst = corpus("flag-su3")
    for _, matrix in workloads.draw_matrices(SEED)[:3]:
        graph, xi = workloads.transform(inst.graph, inst.xi, matrix)
        for before, after in zip(inst.graph.edges, graph.edges):
            assert (before.weight.dot(inst.xi) > 0) == (after.weight.dot(xi) > 0)


def _result(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_lists_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code, lines = _result(["--workload", "thom", "--seed", str(SEED), "--seconds", "0",
                           "--trace", str(trace)], ROOT)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_exits_nonzero_without_the_program():
    bare = ROOT / run.WORKDIR / "bare"  # holds only the benchmark's own files
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _result(["--workload", "report", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], bare)
    assert code != 0
    assert not lines
