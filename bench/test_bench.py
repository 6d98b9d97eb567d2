"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_job_list(workload):
    first = workloads.make_jobs(workload, 7)
    assert workloads.make_jobs(workload, 7) == first
    assert workloads.make_jobs(workload, 8) != first
    jobs = first[0]
    assert len({job["id"] for job in jobs}) == len(jobs) >= 100


@pytest.mark.parametrize("workload", ("grouplike_pullback", "dense_pullback"))
def test_seed_changes_data_not_sizes(workload):
    def sizes(seed):
        return sorted((len(j["f"]), len(j["g"]), len(workloads.matching_pairs(j["f"], j["g"])))
                      for j in workloads.make_jobs(workload, seed)[0])

    assert sizes(1) == sizes(2)


def _bindings(orig):
    return [(name, attr) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "relspan" or name.startswith("relspan."))
            for attr, value in vars(mod).items() if value is orig]


def test_install_patches_every_binding_and_remove_restores_them():
    rs = workloads.load_relspan()
    originals = {}
    for prefix, modname, attr, _ in tracer.TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            originals[attr] = getattr(sys.modules[modname], cls_name).__dict__[meth]
        else:
            originals[attr] = getattr(sys.modules[modname], attr)
    # modules import names directly: these are bound in several modules
    assert {"relspan.relpull", "relspan.cli", "relspan.relcat", "relspan.jsonio"} <= {
        name for name, _ in _bindings(originals["relative_pullback"])}
    assert ("relspan.coalg", "kernel_basis_sparse") in _bindings(originals["kernel_basis_sparse"])

    t = tracer.Tracer().install()
    try:
        for attr, orig in originals.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = next(getattr(sys.modules[m], cls_name)
                             for _, m, a, _ in tracer.TARGETS if a == attr)
                assert owner.__dict__[meth].__wrapped__ is orig
            else:
                assert _bindings(orig) == [], attr
        assert rs.cli.relative_pullback.__wrapped__ is originals["relative_pullback"]
    finally:
        t.remove()
    for attr, orig in originals.items():
        if "." not in attr:
            assert _bindings(orig), attr
    assert rs.linalg.Matrix.__dict__["__matmul__"] is originals["Matrix.__matmul__"]
    assert rs.coalg.kernel_basis_sparse is originals["kernel_basis_sparse"]


def _synthetic(spans, book=()):
    """A tracer holding spans given as (name, parent, start, end)."""
    t = tracer.Tracer()
    book = list(book) or [(0.0, 0.0)] * len(spans)
    for (name, parent, start, end), (bo, bc) in zip(spans, book):
        t.span_name.append(t.name_id(name))
        t.span_parent.append(parent)
        t.start.append(start)
        t.end.append(end)
        t.book_open.append(bo)
        t.book_close.append(bc)
    return t


def test_self_time_on_a_synthetic_span_tree():
    t = _synthetic([
        ("job", -1, 0.0, 10.0),
        ("relpull.relative_pullback", 0, 1.0, 9.0),
        ("coalg.pullback", 1, 2.0, 8.0),
        ("linalg.rref", 2, 3.0, 4.0),
        ("linalg.matmul", 2, 5.0, 7.0),
        ("linalg.matmul", 4, 5.5, 6.0),   # nested in a span of the same name
    ])
    assert t.self_times() == [2.0, 2.0, 3.0, 1.0, 1.5, 0.5]
    assert t.nested_in_same() == [False] * 5 + [True]
    metrics, coverage = t.metrics()
    assert metrics["linalg.self_s"] == 3.0
    assert metrics["coalg.self_s"] == 3.0
    assert metrics["relpull.self_s"] == 2.0
    assert metrics["linalg.matmul.calls"] == 2
    assert metrics["linalg.matmul.s"] == 2.0   # inclusive, not counted twice
    assert coverage["job_s"] == 10.0 and coverage["coverage"] == 0.8


def test_bookkeeping_is_kept_off_the_spans():
    # 1 s of tracer bookkeeping happened inside the coalg span, before its child
    t = _synthetic(
        [("job", -1, 0.0, 10.0), ("coalg.equalizer", 0, 1.0, 9.0), ("linalg.kernel", 1, 5.0, 7.0)],
        [(0.0, 1.0), (0.0, 1.0), (1.0, 1.0)],
    )
    assert t.effective() == [9.0, 7.0, 2.0]
    assert t.self_times() == [2.0, 5.0, 2.0]


def test_traced_job_counts_every_layer_it_uses():
    rs = workloads.load_relspan()
    job = {"id": "t", "argv": ["pullback", "fixtures/cospan_finset.json", "--cospan", "cs",
                                "--instance", "coalg", "--field", "Fp:5"], "exit": 0}
    t = tracer.Tracer().install()
    try:
        workloads.run_job(rs, job)          # outside a job span: not recorded
        assert len(t.start) == 0
        span = t.begin_job()
        res = workloads.run_job(rs, job)
        t.end_job(span)
    finally:
        t.remove()
    assert workloads.check_cli(job, res)[0] == []
    metrics, coverage = t.metrics()
    for name in ("cli.main.s", "jsonio.load.calls", "relpull.relative_pullback.calls",
                 "coalg.pullback.calls", "linalg.kron.calls", "finset.linearize_fun.calls",
                 "catcore.legs_in_class.calls", "coalg.delta_column.calls", "jsonio.bytes_in"):
        assert metrics[name] > 0, name
    assert metrics["coalg.class_S.repeat_frac"] > 0
    assert coverage["coverage"] > 0.9


def test_benchmark_json_names_the_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    samples = [("a", 0.5, 0.4, 0.6, True), ("a", 0.7, 0.6, 0.8, True), ("b", 1.0, 0.9, 1.0, True)]
    reported = run.e2e_metrics(samples, 0.25)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in reported.items()}
    assert reported["jobs_per_s"][0] == pytest.approx(2 / 1.6)  # per-job medians 0.6, 1.0
