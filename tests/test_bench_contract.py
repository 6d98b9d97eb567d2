"""What the benchmark under bench/ uses of relspan, pinned in tier-1.

The benchmark wraps relspan functions by name and builds its inputs through
the dense-rows Matrix constructor, so a deletion or a changed signature would
otherwise break only the benchmark.  A sample of its jobs runs here through
its own job code and must reproduce the digests recorded in
bench/digests.json.  This file only reads bench/.
"""

import importlib
import importlib.util
import json
import os

import pytest

from relspan import GF, QQ
from relspan.linalg import Matrix

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_tracer():
    return _bench_module("tracer")


def test_every_traced_target_resolves():
    for _, modname, attr, _ in _bench_tracer().TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr)), attr


def test_coalg_binds_kernel_basis_sparse():
    from relspan import coalg, linalg

    assert coalg.kernel_basis_sparse is linalg.kernel_basis_sparse


def test_dense_rows_constructor_data_view_and_col_sparse():
    for fld in (QQ, GF(5)):
        rows = [[0, 1, 0], [2, 0, 0], [0, 0, 0], [0, 3, 4]]
        m = Matrix(fld, [r[:] for r in rows], 4, 3)
        assert (m.rows, m.cols) == (4, 3)
        assert m.data == rows
        assert all(type(row) is list for row in m.data)
        assert sum(len(row) - row.count(0) for row in m.data) == 4
        assert m.col_sparse(1) == {0: 1, 3: 3}
        assert m.col_sparse(2) == {3: 4}
        assert m.col_sparse(0) == {1: 2}
        assert Matrix(fld, [r[:] for r in rows], 4, 3).data == m.data


# (workload, which of its seed jobs to run): the first ten of each pullback
# workload and every CLI job on the shipped fixtures.
DIGEST_SAMPLES = (
    ("grouplike_pullback", lambda jobs: jobs[:10]),
    ("dense_pullback", lambda jobs: jobs[:10]),
    ("cli_batch", lambda jobs: [j for j in jobs if j["id"].startswith("fixture:")]),
)


@pytest.mark.parametrize("workload,sample", DIGEST_SAMPLES, ids=[w for w, _ in DIGEST_SAMPLES])
def test_bench_jobs_reproduce_their_recorded_digests(workload, sample, monkeypatch):
    monkeypatch.chdir(os.path.join(BENCH, ".."))
    with open(os.path.join(BENCH, "digests.json")) as fh:
        digests = json.load(fh)
    wl = _bench_module("workloads")
    rs = wl.load_relspan()
    jobs, _ = wl.make_jobs(workload, digests["seed"])
    chosen = sample(jobs)
    assert chosen
    for job in chosen:
        problems, digest = wl.check_job(rs, job, wl.run_job(rs, job))
        assert problems == [], job["id"]
        assert digest == digests[workload][job["id"]], job["id"]
