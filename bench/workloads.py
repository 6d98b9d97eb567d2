"""Job lists of the three benchmark workloads, how to run one job, and how to
check its result.

A job is plain data (lists and ints) drawn from the workload seed.  Running a
job builds every relspan object from that data inside the timed span, because
coalgebras cache their δ columns and reusing objects would time cache hits.
Checking a job (verdicts, oracle, digest) happens outside the timed span.

The seed draws element labels, bases and matrix entries; the sizes and fiber
profiles of the inputs are fixed per workload, so every seed asks for the same
amount of work and runs of different seeds can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
from types import SimpleNamespace

WORKLOADS = ("grouplike_pullback", "dense_pullback", "cli_batch")

# The share of --seconds that one pass over a job list stands for: a run makes
# round(seconds / PASS_SECONDS) passes, at least one.  At 20 seconds that is two
# passes over each pullback list and three over the CLI list, whose one 1.6 s
# job (relcat --instance coalg on the shipped fixtures) needs the median of
# three executions to be steady.  On a 2-core x86 VM (Python 3.11) a pass took
# 6 to 15 s of wall time, with the host's load.
PASS_SECONDS = {"grouplike_pullback": 10.0, "dense_pullback": 10.0, "cli_batch": 6.0}

DENSE_P = 32003
WORK_DIR = ".bench_out/work"   # generated CLI fixtures, relative to the checkout

RELSPAN_MODULES = ("fields", "linalg", "catcore", "coalg", "finset", "monoids",
                   "relpull", "relcat", "jsonio", "cli")


def load_relspan() -> SimpleNamespace:
    """Import relspan and return its modules by short name."""
    importlib.import_module("relspan")
    return SimpleNamespace(**{m: importlib.import_module(f"relspan.{m}") for m in RELSPAN_MODULES})


def purge_relspan():
    """Forget every imported relspan module, so the next import runs again."""
    for name in [n for n in sys.modules if n == "relspan" or n.startswith("relspan.")]:
        del sys.modules[name]


# -- input generation ----------------------------------------------------------


def _fiber_table(rng, fibers):
    """A random function onto len(fibers) points with the given fiber sizes."""
    table = [b for b, size in enumerate(fibers) for _ in range(size)]
    rng.shuffle(table)
    return table


def _relabel(rng, fa, fc):
    """Apply one random permutation of B to both fiber profiles."""
    perm = list(range(len(fa)))
    rng.shuffle(perm)
    return [fa[perm[b]] for b in range(len(fa))], [fc[perm[b]] for b in range(len(fc))]


def matching_pairs(ftab, gtab):
    """The finite-set pullback: lexicographic pairs (a, c) with f(a) = g(c)."""
    return [(a, c) for a in range(len(ftab)) for c in range(len(gtab)) if ftab[a] == gtab[c]]


# |A| = |C| = 10, |B| = 4; apex dimensions 16 to 34, ten jobs of each profile.
GROUPLIKE_PROFILES = (
    ((3, 3, 2, 2), (3, 3, 2, 2)),
    ((4, 3, 2, 1), (4, 3, 2, 1)),
    ((4, 3, 2, 1), (1, 2, 3, 4)),
    ((5, 2, 2, 1), (5, 2, 2, 1)),
    ((3, 3, 3, 1), (2, 2, 3, 3)),
    ((2, 2, 3, 3), (2, 3, 2, 3)),
    ((6, 2, 1, 1), (1, 1, 2, 6)),
    ((4, 4, 1, 1), (4, 4, 1, 1)),
    ((5, 3, 1, 1), (2, 4, 2, 2)),
    ((3, 3, 2, 2), (2, 2, 3, 3)),
)


def grouplike_jobs(seed):
    rng = random.Random(f"grouplike_pullback:{seed}")
    profiles = [(shape, *p) for shape, p in enumerate(GROUPLIKE_PROFILES) for _ in range(10)]
    rng.shuffle(profiles)
    jobs = []
    for k, (shape, fa, fc) in enumerate(profiles):
        fa, fc = _relabel(rng, fa, fc)
        ftab, gtab = _fiber_table(rng, fa), _fiber_table(rng, fc)
        jobs.append({"id": f"g{k:03d}", "kind": "grouplike", "field": "Q", "shape": shape,
                     "nb": len(fa), "f": ftab, "g": gtab})
    return jobs


# Fibers of f and of g over |B| = 2, and how many jobs have them: |A| and |C|
# are the fiber sums, so A⊗C has dimension 8 (34 jobs) or 9 (62 jobs), and 12
# for the slow tail.  Jobs of dimension 9 take about 1.6 times as long as those
# of dimension 8; with these counts the median and the 90th percentile lie
# inside the dimension-9 group, not on the edge between two groups.
DENSE_SHAPES = (
    ((2, 1), (1, 2), 44),
    ((2, 1), (2, 1), 18),
    ((1, 1), (2, 2), 26),
    ((1, 1), (3, 1), 8),
    ((2, 1), (3, 1), 4),
)


def _mat_mul(a, b, p):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def _mat_kron(a, b, p):
    return [[x * y % p for x in ra for y in rb] for ra in a for rb in b]


def _mat_inverse(m, p):
    """Inverse mod p, or None when m is singular."""
    n = len(m)
    aug = [row[:] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                fct = aug[i][c]
                aug[i] = [(x - fct * y) % p for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _random_basis(rng, n, p):
    while True:
        m = [[rng.randrange(1, p) for _ in range(n)] for _ in range(n)]
        inv = _mat_inverse(m, p)
        if inv is not None:
            return m, inv


def _rebased_grouplike(rng, n, p):
    """k[X] with |X| = n re-expressed in a random basis P:
    δ' = (P⁻¹⊗P⁻¹)∘δ∘P and ε' = ε∘P.  Returns (δ', ε', P, P⁻¹)."""
    delta = [[int(i == x * n + x) for x in range(n)] for i in range(n * n)]
    pm, pinv = _random_basis(rng, n, p)
    return (_mat_mul(_mat_mul(_mat_kron(pinv, pinv, p), delta, p), pm, p),
            _mat_mul([[1] * n], pm, p), pm, pinv)


def _linearized(table, ncod):
    out = [[0] * len(table) for _ in range(ncod)]
    for x, y in enumerate(table):
        out[y][x] = 1
    return out


def dense_jobs(seed):
    rng = random.Random(f"dense_pullback:{seed}")
    shapes = [(shape, fa, fc) for shape, (fa, fc, count) in enumerate(DENSE_SHAPES)
              for _ in range(count)]
    rng.shuffle(shapes)
    p = DENSE_P
    jobs = []
    for k, (shape, fa, fc) in enumerate(shapes):
        fa, fc = _relabel(rng, list(fa), list(fc))
        ftab, gtab = _fiber_table(rng, fa), _fiber_table(rng, fc)
        na, nb, nc = len(ftab), len(fa), len(gtab)
        da, ea, pa, _ = _rebased_grouplike(rng, na, p)
        db, eb, _, pbinv = _rebased_grouplike(rng, nb, p)
        dc, ec, pc, _ = _rebased_grouplike(rng, nc, p)
        fmat = _mat_mul(_mat_mul(pbinv, _linearized(ftab, nb), p), pa, p)
        gmat = _mat_mul(_mat_mul(pbinv, _linearized(gtab, nb), p), pc, p)
        jobs.append({"id": f"d{k:03d}", "kind": "dense", "field": p, "shape": shape,
                     "f": ftab, "g": gtab,
                     "A": [da, ea], "B": [db, eb], "C": [dc, ec], "fmat": fmat, "gmat": gmat})
    return jobs


# Shipped fixtures and the README commands: (argv, expected exit code).
FIXTURE_COMMANDS = (
    ("check fixtures/coalgebras.json", 1),
    ("pullback fixtures/cospan_coalg.json --cospan cs --compare-cotensor", 0),
    ("pullback fixtures/cospan_finset.json --cospan cs --instance coalg --field Fp:5", 0),
    ("cotensor fixtures/cospan_coalg.json --cospan cs", 0),
    ("coherence fixtures/chains.json --name pent --shape pentagon --instance coalg", 0),
    ("relcat fixtures/relcats.json --instance coalg", 0),
    ("functor fixtures/relcats.json --src poset01 --tgt discrete3 --map collapse", 0),
    ("monoid fixtures/monoids.json --name kc2", 0),
    ("relcat fixtures/relcat_violations.json", 1),
    ("monoid fixtures/monoids.json --name bad_z2", 1),
    ("functor fixtures/relcats.json --src poset01 --tgt discrete3 --map bad_functor", 2),
)

CLI_CATS = f"{WORK_DIR}/cli_cats.json"
CLI_CHAINS = f"{WORK_DIR}/cli_chains.json"
CLI_CORE = f"{WORK_DIR}/cli_core.json"

# One-object categories of these groups, elements relabelled by the seed:
# (name, multiplication on 0..n-1, copies per list).
CLI_GROUPS = (
    ("c3", lambda i, j: (i + j) % 3, 3, 8),
    ("c4", lambda i, j: (i + j) % 4, 4, 2),
    ("v4", lambda i, j: i ^ j, 4, 1),
)

# Pentagon chains A→B←C→D←E→F←G: object sizes and, per map, the fibers over
# its codomain.  Even maps point right, odd maps left.
CLI_PENTAGONS = (
    ((2, 2, 3, 2, 3, 2, 2), ((1, 1), (2, 1), (2, 1), (2, 1), (2, 1), (1, 1)), 10),
    ((3, 2, 3, 2, 3, 2, 3), ((2, 1), (2, 1), (2, 1), (2, 1), (2, 1), (2, 1)), 10),
)


def _relabelled_group(rng, mul, n):
    """Multiplication table and unit of a group with its elements relabelled."""
    perm = list(range(n))
    rng.shuffle(perm)
    inv = {v: k for k, v in enumerate(perm)}
    table = [[perm[mul(inv[i], inv[j])] for j in range(n)] for i in range(n)]
    return table, perm[0]


def _one_object_category(table, unit):
    m = len(table)
    return {"kind": "small_category", "objects": 1, "arrows": m, "src": [0] * m,
            "tgt": [0] * m, "id": [unit], "comp": table}


def cli_jobs(seed):
    """The fixed command list plus generated categories, chains, cospans and
    monoids.  About two thirds of the jobs are parse-bound."""
    rng = random.Random(f"cli_batch:{seed}")
    cats, chains, core = {}, {}, {}
    jobs = [{"id": f"fixture:{cmd}", "argv": cmd.split(), "exit": code}
            for cmd, code in FIXTURE_COMMANDS]

    def gen(name, argv, code):
        jobs.append({"id": name, "argv": argv, "exit": code})

    for gname, mul, n, copies in CLI_GROUPS:
        for k in range(copies):
            table, unit = _relabelled_group(rng, mul, n)
            name = f"{gname}_{k}"
            cats[name] = _one_object_category(table, unit)
            gen(f"relcat:{name}:coalg", ["relcat", CLI_CATS, "--name", name, "--instance", "coalg"], 0)
            gen(f"relcat:{name}", ["relcat", CLI_CATS, "--name", name], 0)
            gen(f"check:{name}", ["check", CLI_CATS, "--name", name], 0)
    for idx, (sizes, fibers, copies) in enumerate(CLI_PENTAGONS):
        for k in range(copies):
            name = f"pent{idx}_{k}"
            maps = [_fiber_table(rng, list(fib)) for fib in fibers]
            chains[name] = {"kind": "chain", "instance": "finset", "sizes": list(sizes), "maps": maps}
            gen(f"pentagon:{name}", ["coherence", CLI_CHAINS, "--name", name,
                                     "--shape", "pentagon", "--instance", "coalg"], 0)
            tri = f"tri{idx}_{k}"
            chains[tri] = {"kind": "chain", "instance": "finset", "sizes": list(sizes[:3]),
                           "maps": maps[:2]}
            gen(f"triangle:{tri}", ["coherence", CLI_CHAINS, "--name", tri, "--shape", "triangle"], 0)
    for k in range(6):
        fa, fc = _relabel(rng, [2, 1, 1], [1, 2, 1])
        core[f"f{k}"] = {"kind": "finset_fun", "fun": {"dom": 4, "cod": 3, "table": _fiber_table(rng, fa)}}
        core[f"g{k}"] = {"kind": "finset_fun", "fun": {"dom": 4, "cod": 3, "table": _fiber_table(rng, fc)}}
        core[f"cs{k}"] = {"kind": "cospan", "left": f"f{k}", "right": f"g{k}"}
        gen(f"pullback:cs{k}", ["pullback", CLI_CORE, "--cospan", f"cs{k}"], 0)
        gen(f"cotensor:cs{k}", ["cotensor", CLI_CORE, "--cospan", f"cs{k}", "--field", "Fp:5"], 0)
    for k in range(4):
        table, unit = _relabelled_group(rng, lambda i, j: (i + j) % 3, 3)
        good, bad = f"mon{k}", f"bad_mon{k}"
        core[good] = {"kind": "finset_monoid", "size": 3, "table": sum(table, []), "unit": unit}
        broken = sum(table, [])
        x = rng.choice([v for v in range(3) if v != unit])
        broken[unit * 3 + x] = unit  # unit * x != x: the unit law fails
        core[bad] = {"kind": "finset_monoid", "size": 3, "table": broken, "unit": unit}
        gen(f"monoid:{good}", ["monoid", CLI_CORE, "--name", good], 0)
        gen(f"monoid:{bad}", ["monoid", CLI_CORE, "--name", bad], 1)
    rng.shuffle(jobs)
    return jobs, {CLI_CATS: cats, CLI_CHAINS: chains, CLI_CORE: core}


def make_jobs(workload, seed):
    """The job list and the fixture files ({path: document}) of one workload."""
    if workload == "grouplike_pullback":
        return grouplike_jobs(seed), {}
    if workload == "dense_pullback":
        return dense_jobs(seed), {}
    if workload == "cli_batch":
        return cli_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_job(jobs):
    """A job whose size does not depend on the seed: the first of the first
    profile or shape, or for the CLI the first job by name."""
    return min(jobs, key=lambda job: (job.get("shape", 0), job["id"]))


def write_fixtures(files):
    for path, doc in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


# -- running a job -------------------------------------------------------------


def _build_pullback_cospan(rs, job):
    """The linearized cospan of a job, built from its plain data."""
    if job["kind"] == "grouplike":
        fld = rs.fields.QQ
        fs = rs.finset
        nb = fs.FinSetObj(job["nb"])
        f = fs.FinFun(fs.FinSetObj(len(job["f"])), nb, job["f"])
        g = fs.FinFun(fs.FinSetObj(len(job["g"])), nb, job["g"])
        return fld, fs.linearize_fun(f, fld), fs.linearize_fun(g, fld)
    fld = rs.fields.GF(job["field"])
    Matrix = rs.linalg.Matrix

    def coalgebra(delta, eps):
        n = len(eps[0])
        return rs.coalg.Coalgebra(n, fld, delta=Matrix(fld, [r[:] for r in delta], n * n, n),
                                  epsilon=Matrix(fld, [r[:] for r in eps], 1, n))

    a, b, c = coalgebra(*job["A"]), coalgebra(*job["B"]), coalgebra(*job["C"])
    f = rs.coalg.CoalgMap(a, b, Matrix(fld, [r[:] for r in job["fmat"]], b.dim, a.dim))
    g = rs.coalg.CoalgMap(c, b, Matrix(fld, [r[:] for r in job["gmat"]], b.dim, c.dim))
    return fld, f, g


def run_pullback(rs, job):
    """What `relspan pullback --instance coalg --compare-cotensor` computes."""
    fld, f, g = _build_pullback_cospan(rs, job)
    base = rs.coalg.CoalgCategory(fld)
    pb = rs.relpull.relative_pullback(base, f, g)
    square = base.equal_mor(base.compose(pb.f, pb.p_a), base.compose(pb.g, pb.p_c))
    apex_report = rs.coalg.check_coalgebra(pb.apex)
    h = rs.relpull.universal_factor(pb, pb.p_a, pb.p_c)
    filler_is_identity = h.mat == base.identity(pb.apex).mat
    compare = rs.coalg.compare_cotensor_pullback(pb.f, pb.g)
    return {"pb": pb, "square": square, "apex_report": apex_report,
            "filler_is_identity": filler_is_identity, "compare": compare}


def run_cli(rs, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rs.cli.main(list(job["argv"]))
    return {"exit": code, "stdout": out.getvalue()}


def run_job(rs, job):
    return run_cli(rs, job) if "argv" in job else run_pullback(rs, job)


# -- checking a result -----------------------------------------------------------


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_pullback(rs, job, res):
    """Problems with a pullback result (empty when correct) and its digest."""
    pb = res["pb"]
    problems = [name for name in ("square", "filler_is_identity") if not res[name]]
    if not pb.jointly_monic:
        problems.append("joint-mono certificate")
    for name in ("apex_report", "compare"):
        if not res[name].ok:
            problems.append(f"{name}: {[c.name for c in res[name].failures()]}")
    pairs = matching_pairs(job["f"], job["g"])
    if pb.apex.dim != len(pairs):
        problems.append(f"apex dimension {pb.apex.dim}, oracle {len(pairs)}")
    elif job["kind"] == "grouplike":
        nc = len(job["g"])
        one = rs.fields.QQ.one
        j = pb.payload.j.mat
        if any(j.col_sparse(k) != {a * nc + c: one} for k, (a, c) in enumerate(pairs)):
            problems.append("apex basis is not the matching-pair basis")
    to_json = rs.jsonio.matrix_to_json
    digest = _sha256(json.dumps({"delta": to_json(pb.apex.delta), "epsilon": to_json(pb.apex.epsilon)},
                                sort_keys=True, separators=(",", ":")))
    return problems, digest


def check_cli(job, res):
    problems = []
    try:
        payload = json.loads(res["stdout"])
    except json.JSONDecodeError:
        payload = None
        problems.append("stdout is not one JSON document")
    expected = job["exit"]
    if res["exit"] != expected:
        problems.append(f"exit {res['exit']}, expected {expected}")
    if payload is not None and payload.get("exit") != res["exit"]:
        problems.append("reported exit differs from the return code")
    return problems, _sha256(res["stdout"])


def check_job(rs, job, res):
    return check_cli(job, res) if "argv" in job else check_pullback(rs, job, res)
