"""Seeded job lists for the four benchmark workloads.

A job list is plain data: field descriptors, JSON map specs, Sampled seeds,
trace inputs and CLI argv.  The program under test only ever sees these.
The seed picks the irreducible modulus of each extension field, the random
linear and perturbed-linear maps, the sampled-check seeds, the trace inputs
and the job order; it never changes how much work a rung does, so runs
with different seeds measure the same ladder.

Why each workload exists (also recorded in BENCHMARK.json):

orbit_search   the few-partition rungs spend their time in search's
               per-candidate loop, the small and many-partition ones in
               building tables and re-verifying in fields and spaces.
table_scan     the same search layer used another way: every raw table is
               visited, plus over-limit requests that today build index
               tables before the guard refuses them.
checker_sweep  search never runs; finite-field checks spend most of their
               time in fields' tuple polynomial arithmetic and the Q(sqrt 2)
               checks in Fraction arithmetic.
cli_session    the only workload that pays interpreter start and import, and
               the only one that uses the process pool.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from oracle import Space, field_from_descriptor, irreducibles

WORKLOADS = ("orbit_search", "table_scan", "checker_sweep", "cli_session")

QSQRT2 = "Qext:-2,0,1"
QCBRT2 = "Qext:-2,0,0,1"


def _ext(rng, p, d):
    """Descriptor of GF(p^d) with a seed-chosen irreducible modulus."""
    modulus = rng.choice(irreducibles(p, d))
    return f"Fq:{p}:" + ",".join(str(c) for c in modulus)


def _field(desc):
    return field_from_descriptor(desc)


# ---------------------------------------------------------------------------
# orbit_search: search_homogeneous_nonadditive at jobs=1
# ---------------------------------------------------------------------------

def orbit_search(rng):
    gf4 = "Fq:2:1,1,1"
    gf8, gf9 = _ext(rng, 2, 3), _ext(rng, 3, 2)
    both = ("count_only", "first_witness")
    rungs = []
    for f in ("Fp:2", "Fp:3", "Fp:5", "Fp:7", gf4, gf8, gf9):
        rungs += [(f, 1, 1, mode) for mode in both]
    for f in ("Fp:2", "Fp:3", "Fp:5"):
        rungs.append((f, 1, 2, "count_only"))
    rungs += [(gf4, 1, 2, "first_witness"), ("Fp:2", 1, 3, "count_only"),
              ("Fp:3", 1, 3, "count_only"), ("Fp:2", 2, 3, "count_only")]
    for f, du, dv in (("Fp:2", 2, 1), ("Fp:2", 3, 1), ("Fp:3", 2, 1)):
        rungs += [(f, du, dv, mode) for mode in both + ("enumerate_all",)]
    for f, du, dv in (("Fp:2", 2, 2), (gf4, 2, 1), ("Fp:5", 2, 1), ("Fp:2", 4, 1)):
        rungs += [(f, du, dv, mode) for mode in both]
    # No rung runs for seconds: run.py normalizes each job by the host speed
    # measured just before and after it, which fits short jobs best.
    rungs += [("Fp:3", 2, 2, "count_only"), ("Fp:2", 3, 2, "count_only"),
              ("Fp:2", 2, 5, "count_only")]
    jobs = [{"kind": "search", "field": f, "du": du, "dv": dv, "mode": mode}
            for f, du, dv, mode in rungs]
    return jobs, {}


# ---------------------------------------------------------------------------
# table_scan: scan_additive_tables and verify_theorem1_prime
# ---------------------------------------------------------------------------

def table_scan(rng):
    jobs = []

    def add(engine, field, du, dv, expect="ok"):
        jobs.append({"kind": "scan", "engine": engine, "field": field,
                     "du": du, "dv": dv, "expect": expect})

    # criterion-4 prime ladder
    for p, du, dv in ((2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 1, 3),
                      (2, 3, 1), (2, 2, 3), (2, 3, 2), (2, 1, 4), (2, 4, 1),
                      (2, 2, 4), (3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 1, 3),
                      (5, 1, 1), (7, 1, 1)):
        add("verify", f"Fp:{p}", du, dv)
    # extension contrast: additive tables that are not homogeneous
    gf4, gf8 = "Fq:2:1,1,1", _ext(rng, 2, 3)
    add("scan", gf4, 1, 1)
    add("scan", gf4, 1, 2)
    # the prime-case verifier refuses extension fields
    add("verify", gf4, 1, 1, "NotPrimeField")
    add("verify", _ext(rng, 3, 2), 1, 2, "NotPrimeField")
    # over-limit requests that must be refused
    for p, du, dv in ((7, 3, 1), (3, 3, 1), (2, 4, 2), (5, 2, 1), (11, 1, 1),
                      (13, 2, 1), (2, 5, 1), (3, 2, 2), (17, 1, 1)):
        add("verify", f"Fp:{p}", du, dv, "SearchSpaceTooLarge")
    for field, du, dv in ((gf4, 2, 1), (gf8, 1, 2), (_ext(rng, 3, 2), 1, 1),
                          (_ext(rng, 2, 4), 1, 1), (_ext(rng, 2, 4), 2, 1),
                          (_ext(rng, 5, 2), 1, 1), (_ext(rng, 3, 3), 1, 1),
                          (_ext(rng, 2, 5), 1, 1), (_ext(rng, 2, 6), 1, 1),
                          (_ext(rng, 2, 7), 1, 1)):
        add("scan", field, du, dv, "SearchSpaceTooLarge")
    return jobs, {}


# ---------------------------------------------------------------------------
# checker_sweep: check_additive / check_homogeneous / check_linear, traces
# ---------------------------------------------------------------------------

def _spec(field, du, dv, body):
    return {"field": field, "domain_dim": du, "codomain_dim": dv, "map": body}


def _linear_table(rng, desc, du, dv, orbit=False, perturb=False):
    """A random linear map F^du -> F^dv as a table or orbit-table spec,
    optionally with one nonzero input's value changed."""
    f = _field(desc)
    dom, cod = Space(f, du), Space(f, dv)
    mat = [[rng.randrange(f.q) for _ in range(du)] for _ in range(dv)]

    def image(v):
        out = []
        for row in mat:
            acc = f.zero
            for a, x in zip(row, v):
                acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return tuple(out)

    if orbit:
        inputs = [v for v in dom.vectors()
                  if next((c for c in v if c != f.zero), None) == f.one]
    else:
        inputs = list(dom.vectors())
    values = [image(v) for v in inputs]
    if perturb:
        i = rng.randrange(1 - orbit, len(inputs))
        choices = [w for w in cod.vectors() if w != values[i]]
        values[i] = rng.choice(choices)
    pairs = [[dom.fmt(v), cod.fmt(w)] for v, w in zip(inputs, values)]
    body = ({"kind": "orbit_table", "values": pairs} if orbit
            else {"kind": "table", "entries": pairs})
    return _spec(desc, du, dv, body)


def _power(desc, k):
    """The encoded element x^k (k < degree) of an extension field."""
    d = _field(desc).d
    return "[" + ",".join("1" if i == k else "0" for i in range(d)) + "]"


def _thm1(desc):
    """The theorem-1 map: every power-basis vector goes to the generator."""
    return _spec(desc, 1, 1, {"kind": "klinear_extension",
                              "basis_images": [_power(desc, 1)] * _field(desc).d})


def _known_thm1_witness(desc):
    """Criterion 3: lam = generator, u = 1 is the first homogeneity failure."""
    return [_power(desc, 1), f"({_power(desc, 0)})"]


def _rand_q(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def checker_sweep(rng):
    maps, jobs = {}, []
    ex = "exhaustive"

    def check(key, prop, truth, strategy=ex, inputs=None):
        expect = {"truth": truth}
        if inputs is not None:
            expect["inputs"] = inputs
        jobs.append({"kind": "check", "map": key, "property": prop,
                     "strategy": strategy, "expect": expect})

    def sampled(samples):
        return {"seed": rng.randrange(1, 10**6), "samples": samples}

    # theorem 1: additive, not homogeneous, over GF(64) and GF(81)
    for key, (p, d) in (("thm1_gf64", (2, 6)), ("thm1_gf81", (3, 4))):
        desc = _ext(rng, p, d)
        maps[key] = _thm1(desc)
        check(key, "additive", "holds")
        check(key, "homogeneous", "violated", inputs=_known_thm1_witness(desc))
    # ratio map: homogeneous, not additive
    for key, desc in (("ratio_z23", "Fp:23"), ("ratio_gf25", _ext(rng, 5, 2))):
        maps[key] = _spec(desc, 2, 1, {"kind": "ratio"})
        check(key, "additive", "violated")
        check(key, "homogeneous", "holds")
        check(key, "linear", "violated")
    maps["indicator"] = _spec("Fp:2", 2, 1, {"kind": "indicator"})
    check("indicator", "additive", "violated", inputs=["(0,1)", "(1,0)"])
    check("indicator", "homogeneous", "holds")
    check("indicator", "linear", "violated")
    # seeded random linear maps and one-entry perturbations of them
    gf4, gf8, gf9 = "Fq:2:1,1,1", _ext(rng, 2, 3), _ext(rng, 3, 2)
    for desc, du, dv in ((gf8, 2, 1), (gf9, 2, 1), ("Fp:7", 2, 2),
                         ("Fp:5", 3, 1), (gf4, 2, 2)):
        tag = f"{desc}_{du}{dv}"
        maps["lin_" + tag] = _linear_table(rng, desc, du, dv)
        maps["bad_" + tag] = _linear_table(rng, desc, du, dv, perturb=True)
        check("lin_" + tag, "additive", "holds")
        check("lin_" + tag, "homogeneous", "holds")
        if du * dv < 3:
            check("lin_" + tag, "linear", "holds")
        q = _field(desc).q
        check("bad_" + tag, "additive", "violated")
        check("bad_" + tag, "homogeneous", "violated" if q > 2 else "holds")
    for desc, du, dv in ((gf8, 2, 1), ("Fp:5", 2, 2)):
        tag = f"{desc}_{du}{dv}"
        maps["olin_" + tag] = _linear_table(rng, desc, du, dv, orbit=True)
        maps["obad_" + tag] = _linear_table(rng, desc, du, dv, orbit=True,
                                            perturb=True)
        check("olin_" + tag, "additive" if desc == gf8 else "linear", "holds")
        check("obad_" + tag, "additive", "violated")
        check("obad_" + tag, "homogeneous", "holds")
    # sampled checks over Q, Q(sqrt 2), Q(cbrt 2)
    for key, desc in (("ratio_q", "Q"), ("ratio_qs2", QSQRT2),
                      ("ratio_qc2", QCBRT2)):
        maps[key] = _spec(desc, 2, 1, {"kind": "ratio"})
        check(key, "additive", "violated", sampled(200),
              inputs=["(1,0)", "(0,1)"] if desc == "Q" else None)
        check(key, "homogeneous", "holds", sampled(200))
        check(key, "linear", "violated", sampled(200))
    for key, desc in (("thm1_qs2", QSQRT2), ("thm1_qc2", QCBRT2)):
        maps[key] = _thm1(desc)
        check(key, "additive", "holds", sampled(200))
        check(key, "homogeneous", "violated", sampled(200),
              inputs=_known_thm1_witness(desc))
    # rational proof traces
    for key in ("ratio_q", "ratio_q", "ratio_qs2", "thm1_qs2", "thm1_qc2"):
        f = _field(maps[key]["field"])
        coord = (lambda: str(_rand_q(rng))) if f.d == 1 else (
            lambda: "[" + ",".join(str(_rand_q(rng)) for _ in range(f.d)) + "]")
        x = "(" + ",".join(coord() for _ in range(maps[key]["domain_dim"])) + ")"
        m = rng.choice([k for k in range(-9, 10) if k])
        jobs.append({"kind": "trace", "map": key, "m": m,
                     "n": rng.randint(1, 9), "x": x})
    return jobs, maps


# ---------------------------------------------------------------------------
# cli_session: addhom subprocesses, as a user's script runs them
# ---------------------------------------------------------------------------

def cli_session(rng):
    jobs, files = [], {}

    def run(argv, exit_code, expect=None, known_defect=None, **extra):
        job = {"kind": "cli", "argv": argv, "exit": exit_code,
               "expect": expect or {}}
        if known_defect:
            job["known_defect"] = known_defect
        job.update(extra)
        jobs.append(job)

    ratio_q = _spec("Q", 2, 1, {"kind": "ratio"})
    run(["counterexample", "ratio", "--out", "ratio_q.json"], 0,
        {"wrote": "ratio_q.json", "spec": ratio_q})
    run(["check", "--input", "ratio_q.json", "--property", "additive"], 1,
        {"check_text": "ratio_q.json"})
    run(["check", "--input", "ratio_q.json", "--property", "additive",
         "--format", "json"], 1, {"check_json": "ratio_q.json"})
    seed = rng.randrange(1, 10**6)
    run(["check", "--input", "ratio_q.json", "--property", "homogeneous",
         "--strategy", "sampled", "--seed", str(seed), "--samples", "200",
         "--format", "json"], 0,
        {"check_json": "ratio_q.json", "sampled": {"seed": seed, "samples": 200}})
    for fmt in ("text", "json"):
        x = f"({_rand_q(rng)},{_rand_q(rng)})"
        m, n = rng.choice([k for k in range(-9, 10) if k]), rng.randint(2, 9)
        run(["trace", "--input", "ratio_q.json", "--m", str(m), "--n", str(n),
             "--x", x, "--format", fmt], None,
            {"trace": "ratio_q.json", "m": m, "n": n, "x": x, "format": fmt})
    thm1 = _ext(rng, *rng.choice([(2, 3), (3, 2), (2, 4), (5, 2)]))
    run(["counterexample", "theorem1", "--field", thm1, "--out", "thm1.json"], 0,
        {"wrote": "thm1.json", "spec": _thm1(thm1)})
    run(["check", "--input", "thm1.json", "--property", "homogeneous",
         "--format", "json"], 1, {"check_json": "thm1.json"})
    run(["check", "--input", "thm1.json", "--property", "additive"], 0,
        {"check_text": "thm1.json"})
    run(["check", "--input", "thm1.json", "--property", "linear", "--format",
         "json"], 1, {"check_json": "thm1.json"})
    run(["counterexample", "char2-indicator", "--out", "ind.json"], 0,
        {"wrote": "ind.json", "spec": _spec("Fp:2", 2, 1, {"kind": "indicator"})})
    run(["check", "--input", "ind.json", "--property", "linear", "--format",
         "json"], 1, {"check_json": "ind.json"})
    run(["check", "--input", "ind.json", "--property", "homogeneous"], 0,
        {"check_text": "ind.json"})
    prime = rng.choice([5, 7, 11, 13])
    ratio_p = _spec(f"Fp:{prime}", 2, 1, {"kind": "ratio"})
    run(["counterexample", "ratio", "--field", f"Fp:{prime}", "--out",
         "ratio_p.json"], 0, {"wrote": "ratio_p.json", "spec": ratio_p})
    run(["check", "--input", "ratio_p.json", "--property", "homogeneous",
         "--format", "json"], 0, {"check_json": "ratio_p.json"})
    run(["check", "--input", "ratio_p.json", "--property", "additive"], 1,
        {"check_text": "ratio_p.json"})
    run(["check", "--input", "ratio_p.json", "--property", "linear", "--format",
         "json"], 1, {"check_json": "ratio_p.json"})
    qs2 = rng.choice([QSQRT2, QCBRT2])
    run(["counterexample", "theorem1", "--field", qs2, "--out", "thm1_q.json"], 0,
        {"wrote": "thm1_q.json", "spec": _thm1(qs2)})
    run(["check", "--input", "thm1_q.json", "--property", "homogeneous",
         "--format", "json"], 1, {"check_json": "thm1_q.json"})
    run(["check", "--input", "thm1_q.json", "--property", "additive", "--strategy",
         "sampled", "--seed", str(rng.randrange(1, 10**6)), "--samples", "100",
         "--format", "json"], 0, {"check_json": "thm1_q.json"})
    d = _field(qs2).d
    x = "([" + ",".join(str(_rand_q(rng)) for _ in range(d)) + "])"
    m, n = rng.choice([k for k in range(-9, 10) if k]), rng.randint(2, 9)
    run(["trace", "--input", "thm1_q.json", "--m", str(m), "--n", str(n), "--x", x,
         "--format", "json"], None,
        {"trace": "thm1_q.json", "m": m, "n": n, "x": x, "format": "json"})
    run(["search", "--field", "Fp:2", "--domain-dim", str(rng.choice([2, 3])),
         "--codomain-dim", "1"], 0, {"search_text": True})
    pd = [(2, 5), (2, 6), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3),
          (11, 2), (13, 2)]
    for i, (p, d) in enumerate(rng.sample(pd, 8)):
        fmt = "json" if i % 2 else "text"
        run(["field", "find-irreducible", "--p", str(p), "--degree", str(d),
             "--format", fmt], 0, {"irreducible": [p, d], "format": fmt})
    for p, du, dv in rng.sample([(2, 2, 1), (2, 1, 2), (3, 1, 1), (2, 2, 2)], 3):
        run(["verify-theorem1", "--p", str(p), "--domain-dim", str(du),
             "--codomain-dim", str(dv), "--format", "json"], 0,
            {"verify": [f"Fp:{p}", du, dv]})
    search = ["search", "--field", "Fq:2:1,1,1", "--domain-dim", "2",
              "--codomain-dim", "1", "--format", "json"]
    run(search + ["--jobs", "1"], 0,
        {"search": ["Fq:2:1,1,1", 2, 1, "first_witness"]}, id="gf4_jobs1")
    run(search + ["--jobs", "2"], 0,
        {"search": ["Fq:2:1,1,1", 2, 1, "first_witness"], "same_as": "gf4_jobs1"})
    run(["search", "--field", "Fp:5", "--domain-dim", "2", "--codomain-dim",
         "1", "--mode", "count", "--jobs", "2", "--format", "json"], 0,
        {"search": ["Fp:5", 2, 1, "count_only"]})
    # guard trips: exit 3
    run(["search", "--field", _ext(rng, 2, 3), "--domain-dim", "2",
         "--codomain-dim", "1"], 3, {"error": True})
    run(["verify-theorem1", "--p", "7", "--domain-dim", "3",
         "--codomain-dim", "1"], 3, {"error": True})
    # bad input: exit 2 with a one-line error
    composite = rng.choice([4, 6, 9, 15])
    run(["field", "find-irreducible", "--p", str(composite), "--degree", "2"], 2,
        {"error": True})
    run(["check", "--input", "missing.json", "--property", "additive"], 2,
        {"error": True})
    files["bad_field.json"] = json.dumps(_spec(f"Fp:{composite}", 2, 1,
                                               {"kind": "ratio"}))
    run(["check", "--input", "bad_field.json", "--property", "additive"], 2,
        {"error": True})
    files["bad_json.json"] = '{"field": "Q", "domain_dim": 2,'
    run(["check", "--input", "bad_json.json", "--property", "additive"], 2,
        {"error": True})
    reducible = rng.choice(["Fq:2:1,0,1", "Fq:3:2,0,1", "Fq:2:0,1,1"])
    run(["search", "--field", reducible, "--domain-dim", "2",
         "--codomain-dim", "1"], 2, {"error": True})
    run(["trace", "--input", "ratio_q.json", "--m", "1", "--n", "0", "--x",
         "(1,1)"], 2, {"error": True})
    run(["check", "--input", "ratio_q.json", "--property", "additive",
         "--strategy", "exhaustive"], 2, {"error": True})
    run(["search", "--field", "Fp:2", "--domain-dim", "0", "--codomain-dim",
         "1"], 2, {"error": True})
    run(["counterexample", "ratio", "--field", rng.choice(["Fp:2", "Fq:2:1,1,1"]),
         "--out", "ratio_2.json"], 2, {"error": True})
    run(["trace", "--input", "thm1.json", "--m", "1", "--n", "2", "--x",
         "([1" + ",0" * (_field(thm1).d - 1) + "])"], 2, {"error": True})
    run(["check", "--input", "ratio_q.json"], 2, {"error": True, "usage": True})
    files["no_entries.json"] = json.dumps(_spec("Fp:2", 1, 1, {"kind": "table"}))
    run(["check", "--input", "no_entries.json", "--property", "additive"], 2,
        {"error": True},
        known_defect="a table spec without entries exits 1 with a KeyError "
        "traceback")
    value = rng.choice([0, 1, 7])
    files["int_value.json"] = json.dumps(_spec(
        "Fp:2", 1, 1, {"kind": "table", "entries": [["(0)", value], ["(1)", "(1)"]]}))
    run(["check", "--input", "int_value.json", "--property", "additive"], 2,
        {"error": True},
        known_defect="a non-string table value exits 1 with an AttributeError "
        "traceback")
    specs = {j["expect"]["wrote"]: j["expect"]["spec"]
             for j in jobs if "wrote" in j["expect"]}
    return jobs, {"files": files, "specs": specs}


GENERATORS = {"orbit_search": orbit_search, "table_scan": table_scan,
              "checker_sweep": checker_sweep, "cli_session": cli_session}


def generate(workload, seed):
    """(jobs, extra) for a workload; the same seed gives the same list.

    extra holds the JSON map specs (checker_sweep), or the input files and
    the specs the session's commands write (cli_session).  CLI jobs keep their order, which is a user's script;
    the in-process job lists are shuffled by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs, extra = GENERATORS[workload](rng)
    if workload != "cli_session":
        rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job.setdefault("id", f"{workload}-{i:03d}")
    return jobs, extra


def setup_fields(jobs, maps):
    """Field descriptors the job list builds at set-up."""
    descs = {j["field"] for j in jobs if "field" in j}
    descs |= {m["field"] for m in maps.values()}
    return sorted(descs)
