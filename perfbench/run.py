"""Benchmark runner for addhom: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload orbit_search --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout that holds src/addhom.  Workloads:
orbit_search, table_scan, checker_sweep, cli_session (see workloads.py and
README.md).  Each pass of a workload runs its whole job list back to back
in a fresh interpreter (worker.py); passes repeat while another one fits in
--seconds.  Every job's output is checked against the closed forms and the
independent oracle (oracle.py).  With --trace 0 the last line of stdout is
a JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of one traced pass, compared against one untraced pass.
A result file with machine facts and the per-job ladder goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_PROBES = 11
# Seconds worker.reference_s() takes on the machine the baselines were
# recorded on (2-CPU x86-64 container, CPython 3.11.7).  Every reported time
# is scaled by this over the reference time measured next to it.
REFERENCE_NOMINAL_S = 0.0105
# The import of addhom is scaled the same way by a reference of its own
# kind: a fresh interpreter importing a fixed set of standard modules.  On a
# shared 2-CPU x86-64 VM import time drifted by 1.5x independently of the
# pure-Python reference above, and tracked this one (correlation 0.89 over
# 60 probes).
IMPORT_REFERENCE = """import time
t = time.perf_counter()
import calendar, configparser, csv, difflib, email.message, http.client, \
    optparse, plistlib, pprint, shlex, tomllib, uuid, wave, xml.dom.minidom
print(time.perf_counter() - t)
"""
IMPORT_REFERENCE_NOMINAL_S = 0.08
PASS_TIMEOUT_S = 150
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
MAX_SIZE_DIGITS = 30

TRUTH = {
    ("ratio", "additive"): "violated", ("ratio", "homogeneous"): "holds",
    ("klinear_extension", "additive"): "holds",
    ("klinear_extension", "homogeneous"): "violated",
    ("indicator", "additive"): "violated", ("indicator", "homogeneous"): "holds",
}


# ---------------------------------------------------------------------------
# checking one job's output
# ---------------------------------------------------------------------------

def _truth(spec, prop):
    kind = spec["map"]["kind"]
    if prop == "linear":
        both = (TRUTH[kind, "additive"], TRUTH[kind, "homogeneous"])
        return "holds" if both == ("holds", "holds") else "violated"
    return TRUTH[kind, prop]


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _parse_check_text(stdout):
    lines = stdout.splitlines()
    fields = dict(line.split(": ", 1) for line in lines[:3])
    report = {"property": fields["property"], "verdict": fields["verdict"],
              "witness": None, "pairs_checked": int(fields["pairs checked"])}
    if len(lines) > 3:
        head, inputs = lines[3].split(": inputs ", 1)
        a, b = inputs.split(" , ")
        report["witness"] = {"kind": head[len("witness ("):-1], "inputs": [a, b],
                             "lhs": lines[4].split(" = ", 1)[1],
                             "rhs": lines[5].split(" = ", 1)[1]}
    return report


def check_cli(job, out, specs, outputs):
    exp, argv = job["expect"], job["argv"]
    want = job["exit"]
    problems = []
    if "trace" in exp:
        ref = oracle.trace_reference(specs[exp["trace"]], exp["m"], exp["n"], exp["x"])
        want = 0 if all(i["equal"] for i in ref) else 1
    if out["exit"] != want:
        problems.append(f"exit {out['exit']} != {want}")
    if "Traceback" in out["stderr"]:
        problems.append("traceback on stderr: "
                        + out["stderr"].strip().splitlines()[-1])
    if exp.get("error"):
        lines = out["stderr"].strip().splitlines()
        if not exp.get("usage") and (len(lines) != 1 or not lines[0].startswith("error:")):
            problems.append(f"error output is not one 'error:' line: {lines[-3:]}")
        return problems
    stdout = out["stdout"]
    if "wrote" in exp:
        if stdout.strip() != f"wrote {exp['wrote']}":
            problems.append(f"stdout {stdout!r}")
        if json.loads(out.get("file") or "null") != exp["spec"]:
            problems.append(f"written spec {out.get('file')!r} != {exp['spec']}")
    elif "check_json" in exp or "check_text" in exp:
        spec = specs[exp.get("check_json") or exp.get("check_text")]
        prop = _arg(argv, "--property")
        strategy = _arg(argv, "--strategy")
        if strategy == "sampled":
            strategy = {"seed": int(_arg(argv, "--seed")),
                        "samples": int(_arg(argv, "--samples"))}
        elif strategy is None:
            finite = oracle.field_from_descriptor(spec["field"]).is_finite
            strategy = "exhaustive" if finite else {"seed": 24001, "samples": 200}
        report = (json.loads(stdout) if "check_json" in exp
                  else _parse_check_text(stdout))
        problems += oracle.check_report(oracle.RefMap(spec), prop, strategy, report,
                                        {"truth": _truth(spec, prop)})
    elif "trace" in exp:
        if exp["format"] == "json":
            got = json.loads(stdout)["identities"]
        else:
            got = []
            for line in stdout.splitlines():
                label, rest = line.rsplit(": ", 1)
                mark = " == " if " == " in rest else " != "
                lhs, rhs = rest.split(mark)
                got.append({"label": label, "lhs": lhs, "rhs": rhs,
                            "equal": mark == " == "})
        if got != ref:
            problems.append(f"trace {got} != reference {ref}")
    elif "irreducible" in exp:
        p, d = exp["irreducible"]
        coeffs = ",".join(str(c) for c in oracle.first_irreducible(p, d))
        if exp["format"] == "json":
            ok = json.loads(stdout) == {"p": p, "degree": d, "coefficients": coeffs,
                                        "field": f"Fq:{p}:{coeffs}"}
        else:
            ok = f"coefficients (ascending): {coeffs}" in stdout.splitlines()
        if not ok:
            problems.append(f"find-irreducible output {stdout!r}, want {coeffs}")
    elif "verify" in exp:
        f, du, dv = exp["verify"]
        problems += oracle.check_table_scan({"field": f, "du": du, "dv": dv},
                                            json.loads(stdout))
    elif "search_text" in exp:
        du = int(_arg(argv, "--domain-dim"))
        hom, lin = oracle.homogeneous_count(2, du, 1), oracle.linear_count(2, du, 1)
        counts = [int(line.rsplit(" ", 1)[1]) for line in stdout.splitlines()[:3]]
        if counts != [hom, lin, hom - lin]:
            problems.append(f"search counts {counts} != {[hom, lin, hom - lin]}")
        if "witness map found" not in stdout:
            problems.append("no witness line in search text output")
    elif "search" in exp:
        f, du, dv, mode = exp["search"]
        problems += oracle.check_search({"field": f, "du": du, "dv": dv,
                                         "mode": mode}, json.loads(stdout))
        other = outputs.get(exp.get("same_as"))
        if other is not None and other["stdout"] != stdout:
            problems.append(f"JSON differs from {exp['same_as']} across --jobs")
    return problems


def check_job(job, rec, extra, outputs):
    """Problems with one job's record; empty means correct.

    extra is the workload's map specs or CLI input files; outputs maps job
    ids to the same pass's outputs (for the --jobs byte-equality check)."""
    kind = job["kind"]
    want_error = job.get("expect") if kind == "scan" else None
    if want_error == "ok":
        want_error = None
    if rec["error"] != want_error:
        return [f"error {rec['error']!r}, expected {want_error!r}"]
    if want_error is not None:
        return []
    out = rec.get("output")
    try:
        if kind == "search":
            return oracle.check_search(job, out)
        if kind == "scan":
            return oracle.check_table_scan(job, out)
        if kind == "check":
            spec = extra[job["map"]]
            return oracle.check_report(oracle.RefMap(spec), job["property"],
                                       job["strategy"], out, job["expect"])
        if kind == "trace":
            ref = oracle.trace_reference(extra[job["map"]], job["m"], job["n"],
                                         job["x"])
            return [] if out == ref else [f"trace {out} != reference {ref}"]
        return check_cli(job, out, extra["specs"], outputs)
    except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_pass(jobs, extra, records, cache):
    """Problems per job id for one pass; identical outputs are checked once."""
    outputs = {j["id"]: r.get("output") for j, r in zip(jobs, records)}
    problems = {}
    for job, rec in zip(jobs, records):
        key = (job["id"], rec["error"], json.dumps(rec.get("output"), sort_keys=True))
        if key not in cache:
            cache[key] = check_job(job, rec, extra, outputs)
        if cache[key]:
            problems[job["id"]] = cache[key]
    return problems


# ---------------------------------------------------------------------------
# gate self-test: a corrupted count or witness must be counted as failed
# ---------------------------------------------------------------------------

COUNT_KEYS = ("homogeneous", "homogeneous_additive", "additive", "pairs_checked")


def _corrupt(node, how):
    """Corrupt the first count or witness in node in place; True if done."""
    if isinstance(node, dict):
        if "stdout" in node and "exit" in node:
            try:
                inner = json.loads(node["stdout"])
            except ValueError:
                return False
            if _corrupt(inner, how):
                node["stdout"] = json.dumps(inner, indent=2) + "\n"
                return True
            return False
        if how == "witness" and node.get("kind") in ("additivity", "homogeneity"):
            node["lhs"] = node["rhs"]
            return True
        if how == "witness" and node.get("kind") in ("table", "orbit_table"):
            rows = node.get("entries") or node.get("values")
            other = next((r[1] for r in rows if r[1] != rows[-1][1]), None)
            if other is not None:
                rows[-1][1] = other
                return True
        for key, value in node.items():
            if how == "count" and key in COUNT_KEYS and isinstance(value, (int, str)) \
                    and not isinstance(value, bool) and str(value).isdigit():
                node[key] = type(value)(int(value) + 1)
                return True
            if _corrupt(value, how):
                return True
    elif isinstance(node, list):
        return any(_corrupt(v, how) for v in node)
    return False


def gate_self_test(jobs, extra, records):
    """For each corruption kind, corrupt one passing output and re-check it."""
    outputs = {j["id"]: r.get("output") for j, r in zip(jobs, records)}
    result = {}
    for how in ("count", "witness"):
        result[how] = "no output to corrupt"
        for job, rec in zip(jobs, records):
            if rec.get("output") is None or check_job(job, rec, extra, outputs):
                continue
            bad = copy.deepcopy(rec)
            if _corrupt(bad["output"], how):
                flagged = bool(check_job(job, bad, extra, outputs))
                result[how] = f"{job['id']}: " + ("counted as failed" if flagged
                                                  else "NOT DETECTED")
                break
    return result


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------

def run_worker(workload, seed, tag, trace=False, setup_only=False,
               inprocess=False):
    out = os.path.join(OUT, f"{workload}-{seed}-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), out]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if inprocess:
        cmd.append("--inprocess")
    subprocess.run(cmd, check=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def import_reference_s():
    """Seconds a fresh interpreter takes for IMPORT_REFERENCE's imports."""
    out = subprocess.run([sys.executable, "-c", IMPORT_REFERENCE], check=True,
                         capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
                         cwd=ROOT)
    return float(out.stdout)


def setup_probes(wl, seed):
    """SETUP_PROBES set-up-only passes, each between two import references."""
    probes, ref = [], import_reference_s()
    for i in range(SETUP_PROBES):
        p = run_worker(wl, seed, f"setup{i}", setup_only=True)
        p["import_refs"] = [ref, import_reference_s()]
        ref = p["import_refs"][1]
        probes.append(normalize(p))
    return probes


def normalize(p):
    """Add reference-normalized times to a pass or set-up probe in place.

    A job's latency is scaled by REFERENCE_NOMINAL_S over the mean of the
    reference times measured just before and just after it, which cancels
    the speed drift of a shared host while keeping seconds as the unit.  A
    probe's import time is scaled the same way by the import reference, and
    its build time (fields and maps) by the pure-Python one."""
    if "import_s" in p:
        p["setup_raw_s"] = p["import_s"] + p.get("build_s", 0.0)
        p["setup_norm_s"] = (p["import_s"] * IMPORT_REFERENCE_NOMINAL_S
                             / statistics.mean(p["import_refs"]))
        if "build_s" in p:
            p["setup_norm_s"] += (p["build_s"] * REFERENCE_NOMINAL_S
                                  / statistics.mean(p["build_refs"]))
    if "jobs" in p:
        refs = p["refs"]
        for i, rec in enumerate(p["jobs"]):
            speed = (refs[i] + refs[i + 1]) / 2
            rec["norm_s"] = rec["latency_s"] * REFERENCE_NOMINAL_S / speed
        p["wall_raw_s"] = sum(r["latency_s"] for r in p["jobs"])
        p["wall_s"] = sum(r["norm_s"] for r in p["jobs"])
    return p


def quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile of the sample xs.

    A beta-weighted mean of all order statistics rather than a single one:
    a job ladder has gaps between neighbouring latencies, and this keeps a
    rank swap near the quantile from moving the estimate by a whole gap."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson's rule on each slice [i/n, (i+1)/n]
    total = 0.0
    for i, value in enumerate(xs):
        h = 1 / (n * steps)
        lo = i / n
        weight = density(lo) + density(lo + steps * h) + sum(
            (4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        total += value * weight * h / 3
    return total


def tail_percentile(n):
    """The highest of PERCENTILES with at least ten of n jobs beyond it."""
    return next((p for p in PERCENTILES if n - math.ceil(p / 100 * n) >= 10), 50)


def _size(job, rec):
    kind = job["kind"]
    if kind in ("search", "scan"):
        f = oracle.field_from_descriptor(job["field"])
        n = (oracle.homogeneous_count(f.q, job["du"], job["dv"]) if kind == "search"
             else (f.q ** job["dv"]) ** (f.q ** job["du"]))
        text = str(n)
        unit = "candidates" if kind == "search" else "tables"
        if len(text) > MAX_SIZE_DIGITS:
            text = f"{text[0]}.{text[1:4]}e{len(text) - 1}"
        return f"{text} {unit}"
    if kind == "check":
        return f"{(rec.get('output') or {}).get('pairs_checked')} pairs"
    if kind == "trace":
        return "4 identities"
    return "1 command"


def _instance(job):
    kind = job["kind"]
    if kind == "search":
        return f"search {job['field']} {job['du']}->{job['dv']} {job['mode']}"
    if kind == "scan":
        return f"{job['engine']} {job['field']} {job['du']}->{job['dv']}"
    if kind == "check":
        s = job["strategy"]
        s = s if s == "exhaustive" else f"sampled(seed={s['seed']},n={s['samples']})"
        return f"check {job['property']} {job['map']} {s}"
    if kind == "trace":
        return f"trace {job['map']} m={job['m']} n={job['n']} x={job['x']}"
    return "addhom " + " ".join(job["argv"])


def _summary(job, rec):
    if rec["error"]:
        return f"raised {rec['error'].splitlines()[0]}"
    out = rec.get("output") or {}
    kind = job["kind"]
    if kind == "search":
        return (f"homogeneous={out['homogeneous']} additive={out['homogeneous_additive']}"
                f" witness={'yes' if out['witness'] else 'no'}")
    if kind == "scan":
        return (f"additive={out['additive']} "
                f"additive_nonhomogeneous={out['additive_nonhomogeneous']}")
    if kind == "check":
        return out.get("verdict")
    if kind == "trace":
        return "equal=" + ",".join(str(i["equal"]) for i in out)
    return f"exit {out.get('exit')}"


def machine_facts():
    return {"cpu_count": os.cpu_count(), "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "machine": platform.machine()}


def run_passes(wl, seed, seconds, trace):
    """(passes, others): the untraced passes the metrics come from, and the
    further passes of a traced run, whose outputs are checked too.  A traced
    run makes one untraced pass and one traced pass (others[-1]); for
    cli_session also an untraced in-process replay (others[0]), which the
    tracer's overhead is measured against."""
    if trace:
        passes = [normalize(run_worker(wl, seed, "pass0"))]
        others = [normalize(run_worker(wl, seed, "traced", trace=True))]
        if wl == "cli_session":
            others.insert(0, normalize(run_worker(wl, seed, "inprocess",
                                                  inprocess=True)))
        return passes, others
    passes = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(normalize(run_worker(wl, seed, f"pass{len(passes)}")))
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            return passes, []


def declared(kind):
    """Metric name -> unit, as BENCHMARK.json declares them under kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def end_to_end(passes, probes, ok_share):
    """The end-to-end metrics by name, and the tail's percentile."""
    # a job's latency is its median over the run's passes
    per_job = [statistics.median(p["jobs"][i]["norm_s"] for p in passes)
               for i in range(len(passes[0]["jobs"]))]
    pct = tail_percentile(len(per_job))
    return {
        "setup_s": statistics.median(p["setup_norm_s"] for p in probes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_p50_s": quantile(per_job, 0.5),
        "job_tail_s": quantile(per_job, pct / 100),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_share": ok_share,
    }, pct


def layer_metrics(wl, passes, others, setup_s):
    """Every per-layer metric: the traced pass's spans plus the cli numbers,
    which come from the untraced passes."""
    traced, baseline = others[-1], others[0] if len(others) > 1 else passes[0]
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - baseline["wall_s"]
    cli = wl == "cli_session"
    exits = [r["output"]["exit"] for r in passes[0]["jobs"]] if cli else []
    for code in range(4):
        layers[f"cli.exit.{code}"] = exits.count(code)
    layers["cli.import_s"] = setup_s if cli else 0.0
    layers["cli.process_s"] = (statistics.median(r["norm_s"] for r in passes[0]["jobs"])
                               if cli else 0.0)
    layers["cli.main_s"] = (statistics.median(r["norm_s"] for r in baseline["jobs"])
                            if cli else 0.0)
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "addhom", "__init__.py")):
        print(f"error: no addhom package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    wl, seed = args.workload, args.seed
    jobs, extra = generate(wl, seed)

    # untimed warm-up: byte-compile the package once, as an installed one is
    subprocess.run([sys.executable, "-c", "import addhom.cli"], check=True,
                   cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC))
    probes = setup_probes(wl, seed)
    passes, others = run_passes(wl, seed, args.seconds, args.trace)

    cache, attempted, failed, unexpected = {}, 0, 0, []
    known = {j["id"]: j.get("known_defect") for j in jobs}
    for p in passes + others:
        p["problems"] = check_pass(jobs, extra, p["jobs"], cache)
        attempted += len(p["jobs"])
        failed += len(p["problems"])
        unexpected += [i for i in p["problems"] if not known[i]]
    self_test = gate_self_test(jobs, extra, passes[0]["jobs"])
    self_test_ok = all(v.endswith("counted as failed") for v in self_test.values())
    correct = not unexpected and self_test_ok

    e2e, pct = end_to_end(passes, probes, (attempted - failed) / attempted)
    values = (layer_metrics(wl, passes, others, e2e["setup_s"]) if args.trace
              else e2e)
    units = declared("per_layer" if args.trace else "end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    problems = {}
    for p in passes + others:
        for job_id, probs in p["problems"].items():
            problems.setdefault(job_id, probs)
    ladder = [{
        "id": job["id"], "instance": _instance(job), "size": _size(job, rec),
        "result": _summary(job, rec),
        "latency_s": [p["jobs"][i]["latency_s"] for p in passes],
        "norm_s": [p["jobs"][i]["norm_s"] for p in passes],
        "failed": problems.get(job["id"]),
        **({"known_defect": known[job["id"]]} if known[job["id"]] else {}),
    } for i, (job, rec) in enumerate(zip(jobs, passes[0]["jobs"]))]
    report = {
        "workload": wl, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(), "passes": len(passes),
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "setup_s": [p["setup_norm_s"] for p in probes],
        "setup_raw_s": [p["setup_raw_s"] for p in probes],
        "import_refs_s": [p["import_refs"][0] for p in probes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_raw_s": [p["wall_raw_s"] for p in passes],
        "pass_refs_s": [p["refs"] for p in passes],
        "job_tail_percentile": pct, "jobs_per_pass": len(jobs),
        "end_to_end": e2e,
        "metrics": metrics, "gate_self_test": self_test,
        "attempted": attempted, "failed": failed, "correct": correct,
        "ladder": ladder,
    }
    if args.trace:
        report["traced_wall_s"] = others[-1]["wall_s"]
    path = os.path.join(OUT, f"result-{wl}-seed{seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {wl} seed {seed}: {len(passes)} pass(es) of {len(jobs)} jobs, "
          f"{os.cpu_count()} CPUs, Python {sys.version.split()[0]}")
    for name, m in metrics.items():
        note = f"  (p{pct:g} of {len(jobs)} jobs)" if name == "job_tail_s" else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{note}")
    for job_id, probs in sorted(problems.items()):
        tag = "known defect" if known[job_id] else "FAILED"
        print(f"  {tag} {job_id}: {probs[0][:200]}")
    print(f"  gate self-test: {self_test}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
