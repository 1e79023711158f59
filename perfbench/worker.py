"""One pass of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py WORKLOAD SEED OUT [--trace] [--setup-only]
                                                  [--inprocess]

A pass builds what the job list needs (set-up), then runs every job back to
back: a closed loop with one client.  Around every job it times a fixed
reference workload (reference_s) so that run.py can normalize for the
host's speed.  It writes one JSON file with the reference times, peak RSS
and, per job, its latency and output as plain data.  With --setup-only it
stops once set-up is done and writes the set-up times instead.
Outputs are serialized after the timed loop, and checking them is left to
run.py, which shares no arithmetic with the program.  Without --trace
nothing is wrapped; with it tracer.Tracer records spans and writes them to
perfbench/out/WORKLOAD.spans.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

# The import is timed first thing, before the harness loads any standard
# module that addhom also imports (argparse, json, fractions), so set-up
# pays addhom's whole import graph as a fresh interpreter does.  WORKLOAD is
# the first argument so that it can be read before argparse is loaded.
_t0 = time.perf_counter()
if sys.argv[1:2] == ["cli_session"]:
    import addhom.cli  # noqa: E402
else:
    import addhom  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, HERE)

from oracle import FiniteField  # noqa: E402
from workloads import generate, setup_fields  # noqa: E402


def reference_s():
    """Seconds this process takes for a fixed piece of pure-Python work
    (the GF(32) multiplication table, built with the benchmark's own
    polynomial arithmetic).  Timed next to every job, it gives the machine's
    speed at that moment, so run.py can cancel the speed drift of a shared
    host."""
    t = time.perf_counter()
    FiniteField(2, (1, 0, 1, 0, 0, 1))._table()
    return time.perf_counter() - t


def peak_rss_mb(children_only):
    """ru_maxrss of this process plus that of its largest child, in MB.  With
    children_only, the child's alone: on cli_session this process is only
    the harness, and the addhom commands are its children."""
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not children_only:
        kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def run_inprocess(args, jobs, maps, tracer_cls):
    spec_text = {k: json.dumps(v) for k, v in maps.items()}
    descs = setup_fields(jobs, maps)

    tracer = None
    if tracer_cls is not None:
        tracer = tracer_cls()
        tracer.install(addhom)
    ref_before = reference_s()
    t0 = time.perf_counter()
    fields = {d: addhom.parse_field(d) for d in descs}
    built = {k: addhom.map_from_json(t) for k, t in spec_text.items()}
    build_s = time.perf_counter() - t0
    if args.setup_only:
        return {"import_s": IMPORT_S, "build_s": build_s,
                "build_refs": [ref_before, reference_s()]}

    from addhom.errors import AddhomError
    from addhom.maps import map_to_dict, report_to_dict

    checkers = {"additive": addhom.check_additive,
                "homogeneous": addhom.check_homogeneous,
                "linear": addhom.check_linear}

    def run_job(job):
        kind = job["kind"]
        if kind == "search":
            config = addhom.SearchConfig(fields[job["field"]], job["du"], job["dv"],
                                         mode=job["mode"], jobs=1)
            return addhom.search_homogeneous_nonadditive(config)
        if kind == "scan":
            engine = (addhom.verify_theorem1_prime if job["engine"] == "verify"
                      else addhom.scan_additive_tables)
            return engine(fields[job["field"]], job["du"], job["dv"])
        m = built[job["map"]]
        if kind == "check":
            s = job["strategy"]
            strategy = (addhom.EXHAUSTIVE if s == "exhaustive"
                        else addhom.Sampled(seed=s["seed"], samples=s["samples"]))
            return checkers[job["property"]](m, strategy)
        if kind == "trace":
            return addhom.rational_proof_trace(m, job["m"], job["n"],
                                               m.domain.decode(job["x"]))
        raise ValueError(f"unknown job kind {kind!r}")

    def serialize(job, result):
        kind = job["kind"]
        if kind == "search":
            out = result.to_dict()
            if job["mode"] == "enumerate_all":
                out["witness_maps"] = [map_to_dict(m) for m in result.witness_maps]
            return out
        if kind == "scan":
            return result.to_dict()
        m = built[job["map"]]
        if kind == "check":
            return report_to_dict(m, result)
        return [{"label": i.label, "lhs": m.codomain.encode(i.lhs),
                 "rhs": m.codomain.encode(i.rhs), "equal": i.equal} for i in result]

    raw, records, refs = [], [], [reference_s()]
    clock = time.perf_counter
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i + 1
        t = clock()
        try:
            result, error = run_job(job), None
        except AddhomError as exc:
            result, error = None, type(exc).__name__
        except Exception as exc:  # a crash is a failed job, not a failed pass
            result = None
            error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        records.append({"id": job["id"], "latency_s": clock() - t, "error": error})
        raw.append(result)
        refs.append(reference_s())

    if tracer is not None:
        tracer.enabled = False
    for job, rec, result in zip(jobs, records, raw):
        if result is not None:
            rec["output"] = serialize(job, result)
    return {"refs": refs, "jobs": records, "tracer": tracer}


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

def run_cli(args, jobs, extra, tracer_cls):
    if args.setup_only:
        return {"import_s": IMPORT_S}
    workdir = args.out + ".work"
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, text in extra["files"].items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        if tracer_cls is None and not args.inprocess:
            result = _cli_subprocesses(jobs, workdir)
        else:
            result = _cli_inprocess(jobs, workdir, tracer_cls)
        for job, rec in zip(jobs, result["jobs"]):
            name = job["expect"].get("wrote")
            path = os.path.join(workdir, name) if name else None
            if path and os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    rec["output"]["file"] = fh.read()
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
    return result


def current_cpu():
    """The CPU this process runs on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _cli_subprocesses(jobs, workdir):
    """Run each argv as an addhom process.  The CPUs of a shared VM can
    differ in speed, and the reference is timed in this process, so the pass
    pins itself to the CPU it runs on and its commands inherit that; a
    command with --jobs above 1 gets every CPU."""
    env = dict(os.environ, PYTHONPATH=SRC)
    every_cpu = os.sched_getaffinity(0)
    one_cpu = {current_cpu()}
    os.sched_setaffinity(0, one_cpu)
    records, refs = [], [reference_s()]
    clock = time.perf_counter
    for job in jobs:
        argv = job["argv"]
        wide = "--jobs" in argv and int(argv[argv.index("--jobs") + 1]) > 1
        if wide:
            os.sched_setaffinity(0, every_cpu)
        t = clock()
        proc = subprocess.run([sys.executable, "-m", "addhom.cli", *argv],
                              cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=150)
        records.append({"id": job["id"], "latency_s": clock() - t, "error": None,
                        "output": {"exit": proc.returncode, "stdout": proc.stdout,
                                   "stderr": proc.stderr}})
        if wide:
            os.sched_setaffinity(0, one_cpu)
        refs.append(reference_s())
    return {"refs": refs, "jobs": records, "tracer": None}


def _cli_inprocess(jobs, workdir, tracer_cls):
    """Replay each argv through addhom.cli.main in this process."""
    tracer = None
    if tracer_cls is not None:
        tracer = tracer_cls()
        tracer.install(addhom)
    records, refs = [], [reference_s()]
    clock = time.perf_counter
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job_id = i + 1
            out, err = io.StringIO(), io.StringIO()
            t = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = addhom.cli.main(job["argv"])
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # what the interpreter would print, exit 1
                    traceback.print_exc()
                    code = 1
            records.append({"id": job["id"], "latency_s": clock() - t,
                            "error": None,
                            "output": {"exit": code, "stdout": out.getvalue(),
                                       "stderr": err.getvalue()}})
            refs.append(reference_s())
    finally:
        os.chdir(cwd)
    if tracer is not None:
        tracer.enabled = False
    return {"refs": refs, "jobs": records, "tracer": tracer}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inprocess", action="store_true",
                    help="cli_session: replay argv through addhom.cli.main")
    args = ap.parse_args()
    jobs, extra = generate(args.workload, args.seed)
    tracer_cls = None
    if args.trace:
        from tracer import Tracer, calibrate

        tracer_cls = Tracer
        span_cost_s = calibrate()
    runner = run_cli if args.workload == "cli_session" else run_inprocess
    result = runner(args, jobs, extra, tracer_cls)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["trace.span_cost_ns"] = span_cost_s * 1e9
        tracer.dump(os.path.join(OUT, f"{args.workload}.spans"))
    result["peak_rss_mb"] = peak_rss_mb(children_only=args.workload == "cli_session")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
