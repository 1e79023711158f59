"""Outside-in tracer: spans around calls into addhom's public functions.

Nothing under src/ is edited.  install() replaces each traced function or
method at the attribute where the calling layer looks it up (a module
global such as addhom.search.check_additive as well as
addhom.maps.check_additive, or a class attribute for methods) with a
wrapper that records one span: name, start, end, parent span and job id.

A call is recorded only when the innermost open span belongs to another
group, so a layer's internal calls (ExtensionField.mul calling the base
field's mul, check_linear calling check_additive) are part of the outer
span's self time and call counts are calls across the layer boundary.

Spans live in flat arrays (24 bytes each) and are written out by dump();
the per-layer numbers are derived from them by metrics().
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

MAP_CLASSES = ("TableMap", "OrbitTableMap", "KLinearExtensionMap", "RatioMap",
               "IndicatorMap")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.job = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.open_groups = [""]
        self.job_id = 0
        self.enabled = True
        self.counters: Counter = Counter()
        self.extra: dict[int, dict] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name, group):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return self.name_ids[name]

    def wrap(self, fn, name, group, select=None, observe=None):
        """A wrapper recording one span per boundary call of fn.

        select(args) -> name picks the span name per call (field kind);
        observe(tracer, idx, args, kwargs, result, exc) records counts."""
        nid = self._intern(name, group)
        ids = {}
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled or tr.open_groups[-1] == group:
                return fn(*args, **kwargs)
            if select is None:
                n = nid
            else:
                key = select(args)
                n = ids.get(key)
                if n is None:
                    n = ids[key] = tr._intern(key, group)
            idx = len(tr.start)
            tr.name.append(n)
            tr.job.append(tr.job_id)
            tr.parent.append(tr.stack[-1])
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.stack.append(idx)
            tr.open_groups.append(group)
            result = exc = None
            t = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t_end = clock()
                tr.stack.pop()
                tr.open_groups.pop()
                tr.start[idx] = t
                tr.end[idx] = t_end
                if observe is not None:
                    observe(tr, idx, args, kwargs, result, exc)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, modules, fn, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    # -- what is traced ----------------------------------------------------

    def install(self, addhom):
        import addhom.cli as cli
        from addhom import fields, maps, search, spaces

        modules = [addhom, fields, spaces, maps, search, cli]

        field_kinds = {
            fields.PrimeField: lambda f: "prime",
            fields.Rationals: lambda f: "q",
            fields.ExtensionField: lambda f: "gf_ext" if f.is_finite else "q_ext",
        }
        for cls, kind in field_kinds.items():
            for op in ("add", "mul", "inv"):
                self._patch(cls, op, self.wrap(
                    vars(cls)[op], f"fields.{op}", "fields",
                    select=lambda args, op=op, kind=kind: f"fields.{op}.{kind(args[0])}"))
        # An extension field's base is private to it: its calls are the
        # extension's own work, so they bypass the wrappers entirely rather
        # than paying a pass-through per coefficient operation.
        ext_init = vars(fields.ExtensionField)["__init__"]
        plain = {(owner, attr): orig for owner, attr, orig in self._patched}

        @functools.wraps(ext_init)
        def init_extension(ext, base, modulus):
            for op in ("add", "mul", "inv"):
                orig = plain.get((type(base), op))
                if orig is not None:
                    setattr(base, op, orig.__get__(base))
            ext_init(ext, base, modulus)

        self._patch(fields.ExtensionField, "__init__", init_extension)
        for fn in (fields.is_irreducible, fields.find_irreducible):
            self._patch_function(modules, fn, self.wrap(fn, "fields.irreducible",
                                                        "fields"))

        vs = spaces.VectorSpace
        for op in ("add", "scalar_mul", "canonical_rep", "orbits"):
            self._patch(vs, op, self.wrap(vars(vs)[op], f"spaces.{op}", "spaces"))
        for op in ("encode", "decode"):
            self._patch(vs, op, self.wrap(vars(vs)[op], "spaces.codec", "spaces"))
        orig_vectors = vars(vs)["vectors"]
        tr = self

        @functools.wraps(orig_vectors)
        def vectors(space):
            for v in orig_vectors(space):
                if tr.enabled:
                    tr.counters["spaces.vectors.yielded"] += 1
                yield v

        self._patch(vs, "vectors", vectors)

        for cls_name in MAP_CLASSES:
            cls = getattr(maps, cls_name)
            self._patch(cls, "evaluate", self.wrap(vars(cls)["evaluate"],
                                                    "maps.evaluate", "maps.evaluate"))
            self._patch(cls, "__init__", self.wrap(vars(cls)["__init__"],
                                                    "maps.build", "maps.codec"))
        for fn in (maps.check_additive, maps.check_homogeneous, maps.check_linear):
            self._patch_function(modules, fn, self.wrap(
                fn, "maps.check", "maps.check", observe=_observe_check))
        self._patch_function(modules, maps.rational_proof_trace, self.wrap(
            maps.rational_proof_trace, "maps.trace", "maps.check"))
        for fn in (maps.map_from_json, maps.map_to_json, maps.map_from_dict,
                   maps.map_to_dict, maps.report_to_dict, maps.witness_to_dict):
            self._patch_function(modules, fn, self.wrap(fn, "maps.codec",
                                                        "maps.codec"))

        for fn in (search.search_homogeneous_nonadditive,
                   search.scan_additive_tables, search.verify_theorem1_prime):
            self._patch_function(modules, fn, self.wrap(fn, "search", "search",
                                                        observe=_observe_search))
        self._patch(cli, "main", self.wrap(cli.main, "cli.main", "cli"))

    # -- output --------------------------------------------------------------

    def dump(self, path):
        """Write every span: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "groups": self.groups, "spans": len(self.start),
                  "arrays": [["name", "H"], ["job", "H"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.job, self.parent, self.start, self.end):
                arr.tofile(fh)

    def metrics(self):
        """Per-layer numbers derived from the recorded spans."""
        n = len(self.start)
        names, groups = self.names, self.groups
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, self_s = Counter(), Counter()
        search_id = self.name_ids.get("search", -2)
        check_id = self.name_ids.get("maps.check", -2)
        orbits_id = self.name_ids.get("spaces.orbits", -2)
        under_search = [False] * n
        table_build = reverify = 0.0
        table_builds = 0
        for i in range(n):
            name = names[self.name[i]]
            s = dur[i] - child[i]
            calls[name] += 1
            self_s[name] += s
            p = self.parent[i]
            under_search[i] = p >= 0 and (under_search[p] or self.name[p] == search_id)
            if p >= 0 and self.name[p] == search_id:
                if groups[self.name[i]] in ("spaces", "fields"):
                    table_build += dur[i]
                if self.name[i] == orbits_id:
                    table_builds += 1
            if self.name[i] == check_id and under_search[i]:
                reverify += s

        def total(prefix, table):
            return sum(v for k, v in table.items()
                       if k == prefix or k.startswith(prefix + "."))

        out = {}
        for op in ("add", "mul", "inv"):
            out[f"fields.{op}.calls"] = total(f"fields.{op}", calls)
            out[f"fields.{op}.self_s"] = total(f"fields.{op}", self_s)
        for op in ("mul", "inv"):
            for kind in ("prime", "gf_ext", "q", "q_ext"):
                name = f"fields.{op}.{kind}"
                out[f"fields.{op}.ns_per_call.{kind}"] = (
                    1e9 * self_s[name] / calls[name] if calls[name] else 0.0)
        out["fields.irreducible.calls"] = calls["fields.irreducible"]
        out["fields.irreducible.self_s"] = self_s["fields.irreducible"]
        for op in ("add", "scalar_mul", "canonical_rep", "orbits"):
            out[f"spaces.{op}.calls"] = calls[f"spaces.{op}"]
            out[f"spaces.{op}.self_s"] = self_s[f"spaces.{op}"]
        out["spaces.vectors.yielded"] = self.counters["spaces.vectors.yielded"]
        out["spaces.codec.self_s"] = self_s["spaces.codec"]
        check_time = sum(dur[i] for i in range(n) if self.name[i] == check_id)
        pairs = self.counters["maps.check.pairs"]
        out.update({
            "maps.evaluate.calls": calls["maps.evaluate"],
            "maps.evaluate.self_s": self_s["maps.evaluate"],
            "maps.check.calls": calls["maps.check"],
            "maps.check.self_s": self_s["maps.check"],
            "maps.check.pairs": pairs,
            "maps.check.pairs_per_s": pairs / check_time if check_time else 0.0,
            "maps.reverify.self_s": reverify,
            "maps.codec.self_s": self_s["maps.codec"],
        })
        search_time = sum(dur[i] for i in range(n) if self.name[i] == search_id)
        refusal_s = sum(dur[i] for i in self.extra if self.extra[i].get("refused"))
        candidates = self.counters["search.candidates"]
        out.update({
            "search.calls": calls["search"],
            "search.self_s": self_s["search"],
            "search.candidates": candidates,
            "search.candidates_per_s": (candidates / (search_time - refusal_s)
                                        if search_time > refusal_s else 0.0),
            "search.table_build_s": table_build,
            "search.table_builds": table_builds,
            "search.refusals": self.counters["search.refusals"],
            "search.refusal_s": refusal_s,
            "search.pool_s": sum(dur[i] for i in self.extra
                                 if self.extra[i].get("pool")),
        })
        out["trace.spans"] = n
        return out


def _observe_check(tr, idx, args, kwargs, result, exc):
    if result is not None:
        tr.counters["maps.check.pairs"] += result.pairs_checked


def _observe_search(tr, idx, args, kwargs, result, exc):
    info = {}
    config = args[0] if args else None
    if getattr(config, "jobs", 1) > 1:
        info["pool"] = True
    if exc is not None:
        if type(exc).__name__ == "SearchSpaceTooLarge":
            info["refused"] = True
            tr.counters["search.refusals"] += 1
    elif hasattr(result, "homogeneous_count"):
        tr.counters["search.candidates"] += result.homogeneous_count
    elif hasattr(result, "tables_total"):
        tr.counters["search.candidates"] += result.tables_total
    if info:
        tr.extra[idx] = info


def calibrate(n=200_000):
    """Seconds one recorded span adds to a call, measured on a no-op."""
    def noop(x):
        return x

    clock = time.perf_counter
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        t = clock()
        for i in range(n):
            noop(i)
        best_plain = min(best_plain, clock() - t)
        wrapped = Tracer().wrap(noop, "calibrate", "calibrate")
        t = clock()
        for i in range(n):
            wrapped(i)
        best_wrapped = min(best_wrapped, clock() - t)
    return max(best_wrapped - best_plain, 0.0) / n
