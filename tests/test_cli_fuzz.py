"""Fuzzing the CLI in-process with generated map specs, field descriptors
and vector strings: every run ends in a documented exit code, without a
traceback, and a mathematical "no" (exit 1) always shows its evidence."""

import contextlib
import io
import itertools
import json
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from addhom.cli import main  # noqa: E402

FIELDS = ["Fp:2", "Fp:3", "Fp:5", "Fq:2:1,1,1", "Fq:3:1,0,1", "Q", "Qext:-2,0,1"]
# element texts per field, plus texts no field accepts
ELEMENTS = {
    "Fp:2": ["0", "1"],
    "Fp:3": ["0", "1", "2"],
    "Fp:5": ["0", "1", "4"],
    "Fq:2:1,1,1": ["[0,0]", "[1,0]", "[0,1]", "[1,1]"],
    "Fq:3:1,0,1": ["[0,0]", "[2,1]", "[0,2]"],
    "Q": ["0", "1", "-1/2", "3"],
    "Qext:-2,0,1": ["[0,0]", "[1,0]", "[0,1]", "[1/2,-1]"],
}
JUNK = ["", "x", "[1", "(1)", "1/0", "[0,0,0]", "7"]

fields = st.one_of(
    st.sampled_from(FIELDS),
    st.sampled_from(FIELDS),
    st.sampled_from(["Fp:4", "Fp:1", "Fp:-3", "Fq:2:1,0,1", "Fq:2:1,1", "Qext:0,1",
                     "Qext:1,0,0,0,1", "Fp:", "R", "Fq:2"]),
    st.text(max_size=8),
)
dims = st.sampled_from([1, 2, 3, 1, 2, 3, 0, -1])


@st.composite
def vectors(draw, field, dim=None):
    """A vector string: usually of the field and of a small dimension."""
    elems = ELEMENTS.get(field, ["0", "1"])
    if draw(st.sampled_from([False, False, True])):
        elems = elems + JUNK
    if dim is None:
        dim = draw(st.integers(1, 3))
    text = "(" + ",".join(draw(st.sampled_from(elems)) for _ in range(dim)) + ")"
    return draw(st.sampled_from([text, text, text, text[1:], " " + text + " "]))


@st.composite
def specs(draw):
    field = draw(fields)
    du, dv = draw(dims), draw(dims)
    kind = draw(st.sampled_from(
        ["table", "orbit_table", "ratio", "indicator", "klinear_extension", "nope"]
    ))
    if kind in ("table", "orbit_table"):
        pairs = draw(st.lists(
            st.lists(vectors(field), min_size=1, max_size=3), max_size=10
        ))
        body = {"kind": kind, "entries" if kind == "table" else "values": pairs}
    elif kind == "klinear_extension":
        elems = ELEMENTS.get(field, ["0"])
        body = {"kind": kind, "basis_images": draw(
            st.lists(st.sampled_from(elems + JUNK), max_size=3)
        )}
    else:
        body = {"kind": kind}
    spec = {"field": field, "domain_dim": du, "codomain_dim": dv, "map": body}
    for key in draw(st.sets(st.sampled_from(sorted(spec)), max_size=1)):
        del spec[key]
    return spec


def _complete_table_spec(field, du, dv, data):
    """A table spec that lists every domain vector once, values drawn."""
    elems = ELEMENTS[field]  # all of them, for the fields this is used with
    entries = [
        ["(" + ",".join(v) + ")",
         "(" + ",".join(data.draw(st.sampled_from(elems)) for _ in range(dv)) + ")"]
        for v in itertools.product(elems, repeat=du)
    ]
    return {"field": field, "domain_dim": du, "codomain_dim": dv,
            "map": {"kind": "table", "entries": entries}}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_outcome(argv, code, out, err):
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code in (2, 3):
        assert err.startswith("error:") or "usage:" in err, (argv, err)
    if code != 1:
        return
    if argv[0] == "check":
        assert "witness (" in out or '"witness": {' in out, (argv, out)
    elif argv[0] == "trace":
        assert " != " in out or '"equal": false' in out, (argv, out)
    elif argv[0] == "search":
        # the "no" of a search is that no homogeneous map is non-additive
        assert "homogeneous, not additive:   0" in out or (
            '"non_additive": "0"' in out
        ), (argv, out)
    else:
        raise AssertionError(f"{argv} exits 1: {out}")


SETTINGS = settings(
    derandomize=True, max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    """One spec file, rewritten by every example."""
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@SETTINGS
@given(
    spec=specs(),
    prop=st.sampled_from(["additive", "homogeneous", "linear"]),
    strategy=st.sampled_from([[], ["--strategy", "exhaustive"],
                              ["--strategy", "sampled", "--samples", "5"]]),
    fmt=st.sampled_from(["text", "json"]),
    mangle=st.sampled_from([None, "truncate", "not-object"]),
)
def test_check_on_generated_specs(spec_path, spec, prop, strategy, fmt, mangle):
    text = json.dumps(spec)
    if mangle == "truncate":
        text = text[: len(text) // 2]
    elif mangle == "not-object":
        text = json.dumps([spec])
    spec_path.write_text(text, encoding="utf-8")
    argv = ["check", "--input", str(spec_path), "--property", prop, "--format", fmt,
            *strategy]
    _assert_outcome(argv, *_run(argv))


@SETTINGS
@given(
    field=st.sampled_from(["Fp:2", "Fp:3", "Fq:2:1,1,1"]),
    du=st.integers(1, 2),
    dv=st.integers(1, 2),
    prop=st.sampled_from(["additive", "homogeneous", "linear"]),
    data=st.data(),
)
def test_check_on_complete_tables(spec_path, field, du, dv, prop, data):
    spec_path.write_text(json.dumps(_complete_table_spec(field, du, dv, data)))
    argv = ["check", "--input", str(spec_path), "--property", prop]
    code, out, err = _run(argv)
    _assert_outcome(argv, code, out, err)
    assert code in (0, 1), err


TRACED = [
    ("Q", 2, 1, {"kind": "ratio"}),
    ("Qext:-2,0,1", 2, 1, {"kind": "ratio"}),
    ("Qext:-2,0,1", 1, 1,
     {"kind": "klinear_extension", "basis_images": ["[0,1]", "[1,0]"]}),
    ("Fp:3", 2, 1, {"kind": "ratio"}),
    ("Q", 2, 1, {"kind": "table", "entries": []}),
]


@SETTINGS
@given(
    traced=st.sampled_from(TRACED),
    m=st.integers(-5, 5),
    n=st.sampled_from([1, 2, 3, -1, -2, 0]),
    data=st.data(),
)
def test_trace_on_generated_vectors(spec_path, traced, m, n, data):
    field, du, dv, body = traced
    spec = {"field": field, "domain_dim": du, "codomain_dim": dv, "map": body}
    spec_path.write_text(json.dumps(spec))
    x = data.draw(vectors(field, data.draw(st.sampled_from([du, du, du, 3]))))
    fmt = data.draw(st.sampled_from(["text", "json"]))
    argv = ["trace", "--input", str(spec_path), "--m", str(m), "--n", str(n),
            "--x", x, "--format", fmt]
    _assert_outcome(argv, *_run(argv))


@SETTINGS
@given(
    command=st.sampled_from(["search", "verify-theorem1"]),
    field=fields,
    p=st.sampled_from([2, 3, 5, 7, 2, 3, 4, 1, 0, -2]),
    du=dims,
    dv=dims,
    fmt=st.sampled_from(["text", "json"]),
)
def test_engines_on_generated_instances(command, field, p, du, dv, fmt):
    argv = [command, "--domain-dim", str(du), "--codomain-dim", str(dv),
            "--max-candidates", "5000", "--format", fmt]
    argv += ["--field", field] if command == "search" else ["--p", str(p)]
    _assert_outcome(argv, *_run(argv))
