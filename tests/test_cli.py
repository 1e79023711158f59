"""CLI surface: subcommands, exit codes, file round trips."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import addhom
from addhom.cli import main
from addhom.errors import AddhomError
from addhom.maps import (
    EXHAUSTIVE,
    build_theorem1_counterexample,
    check_homogeneous,
    map_from_dict,
    map_from_json,
    report_to_dict,
)
from addhom.fields import gf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_find_irreducible(capsys):
    code, out, _ = run(
        capsys, "field", "find-irreducible", "--p", "2", "--degree", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == "1,1,0,1"
    assert payload["field"] == "Fq:2:1,1,0,1"


def test_find_irreducible_text(capsys):
    code, out, _ = run(capsys, "field", "find-irreducible", "--p", "3", "--degree", "3")
    assert code == 0
    assert out.splitlines() == [
        "x^3 + 2*x + 1",
        "coefficients (ascending): 1,2,0,1",
        "field descriptor: Fq:3:1,2,0,1",
    ]


def test_counterexample_then_check_roundtrip(tmp_path, capsys):
    spec = tmp_path / "m.json"
    code, _, _ = run(
        capsys, "counterexample", "theorem1", "--field", "Fq:2:1,1,1",
        "--out", str(spec),
    )
    assert code == 0

    code, out, _ = run(
        capsys, "check", "--input", str(spec), "--property", "homogeneous",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "violated"
    assert payload["witness"]["inputs"] == ["[0,1]", "([1,0])"]
    assert payload["witness"]["lhs"] == "([0,1])"
    assert payload["witness"]["rhs"] == "([1,1])"

    code, out, _ = run(
        capsys, "check", "--input", str(spec), "--property", "additive",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "holds_exhaustive"

    # emitted file and in-memory construction yield identical reports
    m_file = map_from_json(spec.read_text())
    m_mem = build_theorem1_counterexample(gf(2, 2))
    assert report_to_dict(m_file, check_homogeneous(m_file, EXHAUSTIVE)) == (
        report_to_dict(m_mem, check_homogeneous(m_mem, EXHAUSTIVE))
    )


def test_check_ratio_q_sampled_default(tmp_path, capsys):
    spec = tmp_path / "ratio_q.json"
    run(capsys, "counterexample", "ratio", "--out", str(spec))
    code, out, _ = run(
        capsys, "check", "--input", str(spec), "--property", "additive",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["witness"]["inputs"] == ["(1,0)", "(0,1)"]
    assert payload["witness"]["lhs"] == "(1/2)"


def test_check_default_sampled_run_uses_seed_and_samples(tmp_path, capsys):
    spec = tmp_path / "thm1_q.json"
    run(capsys, "counterexample", "theorem1", "--field", "Qext:-2,0,1",
        "--out", str(spec))
    flags = ["check", "--input", str(spec), "--property", "additive",
             "--seed", "7", "--samples", "3", "--format", "json"]
    _, default, _ = run(capsys, *flags)
    _, sampled, _ = run(capsys, *flags, "--strategy", "sampled")
    assert default == sampled
    assert json.loads(default)["pairs_checked"] == 8  # 5 corner pairs + 3 samples


def test_check_refuses_too_many_samples_at_once(tmp_path, capsys):
    spec = tmp_path / "ratio_q.json"
    run(capsys, "counterexample", "ratio", "--out", str(spec))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--input", str(spec), "--property",
                         "homogeneous", "--strategy", "sampled", "--samples",
                         "100000000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "error: 100000000000 samples exceed the limit 500000\n"


def test_text_and_json_agree(tmp_path, capsys):
    spec = tmp_path / "ind.json"
    run(capsys, "counterexample", "char2-indicator", "--out", str(spec))
    code_t, out_t, _ = run(
        capsys, "check", "--input", str(spec), "--property", "additive"
    )
    code_j, out_j, _ = run(
        capsys, "check", "--input", str(spec), "--property", "additive",
        "--format", "json",
    )
    assert code_t == code_j == 1
    payload = json.loads(out_j)
    assert payload["verdict"] in out_t
    assert payload["witness"]["lhs"] in out_t


def test_counterexample_ratio_char2_rejected(tmp_path, capsys):
    code, _, err = run(
        capsys, "counterexample", "ratio", "--field", "Fq:2:1,1,1",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "error" in err


def test_trace(tmp_path, capsys):
    spec = tmp_path / "ratio_q.json"
    run(capsys, "counterexample", "ratio", "--out", str(spec))
    code, out, _ = run(
        capsys, "trace", "--input", str(spec), "--m", "1", "--n", "2",
        "--x", "(1,1)", "--format", "json",
    )
    payload = json.loads(out)
    assert len(payload["identities"]) == 4
    assert payload["identities"][0]["lhs"] == "(1/4)"


def test_search_exit_codes(capsys):
    code, out, _ = run(
        capsys, "search", "--field", "Fq:2:1,1,1", "--domain-dim", "2",
        "--codomain-dim", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["homogeneous"], payload["homogeneous_additive"],
            payload["non_additive"]) == ("1024", "16", "1008")

    code, _, _ = run(
        capsys, "search", "--field", "Fp:3", "--domain-dim", "1",
        "--codomain-dim", "1",
    )
    assert code == 1

    code, _, err = run(
        capsys, "search", "--field", "Fp:2", "--domain-dim", "8",
        "--codomain-dim", "8",
    )
    assert code == 3
    assert "error" in err


def test_verify_theorem1(capsys):
    code, out, _ = run(
        capsys, "verify-theorem1", "--p", "3", "--domain-dim", "2",
        "--codomain-dim", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["additive"] == "9"
    assert payload["additive_nonhomogeneous"] == "0"


def test_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", "x.json", "--property", "additive",
              "--bogus-flag"])
    assert exc.value.code == 2
    capsys.readouterr()

    code, _, err = run(
        capsys, "check", "--input", str(tmp_path / "missing.json"),
        "--property", "additive",
    )
    assert code == 2
    assert "error" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{\"field\": \"Fp:4\"}")
    code, _, err = run(capsys, "check", "--input", str(bad),
                       "--property", "additive")
    assert code == 2

    out_path = tmp_path / "x.json"
    code, out, err = run(capsys, "counterexample", "theorem1", "--out", str(out_path))
    assert (code, out, err) == (2, "", "error: counterexample theorem1 needs --field\n")
    assert not out_path.exists()


def test_negative_samples_exits_2(tmp_path, capsys):
    spec = tmp_path / "ratio.json"
    assert run(capsys, "counterexample", "ratio", "--out", str(spec))[0] == 0
    check = ["check", "--input", str(spec), "--property", "homogeneous",
             "--strategy", "sampled", "--samples"]
    with pytest.raises(SystemExit) as exc:
        main(check + ["-5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        "addhom check: error: argument --samples: must be >= 0, not -5"
    ]
    with pytest.raises(SystemExit) as exc:
        main(check + ["abc"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        "addhom check: error: argument --samples: invalid int value: 'abc'"
    ]
    # zero draws is a request that can be met: the corner pairs alone
    code, out, _ = run(capsys, *check, "0")
    assert code == 0 and "pairs checked: 12" in out


@pytest.mark.parametrize("argv,option", [
    (["search", "--field", "Fp:2"], "--max-candidates"),
    (["verify-theorem1", "--p", "2"], "--max-candidates"),
    (["search", "--field", "Fp:2"], "--jobs"),
], ids=["search", "verify-theorem1", "search-jobs"])
def test_negative_max_candidates_exits_2(argv, option, capsys):
    argv = argv + ["--domain-dim", "1", "--codomain-dim", "1", option]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"addhom {argv[0]}: error: argument {option}: must be >= 0, not -1"
    ]
    code, out, err = run(capsys, *argv, "0")
    if option == "--jobs":  # accepted and inert: the run of the default
        assert (code, out, err) == run(capsys, *argv[:-1])
        return
    # a limit of 0 is a limit: the guard refuses the instance
    assert (code, out) == (3, "")
    assert err.endswith(" exceed the limit 0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--field", "Fp:3", "--domain-dim", "20", "--codomain-dim", "1"],
        ["search", "--field", "Fp:2", "--domain-dim", "14", "--codomain-dim", "1"],
        ["search", "--field", "Fp:2", "--domain-dim", "100000000",
         "--codomain-dim", "1"],
        ["verify-theorem1", "--p", "2", "--domain-dim", "12",
         "--codomain-dim", "1"],
        ["field", "find-irreducible", "--p", "2", "--degree", "100000000"],
        ["search", "--field", "Fq:2:" + ",".join(["1"] + ["0"] * 299 + ["1"]),
         "--domain-dim", "1", "--codomain-dim", "1"],
        # 2^14 candidates, but 2^28 codomain sums
        ["search", "--field", "Fp:2", "--domain-dim", "1", "--codomain-dim", "14"],
    ],
    ids=["search-Z3-20-1", "search-Z2-14-1",
         "search-Z2-huge-1", "verify-Z2-12-1", "find-irreducible-Z2-huge",
         "search-Fq-degree-300", "search-Z2-1-14"],
)
def test_guard_refuses_at_once_with_one_line(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv,count",
    [
        (["search", "--field", "Fp:3", "--domain-dim", "80", "--codomain-dim", "1"],
         "3^(1*(3^80-1)/2) candidates"),
        # the exponent is printed while it fits 64 bits, past that its formula
        (["search", "--field", "Fp:2", "--domain-dim", "64", "--codomain-dim", "1"],
         "2^18446744073709551615 candidates"),
        (["search", "--field", "Fp:2", "--domain-dim", "65", "--codomain-dim", "1"],
         "2^(1*(2^65-1)/1) candidates"),
        (["verify-theorem1", "--p", "2", "--domain-dim", "63", "--codomain-dim", "1"],
         "2^9223372036854775808 tables"),
        (["verify-theorem1", "--p", "2", "--domain-dim", "64", "--codomain-dim", "1"],
         "2^(1*2^64) tables"),
    ],
    ids=["search-Z3-80-1", "search-Z2-64-1", "search-Z2-65-1", "verify-Z2-63-1",
         "verify-Z2-64-1"],
)
def test_refusal_names_the_count_or_its_formula(capsys, argv, count):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: {count} exceed the limit 100000000\n"


@pytest.mark.parametrize(
    "body,du,prop,code",
    [
        ({"kind": "ratio"}, 2, "homogeneous", 3),
        ({"kind": "ratio"}, 2, "additive", 3),
        ({"kind": "orbit_table", "values": [["(0,0,1)", "(1)"]]}, 3, "additive", 2),
    ],
    ids=["ratio-homogeneous", "ratio-additive", "orbit-table-count"],
)
def test_unfinishable_check_refused_at_once(tmp_path, capsys, body, du, prop, code):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"field": "Fp:1000003", "domain_dim": du, "codomain_dim": 1, "map": body}
    ))
    start = time.perf_counter()
    got, out, err = run(capsys, "check", "--input", str(path), "--property", prop)
    assert time.perf_counter() - start < 1.0
    assert (got, out) == (code, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--field", "Fp:3317044064679887385961981", "--domain-dim",
         "1", "--codomain-dim", "1"],
        ["field", "find-irreducible", "--p", "3317044064679887385961983",
         "--degree", "2"],
    ],
    ids=["search", "find-irreducible"],
)
def test_modulus_past_the_primality_limit_exits_2(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_large_prime_modulus_reaches_the_guard(capsys):
    start = time.perf_counter()
    code, _, err = run(
        capsys, "search", "--field", "Fp:1000000000000000000000007",
        "--domain-dim", "1", "--codomain-dim", "1",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err.startswith("error: 1000000000000000000000007^1 candidates")


def _table_spec(body):
    return json.dumps(
        {"field": "Fp:2", "domain_dim": 1, "codomain_dim": 1, "map": body}
    ).encode()


def _z11_table(value, field="Fp:11"):
    """The identity table of Z_11, with the value at (1) written as value."""
    entries = [[f"({i})", f"({i})"] for i in range(11)]
    entries[1][1] = value
    return json.dumps({"field": field, "domain_dim": 1, "codomain_dim": 1,
                       "map": {"kind": "table", "entries": entries}}).encode()


@pytest.mark.parametrize(
    "content",
    [
        _table_spec({"kind": "table"}),
        _table_spec({"kind": "table", "entries": [["(0)", 7], ["(1)", "(1)"]]}),
        b"\xff\xfe\x00 not utf-8",
        _table_spec({"kind": "table",
                     "entries": [["(0)", "(0)"], ["(1)", "(1)"], ["(1)", "(0)"]]}),
        json.dumps({"field": "Fp:2", "domain_dim": 2.7, "codomain_dim": 1,
                    "map": {"kind": "indicator"}}).encode(),
        json.dumps({"field": "Fp:5", "domain_dim": 1, "codomain_dim": 1,
                    "map": {"kind": "klinear_extension"}}).encode(),
        json.dumps({"field": "Fq:2:1,1,1", "domain_dim": 2, "codomain_dim": 1,
                    "map": {"kind": "klinear_extension"}}).encode(),
        json.dumps({"field": "Fp:5", "domain_dim": 1, "codomain_dim": 1,
                    "map": {"kind": "table", "entries": [
                        ["(0)", "(7)"], ["(1)", "(1)"], ["(2)", "(2)"],
                        ["(3)", "(3)"], ["(4)", "(4)"]]}}).encode(),
        json.dumps({"field": "Fq:2:1,1,1", "domain_dim": 1, "codomain_dim": 1,
                    "map": {"kind": "orbit_table",
                            "values": [["([1,0])", "([1])"]]}}).encode(),
        json.dumps({"field": "Fq:x:1,1,1", "domain_dim": 2, "codomain_dim": 1,
                    "map": {"kind": "indicator"}}).encode(),
        # a JSON integer past Python's 4,300-digit limit for reading integers
        b'{"field": "Fp:2", "domain_dim": ' + b"1" * 5000
        + b', "codomain_dim": 1, "map": {"kind": "ratio"}}',
        # integers only as encode writes them: no "_", "+" or non-ASCII digit
        _z11_table("(1)", field="Fp:1_1"),
        _z11_table("(1)", field="Fp:+11"),
        _z11_table("(1_0)"),
        _z11_table("(+3)"),
        _z11_table("(\u0663)"),
    ],
    ids=["no-entries", "int-value", "not-utf8", "duplicate-input", "float-dim",
         "klinear-prime-field", "klinear-dims", "residue-range",
         "coefficient-count", "descriptor-prime", "json-int-digits",
         "prime-underscore", "prime-plus", "residue-underscore", "residue-plus",
         "residue-arabic-digit"],
)
def test_malformed_spec_exits_2(tmp_path, capsys, content):
    spec = tmp_path / "bad.json"
    spec.write_bytes(content)
    code, _, err = run(capsys, "check", "--input", str(spec),
                       "--property", "additive")
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_quietly(unbuffered):
    env = {"PYTHONPATH": str(Path(addhom.__file__).resolve().parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "addhom.cli", "verify-theorem1", "--p", "3",
             "--domain-dim", "2", "--codomain-dim", "1", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


_HUGE = 10**8


@pytest.mark.parametrize(
    "du,dv,body",
    [
        (_HUGE, 1, {"kind": "table", "entries": []}),
        (1, _HUGE, {"kind": "table",
                    "entries": [["(0)", "(0)"], ["(1)", "(1)"], ["(2)", "(2)"]]}),
        (_HUGE, 1, {"kind": "orbit_table", "values": [["(1)", "(1)"]]}),
        (1, _HUGE, {"kind": "orbit_table", "values": [["(1)", "(1)"]]}),
        (_HUGE, 1, {"kind": "ratio"}),
        (2, _HUGE, {"kind": "ratio"}),
    ],
    ids=["table-domain", "table-codomain", "orbit-domain", "orbit-codomain",
         "ratio-domain", "ratio-codomain"],
)
def test_huge_spec_dimension_refused_before_building_spaces(
    tmp_path, capsys, du, dv, body
):
    spec = {"field": "Fp:3", "domain_dim": du, "codomain_dim": dv, "map": body}
    start = time.perf_counter()
    with pytest.raises(AddhomError) as exc:
        map_from_dict(spec)
    assert len(str(exc.value)) < 200
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "check", "--input", str(path),
                         "--property", "additive")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert len(lines[0]) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--input", "ratio_q.json", "--m", "1", "--n", "2",
         "--x", "(1e5000,1)"],
        ["counterexample", "ratio", "--field", "Qext:-3e5000,0,1", "--out", "r.json"],
        ["trace", "--input", "ratio_q.json", "--m", "1", "--n", "2",
         "--x", "(1e10000000,1)"],
    ],
    ids=["trace-x", "qext-modulus", "trace-x-1e10000000"],
)
def test_rational_with_exponent_exits_2_at_once(tmp_path, capsys, monkeypatch, argv):
    # rationals are read as encode writes them, integers or n/d, never 1e5000
    monkeypatch.chdir(tmp_path)
    run(capsys, "counterexample", "ratio", "--out", "ratio_q.json")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad rational")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_result_too_long_to_print_exits_3(tmp_path, capsys, fmt):
    # xy/(x+y) of two 3,000-digit integers has a numerator past 4,300 digits
    spec = tmp_path / "ratio_q.json"
    run(capsys, "counterexample", "ratio", "--out", str(spec))
    x = f"({'7' * 3000},{'3' * 2999}1)"
    code, out, err = run(capsys, "trace", "--input", str(spec), "--m", "1",
                         "--n", "2", "--x", x, "--format", fmt)
    assert (code, out) == (3, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
