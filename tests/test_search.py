"""Counting formulas, the orbit-table search, and the raw table scans."""

import itertools
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import addhom
from addhom import search
from addhom.errors import (
    DEFAULT_MAX_CANDIDATES,
    NotPrimeField,
    SearchSpaceTooLarge,
    SpecFormatError,
)
from addhom.fields import PrimeField, Rationals, gf
from addhom.maps import (
    EXHAUSTIVE,
    CheckReport,
    IndicatorMap,
    OrbitTableMap,
    Sampled,
    TraceIdentity,
    Witness,
    check_additive,
    check_homogeneous,
    check_linear,
    map_from_dict,
    map_to_dict,
)
from addhom.search import (
    SearchConfig,
    SearchResult,
    TableScanReport,
    count_homogeneous,
    count_linear,
    scan_additive_tables,
    search_homogeneous_nonadditive,
    verify_theorem1_prime,
)
from addhom.spaces import VectorSpace

Z2 = PrimeField(2)
Z3 = PrimeField(3)
Z5 = PrimeField(5)
GF4 = gf(2, 2)
GF9 = gf(3, 2)


# brute-force oracles over raw tables (tiny instances only) --------------------

def _all_table_maps(field, du, dv):
    dom = VectorSpace(field, du)
    cod = VectorSpace(field, dv)
    dvecs = list(dom.vectors())
    cvecs = list(cod.vectors())
    for outs in itertools.product(cvecs, repeat=len(dvecs)):
        yield dom, cod, dict(zip(dvecs, outs))


def _table_is_homogeneous(field, dom, cod, table):
    for lam in field.elements():
        for v in dom.vectors():
            if table[dom.scalar_mul(lam, v)] != cod.scalar_mul(lam, table[v]):
                return False
    return True


def _table_is_additive(dom, cod, table):
    vecs = list(dom.vectors())
    for u1 in vecs:
        for u2 in vecs:
            if table[dom.add(u1, u2)] != cod.add(table[u1], table[u2]):
                return False
    return True


# counting --------------------------------------------------------------------

def test_count_homogeneous_examples():
    assert count_homogeneous(GF4, 2, 1) == 1024
    assert count_homogeneous(Z2, 2, 1) == 8
    for field in (Z2, Z3, Z5, GF4):
        assert count_homogeneous(field, 1, 1) == field.order


def test_count_linear_examples():
    assert count_linear(GF4, 2, 1) == 16
    assert count_linear(Z2, 2, 1) == 4
    assert count_linear(Z3, 1, 1) == 3


@pytest.mark.parametrize(
    "field,du,dv",
    [(Z2, 1, 1), (Z2, 2, 1), (Z2, 1, 2), (Z2, 2, 2), (Z3, 1, 1), (GF4, 1, 1)],
    ids=["Z2-1-1", "Z2-2-1", "Z2-1-2", "Z2-2-2", "Z3-1-1", "GF4-1-1"],
)
def test_counts_match_raw_table_bruteforce(field, du, dv):
    hom = 0
    lin = 0
    for dom, cod, table in _all_table_maps(field, du, dv):
        if _table_is_homogeneous(field, dom, cod, table):
            hom += 1
            if _table_is_additive(dom, cod, table):
                lin += 1
    assert hom == count_homogeneous(field, du, dv)
    assert lin == count_linear(field, du, dv)


def test_counts_need_finite_field():
    from addhom.errors import InfiniteFieldError

    with pytest.raises(InfiniteFieldError):
        count_homogeneous(Rationals(), 2, 1)


# orbit-table search -------------------------------------------------------------

def test_search_z2_counts_and_indicator_among_witnesses():
    config = SearchConfig(Z2, 2, 1, mode="enumerate_all")
    result = search_homogeneous_nonadditive(config)
    assert result.homogeneous_count == 8
    assert result.homogeneous_additive_count == 4
    assert result.non_additive_count == 4
    indicator = IndicatorMap()
    dom = indicator.domain

    def same_function(m):
        return all(m.evaluate(v) == indicator.evaluate(v) for v in dom.vectors())

    assert any(same_function(m) for m in result.witness_maps)


def test_search_gf4_counts_and_witness():
    result = search_homogeneous_nonadditive(SearchConfig(GF4, 2, 1))
    assert result.homogeneous_count == 1024
    assert result.homogeneous_additive_count == 16
    assert result.non_additive_count == 1008
    assert result.witness_map is not None
    assert check_homogeneous(result.witness_map, EXHAUSTIVE).verdict == (
        "holds_exhaustive"
    )
    add = check_additive(result.witness_map, EXHAUSTIVE)
    assert add.verdict == "violated"
    assert result.witness_report == add


def test_search_dim1_finds_nothing():
    for field in (Z2, Z3, Z5, GF4):
        result = search_homogeneous_nonadditive(SearchConfig(field, 1, 1))
        assert result.non_additive_count == 0
        assert result.witness_map is None


def test_search_additive_count_equals_linear_count():
    for field, du, dv in [(Z2, 2, 1), (Z2, 2, 2), (Z3, 2, 1), (GF4, 2, 1)]:
        result = search_homogeneous_nonadditive(SearchConfig(field, du, dv))
        assert result.homogeneous_additive_count == count_linear(field, du, dv)
        assert result.homogeneous_count == count_homogeneous(field, du, dv)


def test_search_count_only_mode_suppresses_witness():
    result = search_homogeneous_nonadditive(
        SearchConfig(Z2, 2, 1, mode="count_only")
    )
    assert result.non_additive_count == 4
    assert result.witness_map is None
    assert result.witness_report is None


def test_search_guard_refuses():
    with pytest.raises(SearchSpaceTooLarge):
        search_homogeneous_nonadditive(SearchConfig(Z2, 8, 8))


def test_search_parallel_determinism():
    results = [
        search_homogeneous_nonadditive(SearchConfig(GF4, 2, 1, jobs=jobs)).to_dict()
        for jobs in (1, 2, 4)
    ]
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("mode", ["count_only", "first_witness", "enumerate_all"])
def test_search_builds_index_tables_once(monkeypatch, mode, jobs):
    calls = []
    init = search._IndexTables.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(search._IndexTables, "__init__", counting_init)
    result = search_homogeneous_nonadditive(
        SearchConfig(Z3, 2, 1, mode=mode, jobs=jobs)
    )
    listed = list(result.witness_maps)  # the stream reuses the search's tables
    assert len(listed) == (result.non_additive_count if mode == "enumerate_all" else 0)
    assert len(calls) == 1


def test_search_refuses_an_unknown_mode_before_building_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("index tables built for an unknown mode")

    monkeypatch.setattr(search._IndexTables, "__init__", refuse)
    for du in (2, 20):  # 20 would trip the candidate guard
        with pytest.raises(SpecFormatError) as err:
            search_homogeneous_nonadditive(SearchConfig(Z3, du, 1, mode="bogus"))
        for mode in ("count_only", "first_witness", "enumerate_all"):
            assert mode in str(err.value)


def test_enumerate_all_streams_its_witnesses():
    first = search_homogeneous_nonadditive(SearchConfig(Z3, 2, 2))
    tracemalloc.start()
    try:
        result = search_homogeneous_nonadditive(
            SearchConfig(Z3, 2, 2, mode="enumerate_all")
        )
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 6480 non-additive maps, held as a list, take several MB
    assert held < 0.5 * 2**20
    listed = [map_to_dict(m) for m in result.witness_maps]
    assert len(listed) == result.non_additive_count == 6480
    assert listed[0] == map_to_dict(first.witness_map)


# the package's records: construction, defaults, equality, frozenness --------

RECORDS = [  # class, every field in order, defaults of the trailing ones, frozen
    (Witness, {"kind": "additivity", "inputs": ((0,), (1,)), "lhs": (1,), "rhs": (0,)},
     {}, True),
    (Sampled, {"seed": 7, "samples": 3}, {"seed": 24001, "samples": 200}, True),
    (CheckReport, {"property": "additive", "verdict": "violated", "witness": None,
                   "pairs_checked": 4}, {}, False),
    (TraceIdentity, {"label": "step", "lhs": (1,), "rhs": (2,)}, {}, True),
    (SearchConfig, {"field": Z3, "domain_dim": 2, "codomain_dim": 1,
                    "mode": "count_only", "max_candidates": 9, "jobs": 2},
     {"mode": "first_witness", "max_candidates": DEFAULT_MAX_CANDIDATES, "jobs": 1},
     False),
    (SearchResult, {"field_descriptor": "Fp:3", "domain_dim": 2, "codomain_dim": 1,
                    "mode": "enumerate_all", "homogeneous_count": 81,
                    "homogeneous_additive_count": 9, "witness_map": "map",
                    "witness_report": "report", "witness_maps": ["maps"]},
     {"witness_map": None, "witness_report": None, "witness_maps": ()}, False),
    (TableScanReport, {"field_descriptor": "Fp:2", "domain_dim": 1, "codomain_dim": 1,
                       "tables_total": 4, "additive_count": 2,
                       "expected_additive": 2, "additive_nonhomogeneous_count": 0,
                       "first_nonhomogeneous": "map"},
     {"first_nonhomogeneous": None}, False),
]


@pytest.mark.parametrize("cls, fields, defaults, frozen", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaults, frozen):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword and not by_position != by_keyword
    assert {k: getattr(by_keyword, k) for k in fields} == fields
    bare = cls(**{k: v for k, v in fields.items() if k not in defaults})
    assert {k: getattr(bare, k) for k in defaults} == defaults
    last = list(fields)[-1]
    assert cls(**{**fields, last: object()}) != by_keyword
    assert by_keyword != tuple(fields.values())
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(by_keyword) == f"{cls.__name__}({shown})"
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{last: None})
    if len(defaults) < len(fields):
        with pytest.raises(TypeError):
            cls()
    if frozen:
        with pytest.raises(AttributeError):
            setattr(by_keyword, last, None)
        assert hash(by_position) == hash(by_keyword)
        assert {by_position: 1}[by_keyword] == 1
    else:  # search sets SearchResult.witness_maps after construction
        setattr(by_keyword, last, "later")
        assert getattr(by_keyword, last) == "later" and by_keyword != by_position
        with pytest.raises(TypeError):
            hash(by_keyword)


def test_cli_import_leaves_out_process_pool():
    # nor dataclasses and what it imports: every CLI call would pay for them
    unused = ("concurrent.futures", "multiprocessing",
              "dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, addhom.cli; print([m for m in {unused!r} if m in sys.modules])"
    src = str(Path(addhom.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    ).stdout
    assert out.strip() == "[]"


def _orbit_bruteforce_nonadditive(field, du, dv):
    """Oracle: every orbit-table map in itertools.product order, filtered by
    the exhaustive map-level additivity checker."""
    dom = VectorSpace(field, du)
    cod = VectorSpace(field, dv)
    reps = dom.orbits()
    maps = (
        OrbitTableMap(dom, cod, dict(zip(reps, values)))
        for values in itertools.product(list(cod.vectors()), repeat=len(reps))
    )
    return [m for m in maps if not check_additive(m, EXHAUSTIVE).holds]


@pytest.mark.parametrize(
    "field,du,dv", [(Z3, 2, 1), (GF4, 1, 2), (Z2, 2, 2)],
    ids=["Z3-2-1", "GF4-1-2", "Z2-2-2"],
)
def test_search_matches_orbit_bruteforce(field, du, dv):
    expected = [map_to_dict(m) for m in _orbit_bruteforce_nonadditive(field, du, dv)]
    listed = search_homogeneous_nonadditive(
        SearchConfig(field, du, dv, mode="enumerate_all")
    )
    assert [map_to_dict(m) for m in listed.witness_maps] == expected
    assert listed.non_additive_count == len(expected)
    first = search_homogeneous_nonadditive(SearchConfig(field, du, dv))
    witness = map_to_dict(first.witness_map) if first.witness_map else None
    assert witness == (expected[0] if expected else None)


def test_search_canonical_first_witness_z2():
    # assignment order is orbit-major, value-rank minor; the first
    # non-additive assignment over Z_2 (2 -> 1) is (0, 0, 1)
    result = search_homogeneous_nonadditive(SearchConfig(Z2, 2, 1))
    assert map_to_dict(result.witness_map)["map"]["values"] == [
        ["(0,1)", "(0)"],
        ["(1,0)", "(0)"],
        ["(1,1)", "(1)"],
    ]


def test_search_result_json_shape():
    d = search_homogeneous_nonadditive(SearchConfig(Z2, 2, 1)).to_dict()
    assert d["homogeneous"] == "8"
    assert d["homogeneous_additive"] == "4"
    assert d["non_additive"] == "4"
    assert d["witness"]["map"]["kind"] == "orbit_table"
    assert d["witness_report"]["verdict"] == "violated"
    assert d["instance"]["field"] == "Fp:2"


# raw table scans -------------------------------------------------------------------

@pytest.mark.parametrize(
    "p,du,dv,expected",
    [(2, 1, 1, 2), (2, 2, 1, 4), (2, 2, 2, 16), (3, 1, 1, 3), (3, 2, 1, 9),
     (5, 1, 1, 5)],
)
def test_verify_theorem1_prime_instances(p, du, dv, expected):
    report = verify_theorem1_prime(PrimeField(p), du, dv)
    assert report.additive_count == expected == p ** (du * dv)
    assert report.additive_nonhomogeneous_count == 0
    assert report.additivity_implies_homogeneity


def test_verify_theorem1_matches_naive_filter():
    # independent pass with map-level checkers over all Z_3 tables, dims 1 -> 1
    from addhom.maps import TableMap

    additive = 0
    for dom, cod, table in _all_table_maps(Z3, 1, 1):
        m = TableMap(dom, cod, table)
        if check_additive(m, EXHAUSTIVE).holds:
            additive += 1
            assert check_homogeneous(m, EXHAUSTIVE).holds
    assert additive == verify_theorem1_prime(Z3, 1, 1).additive_count == 3


def test_verify_theorem1_rejects_non_prime():
    with pytest.raises(NotPrimeField):
        verify_theorem1_prime(GF4, 1, 1)
    with pytest.raises(NotPrimeField):
        verify_theorem1_prime(Rationals(), 1, 1)


def test_gf4_contrast_has_additive_nonhomogeneous_tables():
    report = scan_additive_tables(GF4, 1, 1)
    assert report.additive_count == 16
    assert report.additive_nonhomogeneous_count == 12
    m = report.first_nonhomogeneous
    assert check_additive(m, EXHAUSTIVE).holds
    assert not check_homogeneous(m, EXHAUSTIVE).holds
    assert check_linear(m, EXHAUSTIVE).witness.kind == "homogeneity"
    d = report.to_dict()
    assert (d["additive_nonhomogeneous"], d["expected_additive"]) == ("12", "4")
    assert d["additivity_implies_homogeneity"] is False
    decoded = map_from_dict(d["counterexample"])
    assert check_additive(decoded, EXHAUSTIVE).holds
    assert not check_homogeneous(decoded, EXHAUSTIVE).holds


@pytest.mark.parametrize(
    "field,du,dv",
    [(Z2, 2, 1), (Z3, 1, 2), (GF4, 1, 1), (Z2, 3, 1), (Z2, 2, 2), (Z3, 2, 1)],
    ids=["Z2-2-1", "Z3-1-2", "GF4-1-1", "Z2-3-1", "Z2-2-2", "Z3-2-1"],
)
def test_constraint_lists_match_table_oracles(field, du, dv):
    tables = search._IndexTables(VectorSpace(field, du), VectorSpace(field, dv))
    for dom, cod, table in _all_table_maps(field, du, dv):
        phi = [tables.cvecs.index(table[v]) for v in dom.vectors()]
        assert tables.is_additive(phi) == _table_is_additive(dom, cod, table)
        assert tables.is_homogeneous(phi) == _table_is_homogeneous(
            field, dom, cod, table
        )


def _linear_index_tables(monkeypatch, field, du, dv):
    """(orbit search result, table scan report, the index tables the search
    counts as additive, those the scan finds additive and homogeneous): the
    tables as sets of tuples of codomain ranks, recorded as each engine's
    own tests pass them."""
    cls = search._IndexTables
    is_additive, is_homogeneous = cls.is_additive, cls.is_homogeneous
    reached = [set(), set()]

    def recording(test, into):
        def recorded(self, phi):
            if test(self, phi):
                into.add(tuple(phi))
                return True
            return False
        return recorded

    monkeypatch.setattr(cls, "is_additive", recording(is_additive, reached[0]))
    result = search_homogeneous_nonadditive(SearchConfig(field, du, dv))
    monkeypatch.setattr(cls, "is_additive", is_additive)
    monkeypatch.setattr(cls, "is_homogeneous", recording(is_homogeneous, reached[1]))
    # a limit that admits every table; the scan walks only the additive ones
    tables_total = field.order ** (dv * field.order**du)
    report = scan_additive_tables(field, du, dv, max_candidates=tables_total)
    return result, report, *reached


CROSS_ENGINE = [(GF4, 2, 1, 16), (GF4, 1, 2, 16), (Z3, 2, 1, 9), (Z2, 3, 1, 8),
                (Z5, 2, 1, 25)]


@pytest.mark.parametrize("field,du,dv,linear", CROSS_ENGINE,
                         ids=["GF4-2-1", "GF4-1-2", "Z3-2-1", "Z2-3-1", "Z5-2-1"])
def test_both_engines_reach_the_same_linear_maps(monkeypatch, field, du, dv, linear):
    # the closed forms check counts only; A and H iff linear fixes the maps
    _, _, by_search, by_scan = _linear_index_tables(monkeypatch, field, du, dv)
    assert len(by_search) == linear == count_linear(field, du, dv)
    assert by_search == by_scan


def test_index_tables_hold_basis_constraints_only():
    # Z_2 9->1: n = 512 indices, d*du = 9 basis vectors
    tables = search._IndexTables(VectorSpace(Z2, 9), VectorSpace(Z2, 1))
    assert len(tables.sums) == 512 * 9
    assert len(tables.scales) == 512


ORACLE_FIELDS = [Z2, Z3, Z5, PrimeField(7), GF4, gf(2, 3), GF9, gf(3, 3)]
TABLE_ORACLE = [(f, du, dv) for f in ORACLE_FIELDS for du in (1, 2, 3) for dv in (1, 2, 3)
                if f.order**du <= 729 and f.order**dv <= 27]


@pytest.mark.parametrize("field,du,dv", TABLE_ORACLE,
                         ids=[f"{f.order}-{du}-{dv}" for f, du, dv in TABLE_ORACLE])
def test_index_tables_match_vector_arithmetic(field, du, dv):
    # every table the orbit search builds, read back through VectorSpace
    dom, cod = VectorSpace(field, du), VectorSpace(field, dv)
    tables = search._IndexTables(dom, cod, True)
    dvecs, cvecs = list(dom.vectors()), list(cod.vectors())
    assert len(tables.cadd) == len(cvecs)
    for a, row in enumerate(tables.cadd):
        assert row == [cod.rank(cod.add(cvecs[a], w)) for w in cvecs]
    p, d = field.characteristic, field.degree
    basis = [p**k for k in range(d * du)]
    assert [(i, e) for i, e, _ in tables.sums] == [(i, e) for i in range(len(dvecs))
                                                   for e in basis]
    for i, e, k in tables.sums:
        assert k == dom.rank(dom.add(dvecs[i], dvecs[e]))
    assert tables.reps == [dom.rank(v) for v in dom.orbits()]
    assert len(tables.orbit_of) == len(dvecs) - 1
    scaled = {}  # codomain row of each scalar, by its rank
    for v, (o, act) in zip(dvecs[1:], tables.orbit_of):
        rep, scale = dom.canonical_rep(v)
        assert dom.orbits()[o] == rep
        s = field.rank(scale)
        if s not in scaled:
            scaled[s] = [cod.rank(cod.scalar_mul(scale, w)) for w in cvecs]
        assert act == scaled[s]


def test_table_scan_guard():
    with pytest.raises(SearchSpaceTooLarge):
        scan_additive_tables(Z5, 3, 3)


def test_guards_refuse_before_building_tables():
    start = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge, match=r"^2\^4096 tables exceed"):
        scan_additive_tables(Z2, 12, 1)
    with pytest.raises(SearchSpaceTooLarge, match=r"^3\^1743392200 candidates"):
        search_homogeneous_nonadditive(SearchConfig(Z3, 20, 1))
    with pytest.raises(SearchSpaceTooLarge, match=r"^2\^16383 candidates"):
        search_homogeneous_nonadditive(SearchConfig(Z2, 14, 1))
    assert time.perf_counter() - start < 1.0


def test_guard_limit_is_inclusive():
    result = search_homogeneous_nonadditive(
        SearchConfig(GF4, 2, 1, mode="count_only", max_candidates=1024)
    )
    assert result.homogeneous_count == 1024
    with pytest.raises(SearchSpaceTooLarge, match=r"^4\^5 candidates"):
        search_homogeneous_nonadditive(
            SearchConfig(GF4, 2, 1, mode="count_only", max_candidates=1023)
        )
    assert scan_additive_tables(Z2, 2, 1, max_candidates=16).tables_total == 16
    with pytest.raises(SearchSpaceTooLarge, match=r"^2\^4 tables"):
        scan_additive_tables(Z2, 2, 1, max_candidates=15)
    # at du = 1 the q^(2*dv) codomain sum table binds before the q^dv candidates
    with pytest.raises(SearchSpaceTooLarge,
                       match=r"^2\^12 codomain sums exceed the limit 1024$"):
        search_homogeneous_nonadditive(SearchConfig(Z2, 1, 6, max_candidates=1024))
    result = search_homogeneous_nonadditive(
        SearchConfig(Z2, 1, 6, mode="count_only", max_candidates=4096)
    )
    assert result.homogeneous_count == 64


def test_codomain_sum_guard_admits_its_real_limit():
    # Z_2 1 -> 6: 2^6 candidates but 2^12 codomain sums, on both sides of
    # 2^12; plain asserts, so a guard that lets the sums through fails here
    outcomes = []
    for limit in (4095, 4096):
        config = SearchConfig(Z2, 1, 6, mode="count_only", max_candidates=limit)
        try:
            outcomes.append(search_homogeneous_nonadditive(config).homogeneous_count)
        except SearchSpaceTooLarge as exc:
            outcomes.append(str(exc))
    assert outcomes == ["2^12 codomain sums exceed the limit 4095", 64]


# pruned raw table scan ---------------------------------------------------------------

@pytest.mark.parametrize(
    "field,du,dv",
    [(Z2, 1, 1), (Z2, 2, 1), (Z2, 1, 2), (Z2, 2, 2), (Z3, 1, 1), (Z3, 1, 2),
     (GF4, 1, 1)],
    ids=["Z2-1-1", "Z2-2-1", "Z2-1-2", "Z2-2-2", "Z3-1-1", "Z3-1-2", "GF4-1-1"],
)
def test_table_scan_matches_raw_table_bruteforce(field, du, dv):
    from addhom.maps import TableMap

    additive = bad = 0
    first = None
    # itertools.product order: the first hit is the lexicographically first
    for dom, cod, table in _all_table_maps(field, du, dv):
        if not _table_is_additive(dom, cod, table):
            continue
        additive += 1
        if not _table_is_homogeneous(field, dom, cod, table):
            bad += 1
            if first is None:
                first = map_to_dict(TableMap(dom, cod, table))
    report = scan_additive_tables(field, du, dv)
    # additive tables are the Z_p-linear maps: p^(d*du * d*dv) of them
    d = 2 if field is GF4 else 1
    assert report.additive_count == additive == field.characteristic ** (
        d * du * d * dv
    )
    assert report.additive_nonhomogeneous_count == bad
    got = report.first_nonhomogeneous
    assert (map_to_dict(got) if got else None) == first
    assert (first is None) == (field is not GF4)


@pytest.mark.parametrize(
    "field,du,dv,additive,bad",
    [(Z3, 2, 2, 81, 0), (GF4, 2, 1, 256, 240), (Z2, 9, 1, 512, 0),
     (GF9, 2, 1, 6561, 6480)],
    ids=["Z3-2-2", "GF4-2-1", "Z2-9-1", "GF9-2-1"],
)
def test_table_scan_reaches_past_the_default_guard(field, du, dv, additive, bad):
    # 3^36 (3.9e8), 4^16 (4.3e9), 2^512 and 9^81 tables, opened by an
    # explicit limit
    tables = field.order ** (dv * field.order**du)
    assert tables > search.DEFAULT_MAX_CANDIDATES
    start = time.perf_counter()
    report = scan_additive_tables(field, du, dv, max_candidates=tables)
    assert time.perf_counter() - start < 1.0
    assert report.tables_total == tables
    assert report.additive_count == additive
    assert report.additive_nonhomogeneous_count == bad


@pytest.mark.parametrize(
    "field,du,dv,leaves", [(Z2, 9, 1, 512), (GF9, 2, 1, 6561)],
    ids=["Z2-9-1", "GF9-2-1"],
)
def test_table_scan_tests_one_table_per_additive_one(
    monkeypatch, field, du, dv, leaves
):
    # only the free positions branch, so every filled table is additive
    calls = []
    is_additive = search._IndexTables.is_additive

    def counting(self, phi):
        calls.append(None)
        return is_additive(self, phi)

    monkeypatch.setattr(search._IndexTables, "is_additive", counting)
    tables = field.order ** (dv * field.order**du)
    report = scan_additive_tables(field, du, dv, max_candidates=tables)
    assert report.additive_count == len(calls) == leaves


def test_table_scan_stack_does_not_grow_with_the_domain():
    # 128 table positions, walked under a limit 100 frames above this one
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        report = verify_theorem1_prime(Z2, 7, 1, max_candidates=2**128)
    finally:
        sys.setrecursionlimit(limit)
    assert report.additive_count == 2**7
    assert report.additive_nonhomogeneous_count == 0
