"""Counterexample constructions, property checkers, trace, serialization."""

import gc
import itertools
import json
import random
import time
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from addhom import maps
from addhom.errors import (
    CharacteristicMismatch,
    CharacteristicTwo,
    DimensionMismatch,
    DivisionByZero,
    DomainMismatch,
    FieldMismatch,
    InfiniteDomainExhaustive,
    InfiniteFieldError,
    NonMonicModulus,
    NotAnExtension,
    SearchSpaceTooLarge,
    SpecFormatError,
    UnsupportedDegree,
    UnsupportedTower,
    ZeroDenominator,
)
from addhom.fields import (
    ExtensionField,
    Field,
    PrimeField,
    Rationals,
    find_irreducible,
    gf,
    is_irreducible,
    parse_field,
)
from addhom.maps import (
    EXHAUSTIVE,
    IndicatorMap,
    KLinearExtensionMap,
    OrbitTableMap,
    RatioMap,
    Sampled,
    CheckReport,
    TableMap,
    VectorMap,
    Witness,
    _additivity_pairs,
    _homogeneity_pairs,
    build_char2_indicator,
    build_ratio_map,
    build_theorem1_counterexample,
    check_additive,
    check_homogeneous,
    check_linear,
    map_from_dict,
    map_from_json,
    map_to_dict,
    map_to_json,
    rational_proof_trace,
    report_to_dict,
)
from addhom.search import (
    SearchConfig,
    _reverify,
    count_linear,
    search_homogeneous_nonadditive,
)
from addhom.spaces import VectorSpace

Q = Rationals()
Z2 = PrimeField(2)
Z3 = PrimeField(3)
Z5 = PrimeField(5)
GF4 = gf(2, 2)
GF8 = gf(2, 3)
GF9 = gf(3, 2)
QS2 = ExtensionField(Q, (Fraction(-2), Fraction(0), Fraction(1)))


def frac(n, d=1):
    return Fraction(n, d)


# evaluation -----------------------------------------------------------------

def test_ratio_map_values_over_q():
    m = build_ratio_map(Q)
    assert m.evaluate((frac(1), frac(1))) == (frac(1, 2),)
    assert m.evaluate((frac(1), frac(0))) == (frac(0),)
    assert m.evaluate((frac(0), frac(1))) == (frac(0),)
    assert m.evaluate((frac(1), frac(-1))) == (frac(0),)  # guard branch


def test_ratio_map_over_z3():
    m = build_ratio_map(Z3)
    # 1*1 * inv(1+1) = inv(2) = 2 in Z_3
    assert m.evaluate((1, 1)) == (2,)


def test_indicator_values():
    m = build_char2_indicator()
    assert m.evaluate((0, 0)) == (0,)
    assert m.evaluate((1, 0)) == (1,)
    assert m.evaluate((0, 1)) == (1,)
    assert m.evaluate((1, 1)) == (1,)


def test_domain_mismatch():
    m = build_ratio_map(Q)
    with pytest.raises(DomainMismatch):
        m.evaluate((frac(1),))
    with pytest.raises(DomainMismatch):
        m.evaluate((1, 1))


def test_ratio_map_char2_rejected():
    with pytest.raises(CharacteristicTwo):
        build_ratio_map(GF4)
    with pytest.raises(CharacteristicTwo):
        build_ratio_map(Z2)


# theorem-1 construction -------------------------------------------------------

def test_theorem1_gf4_closed_form():
    m = build_theorem1_counterexample(GF4)
    a = GF4.generator
    # phi(c0 + c1*a) = (c0 + c1) * a
    for v in m.domain.vectors():
        c0, c1 = v[0]
        expected = GF4.mul(GF4.embed((c0 + c1) % 2, 2), a)
        assert m.evaluate(v) == (expected,)
    assert m.evaluate((GF4.one,)) == (a,) == m.evaluate((a,))


def test_theorem1_qsqrt2_closed_form():
    m = build_theorem1_counterexample(QS2)
    s = QS2.generator
    # phi(a + b*sqrt2) = (a + b) * sqrt2
    assert m.evaluate(((frac(3), frac(-1)),)) == ((frac(0), frac(2)),)
    assert m.evaluate((QS2.one,)) == (s,)


def test_theorem1_rejects_prime_fields():
    with pytest.raises(NotAnExtension):
        build_theorem1_counterexample(Z5)
    with pytest.raises(NotAnExtension):
        build_theorem1_counterexample(Q)


@pytest.mark.parametrize("field", [GF4, GF8, GF9], ids=lambda f: f.descriptor())
def test_theorem1_finite_additive_not_homogeneous(field):
    m = build_theorem1_counterexample(field)
    add = check_additive(m, EXHAUSTIVE)
    assert add.verdict == "holds_exhaustive"
    hom = check_homogeneous(m, EXHAUSTIVE)
    assert hom.verdict == "violated"
    # canonical witness: lambda = generator, u = 1; embodies f*f != f
    assert hom.witness.inputs == (field.generator, (field.one,))
    assert hom.witness.lhs == (field.generator,)
    assert hom.witness.rhs == (field.mul(field.generator, field.generator),)


def test_theorem1_gf4_witness_values():
    m = build_theorem1_counterexample(GF4)
    hom = check_homogeneous(m, EXHAUSTIVE)
    assert hom.witness.lhs == ((0, 1),)  # alpha
    assert hom.witness.rhs == ((1, 1),)  # alpha + 1
    assert hom.pairs_checked == 10


def test_theorem1_qsqrt2_sampled():
    m = build_theorem1_counterexample(QS2)
    add = check_additive(m, Sampled())
    assert add.verdict == "holds_on_samples"
    hom = check_homogeneous(m, Sampled())
    assert hom.verdict == "violated"
    sqrt2 = QS2.generator
    assert hom.witness.inputs == (sqrt2, (QS2.one,))
    assert hom.witness.lhs == (sqrt2,)
    assert hom.witness.rhs == (QS2.from_int(2),)


# checkers ---------------------------------------------------------------------

def test_indicator_reports():
    m = build_char2_indicator()
    add = check_additive(m, EXHAUSTIVE)
    assert add.verdict == "violated"
    assert add.witness.inputs == ((0, 1), (1, 0))
    assert add.witness.lhs == (1,)
    assert add.witness.rhs == (0,)
    hom = check_homogeneous(m, EXHAUSTIVE)
    assert hom.verdict == "holds_exhaustive"
    assert hom.pairs_checked == 8


def test_ratio_q_sampled_reports():
    m = build_ratio_map(Q)
    add = check_additive(m, Sampled(seed=24001, samples=200))
    assert add.verdict == "violated"
    assert add.witness.inputs == ((frac(1), frac(0)), (frac(0), frac(1)))
    assert add.witness.lhs == (frac(1, 2),)
    assert add.witness.rhs == (frac(0),)
    hom = check_homogeneous(m, Sampled(seed=24001, samples=200))
    assert hom.verdict == "holds_on_samples"


QC2 = parse_field("Qext:-2,0,0,1")


@pytest.mark.parametrize(
    "m,check,expected",
    [
        (build_ratio_map(QC2), check_homogeneous,
         {"property": "homogeneous", "verdict": "holds_on_samples",
          "witness": None, "pairs_checked": 216}),
        (build_ratio_map(QS2), check_additive,
         {"property": "additive", "verdict": "violated",
          "witness": {"kind": "additivity",
                      "inputs": ["([1,0],[0,0])", "([0,0],[1,0])"],
                      "lhs": "([1/2,0])", "rhs": "([0,0])"},
          "pairs_checked": 7}),
        (build_theorem1_counterexample(QC2), check_additive,
         {"property": "additive", "verdict": "holds_on_samples",
          "witness": None, "pairs_checked": 205}),
        (build_theorem1_counterexample(QC2), check_homogeneous,
         {"property": "homogeneous", "verdict": "violated",
          "witness": {"kind": "homogeneity", "inputs": ["[0,1,0]", "([1,0,0])"],
                      "lhs": "([0,1,0])", "rhs": "([0,0,1])"},
          "pairs_checked": 8}),
    ],
    ids=["ratio-cbrt2-hom", "ratio-sqrt2-add", "thm1-cbrt2-add", "thm1-cbrt2-hom"],
)
def test_q_extension_sampled_reports_are_pinned(m, check, expected):
    # literals recorded with per-coefficient Fraction arithmetic
    assert report_to_dict(m, check(m, Sampled(seed=24001, samples=200))) == expected


SAMPLED_REPORT_BYTES = [  # field, map, property, report JSON
    ("Q", "ratio", "additive",
     '{"property": "additive", "verdict": "violated", '
     '"witness": {"kind": "additivity", "inputs": ["(1,0)", "(0,1)"], '
     '"lhs": "(1/2)", "rhs": "(0)"}, "pairs_checked": 7}'),
    ("Q", "ratio", "homogeneous",
     '{"property": "homogeneous", "verdict": "holds_on_samples", '
     '"witness": null, "pairs_checked": 212}'),
    ("Qext:-2,0,1", "ratio", "additive",
     '{"property": "additive", "verdict": "violated", '
     '"witness": {"kind": "additivity", "inputs": ["([1,0],[0,0])", '
     '"([0,0],[1,0])"], "lhs": "([1/2,0])", "rhs": "([0,0])"}, '
     '"pairs_checked": 7}'),
    ("Qext:-2,0,1", "ratio", "homogeneous",
     '{"property": "homogeneous", "verdict": "holds_on_samples", '
     '"witness": null, "pairs_checked": 216}'),
    ("Qext:-2,0,1", "thm1", "additive",
     '{"property": "additive", "verdict": "holds_on_samples", '
     '"witness": null, "pairs_checked": 205}'),
    ("Qext:-2,0,1", "thm1", "homogeneous",
     '{"property": "homogeneous", "verdict": "violated", '
     '"witness": {"kind": "homogeneity", "inputs": ["[0,1]", "([1,0])"], '
     '"lhs": "([0,1])", "rhs": "([2,0])"}, "pairs_checked": 8}'),
    ("Qext:-2,0,0,1", "ratio", "additive",
     '{"property": "additive", "verdict": "violated", '
     '"witness": {"kind": "additivity", "inputs": ["([1,0,0],[0,0,0])", '
     '"([0,0,0],[1,0,0])"], "lhs": "([1/2,0,0])", "rhs": "([0,0,0])"}, '
     '"pairs_checked": 7}'),
    ("Qext:-2,0,0,1", "ratio", "homogeneous",
     '{"property": "homogeneous", "verdict": "holds_on_samples", '
     '"witness": null, "pairs_checked": 216}'),
    ("Qext:-2,0,0,1", "thm1", "additive",
     '{"property": "additive", "verdict": "holds_on_samples", '
     '"witness": null, "pairs_checked": 205}'),
    ("Qext:-2,0,0,1", "thm1", "homogeneous",
     '{"property": "homogeneous", "verdict": "violated", '
     '"witness": {"kind": "homogeneity", "inputs": ["[0,1,0]", '
     '"([1,0,0])"], "lhs": "([0,1,0])", "rhs": "([0,0,1])"}, '
     '"pairs_checked": 8}'),
]


@pytest.mark.parametrize("seed", [13, 24001])
def test_sampled_reports_keep_their_bytes(seed):
    # recorded with Fraction(randint, randint) draws and ratio values through
    # field add/mul/div; the same bytes at both seeds
    builders = {"ratio": build_ratio_map, "thm1": build_theorem1_counterexample}
    checks = {"additive": check_additive, "homogeneous": check_homogeneous}
    for desc, kind, prop, want in SAMPLED_REPORT_BYTES:
        m = builders[kind](parse_field(desc))
        report = checks[prop](m, Sampled(seed=seed))
        assert json.dumps(report_to_dict(m, report)) == want, (desc, kind, prop)


@pytest.mark.parametrize("field", [Z3, Z5, GF9], ids=lambda f: f.descriptor())
def test_ratio_finite_fields(field):
    m = build_ratio_map(field)
    hom = check_homogeneous(m, EXHAUSTIVE)
    assert hom.verdict == "holds_exhaustive"
    add = check_additive(m, EXHAUSTIVE)
    assert add.verdict == "violated"
    # first violation in enumeration order pairs the two unit vectors
    assert set(add.witness.inputs) == {
        (field.zero, field.one),
        (field.one, field.zero),
    }


def test_exhaustive_on_infinite_domain_rejected():
    m = build_ratio_map(Q)
    with pytest.raises(InfiniteDomainExhaustive):
        check_additive(m, EXHAUSTIVE)
    with pytest.raises(InfiniteDomainExhaustive):
        check_homogeneous(m, EXHAUSTIVE)


def test_default_strategy_follows_finiteness():
    assert check_additive(build_char2_indicator()).verdict == "violated"
    assert check_additive(build_ratio_map(Q)).witness is not None


def test_exhaustive_checks_refuse_past_the_limit():
    m = build_ratio_map(PrimeField(1000003))
    start = time.perf_counter()
    for check, k in ((check_additive, 4), (check_homogeneous, 3), (check_linear, 4)):
        for strategy in (None, EXHAUSTIVE):
            with pytest.raises(
                SearchSpaceTooLarge,
                match=rf"^1000003\^{k} pairs exceed .*--strategy sampled$",
            ):
                check(m, strategy)
    assert time.perf_counter() - start < 1.0
    assert check_homogeneous(m, Sampled(samples=20)).holds
    # the largest exhaustive check the benchmark runs, 25^4 pairs, still runs
    assert check_additive(build_ratio_map(gf(5, 2))).verdict == "violated"


def test_sampled_checks_refuse_past_the_limit(monkeypatch):
    m = build_ratio_map(Q)
    start = time.perf_counter()
    for check in (check_additive, check_homogeneous, check_linear):
        with pytest.raises(
            SearchSpaceTooLarge,
            match=r"^100000000000 samples exceed the limit 500000$",
        ):
            check(m, Sampled(samples=10**11))
    assert time.perf_counter() - start < 1.0
    # the limit itself still runs, one more sample is refused before any draw;
    # the budget is samples * dim * degree, 10 // (2 * 1) = 5 here
    monkeypatch.setattr(maps, "SAMPLE_BUDGET", 10)
    assert check_homogeneous(m, Sampled(samples=5)).pairs_checked == 12 + 5
    monkeypatch.setattr(m.domain, "random_vector", _forbidden_draw)
    with pytest.raises(SearchSpaceTooLarge, match=r"^6 samples exceed the limit 5$"):
        check_homogeneous(m, Sampled(samples=6))


def _forbidden_draw(rng):
    raise AssertionError("a refused sampled check drew a vector")


def test_sampled_guard_admits_its_real_limit():
    # resolved only, so nothing is drawn: over Q^2 the budget 10^6 admits
    # 5 * 10^5 samples, not 5 * 10^5 + 1
    m, limit = build_ratio_map(Q), 500000
    outcomes = []
    for samples in (limit, limit + 1):
        try:
            outcomes.append(maps._resolve_strategy(m, Sampled(samples=samples), 2).samples)
        except SearchSpaceTooLarge as exc:
            outcomes.append(str(exc))
    assert outcomes == [limit, f"{limit + 1} samples exceed the limit {limit}"]


def test_sampled_limit_is_the_budget_over_dim_times_degree():
    # resolved only: each map runs its limit and refuses one more, and the
    # default 200 samples fit every limit (Q^2 is pinned above)
    cases = [(build_ratio_map(parse_field("Qext:-2,0,0,1")), 166666),
             (build_theorem1_counterexample(parse_field("Qext:-2,0,1")), 500000),
             (build_theorem1_counterexample(gf(2, 8)), 125000)]
    outcomes = []
    for m, limit in cases:
        for samples in (limit, limit + 1):
            try:
                outcomes.append(maps._resolve_strategy(m, Sampled(samples=samples), 2))
            except SearchSpaceTooLarge as exc:
                outcomes.append(str(exc))
    assert outcomes == [
        x for _, limit in cases for x in
        (Sampled(samples=limit), f"{limit + 1} samples exceed the limit {limit}")
    ]
    assert min(limit for _, limit in cases) >= Sampled.samples


def test_orbit_table_value_count_checked_before_enumeration():
    spec = {"field": "Fp:1000003", "domain_dim": 3, "codomain_dim": 1,
            "map": {"kind": "orbit_table", "values": [["(0,0,1)", "(1)"]]}}
    start = time.perf_counter()
    with pytest.raises(SpecFormatError, match="every orbit exactly once"):
        map_from_dict(spec)
    assert time.perf_counter() - start < 1.0


def test_orbit_table_count_checked_before_enumeration():
    # the library twin of the decoder test above: 2^40 - 1 orbits, one key
    start = time.perf_counter()
    with pytest.raises(SpecFormatError,
                       match="^expected 1099511627775 orbit values, got 1$"):
        OrbitTableMap(VectorSpace(Z2, 40), VectorSpace(Z2, 1), {(0,) * 39 + (1,): (0,)})
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)],
                         ids=["bad-key-last", "bad-key-first"])
def test_orbit_table_reports_a_bad_key_before_an_off_space_value(order):
    # (1, 2) is no Z_2 representative and (5,) no Z_2 value: the key error
    # wins whichever of the two the dict lists first
    pairs = [((0, 1), (0,)), ((1, 0), (5,)), ((1, 2), (0,))]
    values = dict(pairs[i] for i in order)
    with pytest.raises(SpecFormatError,
                       match="^orbit table must cover every orbit exactly once$"):
        OrbitTableMap(VectorSpace(Z2, 2), VectorSpace(Z2, 1), values)


def test_orbit_table_key_equal_to_a_representative_names_it():
    dom, cod = VectorSpace(Z2, 2), VectorSpace(Z2, 1)
    by_int = OrbitTableMap(dom, cod, {(0, 1): (1,), (1, 0): (1,), (1, 1): (0,)})
    by_float = OrbitTableMap(dom, cod, {(0, 1): (1,), (1.0, 0): (1,), (1, 1): (0,)})
    assert [by_float.evaluate(v) for v in dom.vectors()] == [
        by_int.evaluate(v) for v in dom.vectors()]
    assert map_to_json(by_float).encode() == map_to_json(by_int).encode()


def test_table_map_refuses_an_entry_outside_its_domain():
    space = VectorSpace(Z2, 1)
    with pytest.raises(SpecFormatError,
                       match=r"^table must list all 2\^1 domain vectors$"):
        TableMap(space, space, {(0,): (0,), (1,): (1,), (7,): (1,)})


def test_identity_table_map_is_linear():
    space = VectorSpace(Z3, 1)
    m = TableMap(space, space, {v: v for v in space.vectors()})
    report = check_linear(m, EXHAUSTIVE)
    assert report.verdict == "holds_exhaustive"


def test_check_linear_picks_additivity_witness_first():
    report = check_linear(build_char2_indicator(), EXHAUSTIVE)
    assert report.verdict == "violated"
    assert report.witness.kind == "additivity"


def test_check_linear_homogeneity_witness():
    report = check_linear(build_theorem1_counterexample(GF4), EXHAUSTIVE)
    assert report.verdict == "violated"
    assert report.witness.kind == "homogeneity"


def test_witness_recomputation():
    for m, checker in [
        (build_char2_indicator(), check_additive),
        (build_theorem1_counterexample(GF4), check_homogeneous),
    ]:
        w = checker(m).witness
        if w.kind == "additivity":
            u1, u2 = w.inputs
            assert m.evaluate(m.domain.add(u1, u2)) == w.lhs
            assert m.codomain.add(m.evaluate(u1), m.evaluate(u2)) == w.rhs
        else:
            lam, u = w.inputs
            assert m.evaluate(m.domain.scalar_mul(lam, u)) == w.lhs
            assert m.codomain.scalar_mul(lam, m.evaluate(u)) == w.rhs
        assert w.lhs != w.rhs


def test_checker_determinism():
    m = build_ratio_map(Q)
    r1 = check_additive(m, Sampled(seed=7, samples=50))
    r2 = check_additive(m, Sampled(seed=7, samples=50))
    assert r1 == r2


# one evaluation per input ---------------------------------------------------------

class CountingMap(VectorMap):
    """Delegates to another map and counts the evaluate calls."""

    def __init__(self, inner):
        self.inner = inner
        self.domain, self.codomain = inner.domain, inner.codomain
        self.calls = 0

    def evaluate(self, v):
        self.calls += 1
        return self.inner.evaluate(v)


def _unmemoized_check(m, prop, strategy):
    """Tests-local reference: the checkers' pair scan in the same pair
    order, with three plain evaluations per pair and, when exhaustive, the
    nested tuple enumeration of every pair.  Returns the report and the
    number of evaluations."""
    counted = CountingMap(m)
    ev, dom, cod = counted.evaluate, m.domain, m.codomain
    if strategy == EXHAUSTIVE:
        vecs = list(dom.vectors())
        sums = itertools.product(vecs, vecs)
        scales = itertools.product(dom.field.elements(), vecs)
    else:
        sums = _additivity_pairs(m, strategy)
        scales = _homogeneity_pairs(m, strategy)
    checked = 0
    if prop in ("additive", "linear"):
        for u1, u2 in sums:
            checked += 1
            lhs, rhs = ev(dom.add(u1, u2)), cod.add(ev(u1), ev(u2))
            if lhs != rhs:
                w = Witness("additivity", (u1, u2), lhs, rhs)
                return CheckReport(prop, "violated", w, checked), counted.calls
    if prop in ("homogeneous", "linear"):
        for lam, u in scales:
            checked += 1
            lhs, rhs = ev(dom.scalar_mul(lam, u)), cod.scalar_mul(lam, ev(u))
            if lhs != rhs:
                w = Witness("homogeneity", (lam, u), lhs, rhs)
                return CheckReport(prop, "violated", w, checked), counted.calls
    verdict = "holds_exhaustive" if strategy == EXHAUSTIVE else "holds_on_samples"
    return CheckReport(prop, verdict, None, checked), counted.calls


def _perturbed_linear_table():
    """(x, y) -> 2x + 3y over Z_5, with the value at (1, 2) changed."""
    dom, cod = VectorSpace(Z5, 2), VectorSpace(Z5, 1)
    entries = {v: ((2 * v[0] + 3 * v[1]) % 5,) for v in dom.vectors()}
    entries[(1, 2)] = (0,)
    return TableMap(dom, cod, entries)


QC2 = parse_field("Qext:-2,0,0,1")
CHECKERS = {
    "additive": check_additive,
    "homogeneous": check_homogeneous,
    "linear": check_linear,
}


@pytest.mark.parametrize(
    "build,strategy",
    [
        (lambda: build_theorem1_counterexample(GF8), EXHAUSTIVE),
        (lambda: build_theorem1_counterexample(GF9), EXHAUSTIVE),
        (lambda: build_ratio_map(PrimeField(23)), EXHAUSTIVE),
        (lambda: build_ratio_map(gf(5, 2)), EXHAUSTIVE),
        (build_char2_indicator, EXHAUSTIVE),
        (_perturbed_linear_table, EXHAUSTIVE),
        (lambda: build_theorem1_counterexample(QS2), Sampled(seed=11, samples=60)),
        (lambda: build_theorem1_counterexample(QC2), Sampled(seed=12, samples=60)),
        (lambda: build_ratio_map(QS2), Sampled(seed=13, samples=60)),
        (lambda: build_ratio_map(QC2), Sampled(seed=14, samples=60)),
    ],
    ids=[
        "thm1-GF8", "thm1-GF9", "ratio-Z23", "ratio-GF25", "indicator",
        "perturbed-table", "thm1-Qsqrt2", "thm1-Qcbrt2", "ratio-Qsqrt2",
        "ratio-Qcbrt2",
    ],
)
@pytest.mark.parametrize("prop", list(CHECKERS))
def test_checker_evaluates_each_input_once(build, strategy, prop):
    m = build()
    counted = CountingMap(m)
    report = CHECKERS[prop](counted, strategy)
    expected, plain_calls = _unmemoized_check(m, prop, strategy)
    assert report == expected
    assert counted.calls <= plain_calls
    if strategy == EXHAUSTIVE:
        assert counted.calls <= m.domain.size


def test_check_linear_shares_one_memo():
    # the homogeneity scan after a passing additivity scan finds every
    # input already evaluated
    space = VectorSpace(GF4, 2)
    table = {v: v for v in space.vectors()}
    counted = CountingMap(TableMap(space, space, table))
    assert check_linear(counted, EXHAUSTIVE).verdict == "holds_exhaustive"
    assert counted.calls == space.size


def test_exhaustive_table_belongs_to_the_map():
    # phi is additive, not homogeneous, so check_linear runs both scans.
    # The first exhaustive check of a map tabulates phi; a later one,
    # whatever its property, evaluates nothing.  A fresh, equal map is
    # tabulated afresh, and a sampled check's memo lasts one call
    for first, second in itertools.product(CHECKERS, repeat=2):
        counted = CountingMap(build_theorem1_counterexample(GF4))
        CHECKERS[first](counted, EXHAUSTIVE)
        assert counted.calls == 4
        assert CHECKERS[second](counted, EXHAUSTIVE) == CHECKERS[second](
            build_theorem1_counterexample(GF4), EXHAUSTIVE)
        assert counted.calls == 4
    strategy = Sampled(seed=3, samples=20)
    check_additive(counted, strategy)
    once = counted.calls - 4
    check_additive(counted, strategy)
    assert counted.calls - 4 == 2 * once > 0


def test_reverify_evaluates_each_input_once_across_both_checks():
    result = search_homogeneous_nonadditive(SearchConfig(Z3, 2, 1))
    counted = CountingMap(result.witness_map)
    assert _reverify(counted, check_homogeneous, check_additive) == (
        result.witness_report)
    assert 0 < counted.calls <= counted.domain.size


class RaisesOnceMap(CountingMap):
    """A CountingMap whose first evaluation at one input raises."""

    def __init__(self, inner, at):
        super().__init__(inner)
        self.at = at

    def evaluate(self, v):
        if v == self.at:
            self.at = None
            raise RuntimeError("evaluation failed once")
        return super().evaluate(v)


@pytest.mark.parametrize("prop", list(CHECKERS))
def test_check_after_a_raising_evaluate_matches_a_fresh_map(prop):
    # the raise comes at rank 3, before the perturbed entry at rank 7: a
    # table that skipped or shifted an input would report another pair
    m = RaisesOnceMap(_perturbed_linear_table(), at=(0, 3))
    with pytest.raises(RuntimeError):
        CHECKERS[prop](m, EXHAUSTIVE)
    assert m.calls == 3
    report = CHECKERS[prop](m, EXHAUSTIVE)
    assert report == CHECKERS[prop](_perturbed_linear_table(), EXHAUSTIVE)
    assert report.verdict == "violated"
    assert m.calls == m.domain.size


def test_a_checked_map_is_freed_with_its_last_reference():
    # the kept table refers to the spaces, not to the map: without the
    # cycle collector, dropping the map frees it
    enabled = gc.isenabled()
    gc.disable()
    try:
        m = build_theorem1_counterexample(GF9)
        check_linear(m, EXHAUSTIVE)
        check_additive(m, EXHAUSTIVE)
        assert len(m._rank_table.cols[0]) == m.domain.size
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# rank scans against the tuple oracle ------------------------------------------------

def _random_map(rng, field, du, dv, kind):
    """A seeded map F^du -> F^dv: a random table, a random orbit table, or
    a random linear table with one entry changed ("perturbed") or not."""
    dom, cod = VectorSpace(field, du), VectorSpace(field, dv)
    elems, cvecs = list(field.elements()), list(cod.vectors())
    if kind == "orbit":
        return OrbitTableMap(dom, cod, {r: rng.choice(cvecs) for r in dom.orbits()})
    if kind == "random":
        return TableMap(dom, cod, {v: rng.choice(cvecs) for v in dom.vectors()})
    mat = [[rng.choice(elems) for _ in range(du)] for _ in range(dv)]

    def image(v):
        out = []
        for row in mat:
            acc = field.zero
            for a, x in zip(row, v):
                acc = field.add(acc, field.mul(a, x))
            out.append(acc)
        return tuple(out)

    entries = {v: image(v) for v in dom.vectors()}
    if kind == "perturbed":
        v = rng.choice(list(entries))
        entries[v] = rng.choice([w for w in cvecs if w != entries[v]])
    return TableMap(dom, cod, entries)


@pytest.mark.parametrize("kind", ["random", "orbit", "perturbed", "linear"])
@pytest.mark.parametrize(
    "field", [Z2, Z3, Z5, GF4, GF8, GF9], ids=lambda f: f.descriptor()
)
def test_rank_scans_match_tuple_oracle(field, kind):
    rng = random.Random(f"{field.descriptor()}:{kind}")
    for du, dv in itertools.product((1, 2, 3), repeat=2):
        # the tuple oracle is slow: maps whose scans run long (every linear
        # table, the homogeneity of every orbit table) stay on small spaces
        if field.order**du > {"random": 729, "perturbed": 125}.get(kind, 27):
            continue
        m = _random_map(rng, field, du, dv, kind)
        for prop, check in CHECKERS.items():
            counted = CountingMap(m)
            report = check(counted, EXHAUSTIVE)
            expected, plain_calls = _unmemoized_check(m, prop, EXHAUSTIVE)
            assert report == expected, (du, dv, prop)
            assert counted.calls <= min(plain_calls, m.domain.size)


class BadValueMap(VectorMap):
    """The identity on Z_3^2 -> Z_3^2, except one input's value."""

    def __init__(self, at, value):
        self.domain = self.codomain = VectorSpace(Z3, 2)
        self.at, self.value = at, value

    def evaluate(self, v):
        return self.value if v == self.at else v


@pytest.mark.parametrize("at", [(0, 0), (1, 2)])
@pytest.mark.parametrize(
    "value,error",
    [((1, 2, 0), DimensionMismatch), ((1, 3), FieldMismatch)],
    ids=["wrong-dimension", "off-field"],
)
@pytest.mark.parametrize("prop", list(CHECKERS))
def test_rank_scans_check_each_value(prop, value, error, at):
    m = BadValueMap(at, value)
    with pytest.raises(error):
        CHECKERS[prop](m, EXHAUSTIVE)
    with pytest.raises(error):
        _unmemoized_check(m, prop, EXHAUSTIVE)


@pytest.mark.parametrize("check", [check_additive, check_homogeneous])
def test_rank_scan_of_a_million_pairs_is_fast_and_small(check):
    # 1009^2 pairs; a scan that kept every field row would hold 1009 rows
    # of 1009 entries, several MB
    space = VectorSpace(PrimeField(1009), 1)
    m = TableMap(space, space, {v: v for v in space.vectors()})
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = check(m, EXHAUSTIVE)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "holds_exhaustive"
    assert report.pairs_checked == 1009**2
    assert elapsed < 2.0
    assert peak < 2 * 2**20


# phi(0) = 0 and orbit-table homogeneity ----------------------------------------

def zero_fixed(m):
    return m.evaluate(m.domain.zero) == m.codomain.zero


def test_closed_form_maps_fix_zero():
    assert zero_fixed(build_ratio_map(Q))
    assert zero_fixed(build_ratio_map(Z5))
    assert zero_fixed(build_char2_indicator())
    assert zero_fixed(build_theorem1_counterexample(GF4))
    assert zero_fixed(build_theorem1_counterexample(QS2))


@pytest.mark.parametrize(
    "field,du,dv", [(Z2, 2, 1), (Z3, 2, 1), (GF4, 2, 1), (Z2, 2, 2)],
    ids=["Z2-2-1", "Z3-2-1", "GF4-2-1", "Z2-2-2"],
)
def test_every_orbit_table_map_is_homogeneous(field, du, dv):
    dom = VectorSpace(field, du)
    cod = VectorSpace(field, dv)
    cvecs = list(cod.vectors())
    reps = dom.orbits()
    for values in itertools.product(cvecs, repeat=len(reps)):
        m = OrbitTableMap(dom, cod, dict(zip(reps, values)))
        assert zero_fixed(m)
        assert check_homogeneous(m, EXHAUSTIVE).verdict == "holds_exhaustive"


# rational proof trace -----------------------------------------------------------

def test_trace_on_linear_map():
    space = VectorSpace(Q, 1)

    class Triple(VectorMap):  # q -> 3q
        domain = space
        codomain = space

        def evaluate(self, v):
            return (3 * v[0],)

    identities = rational_proof_trace(Triple(), 2, 5, (frac(7),))
    assert len(identities) == 4
    assert all(i.equal for i in identities)


def test_trace_on_ratio_map_reports_values():
    m = build_ratio_map(Q)
    identities = rational_proof_trace(m, 1, 2, (frac(1), frac(1)))
    # phi((1/2)(1,1)) = (1/2 * 1/2) / 1 = 1/4
    assert identities[0].lhs == (frac(1, 4),)
    by_label = {i.label: i for i in identities}
    assert by_label["phi(x) = n*phi((1/n)x)"].lhs == (frac(1, 2),)
    assert by_label["phi(x) = n*phi((1/n)x)"].rhs == (frac(1, 2),)


def test_trace_m_equals_n_trivially_equal():
    m = build_ratio_map(Q)
    identities = rational_proof_trace(m, 1, 1, (frac(3), frac(4)))
    assert all(i.equal for i in identities)


def test_trace_zero_denominator():
    with pytest.raises(ZeroDenominator):
        rational_proof_trace(build_ratio_map(Q), 1, 0, (frac(1), frac(1)))


def test_trace_needs_characteristic_zero():
    with pytest.raises(CharacteristicMismatch):
        rational_proof_trace(build_ratio_map(Z3), 1, 2, (1, 1))


def test_trace_over_qsqrt2():
    m = build_theorem1_counterexample(QS2)
    identities = rational_proof_trace(m, 3, 4, ((frac(1), frac(2)),))
    assert all(i.equal for i in identities)  # the map is additive


# serialization -------------------------------------------------------------------

@pytest.mark.parametrize(
    "build",
    [
        lambda: build_ratio_map(Q),
        lambda: build_ratio_map(Z5),
        build_char2_indicator,
        lambda: build_theorem1_counterexample(GF4),
        lambda: build_theorem1_counterexample(QS2),
    ],
    ids=["ratio-Q", "ratio-Z5", "indicator", "theorem1-GF4", "theorem1-QS2"],
)
def test_map_json_roundtrip(build):
    m = build()
    m2 = map_from_json(map_to_json(m))
    assert map_to_dict(m2) == map_to_dict(m)
    if m.domain.is_finite:
        for v in m.domain.vectors():
            assert m2.evaluate(v) == m.evaluate(v)


def test_table_and_orbit_table_roundtrip():
    dom = VectorSpace(Z3, 2)
    cod = VectorSpace(Z3, 1)
    orbit_map = OrbitTableMap(dom, cod, {(0, 1): (1,), (1, 0): (2,), (1, 1): (0,),
                                         (1, 2): (1,)})
    m2 = map_from_json(map_to_json(orbit_map))
    for v in dom.vectors():
        assert m2.evaluate(v) == orbit_map.evaluate(v)
    table = TableMap(dom, cod, {v: orbit_map.evaluate(v) for v in dom.vectors()})
    m3 = map_from_json(map_to_json(table))
    for v in dom.vectors():
        assert m3.evaluate(v) == table.evaluate(v)


def test_orbit_table_specs_at_the_bit_length_bound_decode():
    # over Z_2 the N = 2^du - 1 orbits have exactly du bits, the tightest
    # case of the decoder's bit-length pre-check on the orbit count
    for du in (1, 2, 3, 4):
        dom, cod = VectorSpace(Z2, du), VectorSpace(Z2, 1)
        m = OrbitTableMap(dom, cod, {rep: (sum(rep) % 2,) for rep in dom.orbits()})
        back = map_from_json(map_to_json(m))
        for v in dom.vectors():
            assert back.evaluate(v) == m.evaluate(v)


def test_klinear_spec_payload():
    m = build_theorem1_counterexample(GF4)
    d = map_to_dict(m)
    assert d["map"]["kind"] == "klinear_extension"
    assert d["map"]["basis_images"] == ["[0,1]", "[0,1]"]


def test_report_serialization():
    m = build_char2_indicator()
    d = report_to_dict(m, check_additive(m, EXHAUSTIVE))
    assert d["property"] == "additive"
    assert d["verdict"] == "violated"
    assert d["witness"] == {
        "kind": "additivity",
        "inputs": ["(0,1)", "(1,0)"],
        "lhs": "(1)",
        "rhs": "(0)",
    }


def test_map_spec_validation_errors():
    with pytest.raises(CharacteristicTwo):
        map_from_dict(
            {"field": "Fp:2", "domain_dim": 2, "codomain_dim": 1,
             "map": {"kind": "ratio"}}
        )
    with pytest.raises(SpecFormatError):
        map_from_dict(
            {"field": "Fp:3", "domain_dim": 2, "codomain_dim": 1,
             "map": {"kind": "indicator"}}
        )
    with pytest.raises(SpecFormatError):
        map_from_dict(
            {"field": "Fp:2", "domain_dim": 2, "codomain_dim": 1,
             "map": {"kind": "orbit_table", "values": [["(0,1)", "(1)"]]}}
        )
    with pytest.raises(SpecFormatError):
        map_from_json("{not json")
    with pytest.raises(SpecFormatError):
        map_from_json("[" * 100_000 + "]" * 100_000)
    for field, body in [
        ("Fp:2", {"kind": "table"}),
        ("Fp:2", {"kind": "table", "entries": [["(0)", 7], ["(1)", "(1)"]]}),
        ("Fp:2", {"kind": "orbit_table"}),
        ("Fq:2:1,1,1", {"kind": "klinear_extension"}),
        ("Fp:2", {"kind": "table", "entries": 5}),
        ("Fp:2", {"kind": "table",
                  "entries": [["(0)", "(0)"], ["(1)", "(1)"], ["(1)", "(0)"]]}),
        ("Fp:3", {"kind": "orbit_table",
                  "values": [["(1)", "(1)"], ["(1)", "(2)"]]}),
    ]:
        with pytest.raises(SpecFormatError):
            map_from_dict(
                {"field": field, "domain_dim": 1, "codomain_dim": 1, "map": body}
            )
    # dimensions are JSON integers, not anything int() accepts
    for dim in (2.7, "2", " 2 ", True):
        for key in ("domain_dim", "codomain_dim"):
            spec = {"field": "Fp:2", "domain_dim": 2, "codomain_dim": 1,
                    "map": {"kind": "indicator"}, key: dim}
            with pytest.raises(SpecFormatError,
                               match=f"^{key} must be a JSON integer, not {dim!r}$"):
                map_from_dict(spec)


@pytest.mark.parametrize(
    "field,du,body,message",
    [
        ("Fp:2", 1, {"kind": "table", "entries": [["(0)", "(0)"], ["(0)", "(1)"]]},
         r"^table input \(0\) listed twice$"),
        ("Fp:3", 2, {"kind": "orbit_table", "values": [
            ["(0,1)", "(0)"], ["(0,1)", "(1)"], ["(1,0)", "(1)"], ["(1,1)", "(1)"]]},
         r"^orbit representative \(0,1\) listed twice$"),
        ("Fp:3", 1, {"kind": "orbit_table", "values": [["(2)", "(1)"]]},
         "^orbit table must cover every orbit exactly once$"),
        # the shape is checked before the first value's dimension is read
        ("Fp:2", 1, {"kind": "table", "entries": [["(0)", "(0,1)", "(1)"], ["(1)", "(1)"]]},
         r"^table entries must be \[input, output\] pairs$"),
        ("Fp:2", 1, {"kind": "table", "entries": [["(0)", "(0)"], ["(1)"]]},
         r"^table entries must be \[input, output\] pairs$"),
    ],
    ids=["table-duplicate", "orbit-duplicate", "orbit-not-a-rep", "first-pair-3",
         "second-pair-1"],
)
def test_spec_decoder_checks_right_sized_specs(field, du, body, message):
    # each spec lists as many entries as the count check asks for
    spec = {"field": field, "domain_dim": du, "codomain_dim": 1, "map": body}
    with pytest.raises(SpecFormatError, match=message):
        map_from_dict(spec)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: TableMap(VectorSpace(Z2, 1), VectorSpace(Z3, 1), {}),
         DomainMismatch, "share one field"),
        (lambda: TableMap(VectorSpace(Z2, 1), VectorSpace(Z2, 1), {(0,): (0,)}),
         SpecFormatError, r"misses domain vector \(1\)"),
        (lambda: TableMap(VectorSpace(Z2, 1), VectorSpace(Z2, 1),
                          {(0,): (0,), (1,): (2,)}),
         SpecFormatError, r"value at \(1\) off-space"),
        (lambda: OrbitTableMap(VectorSpace(Z2, 1), VectorSpace(Z3, 1), {(1,): (1,)}),
         DomainMismatch, "share one field"),
        (lambda: OrbitTableMap(VectorSpace(Z2, 2), VectorSpace(Z2, 1), {(1, 0): (1,)}),
         SpecFormatError, "expected 3 orbit values, got 1"),
        (lambda: OrbitTableMap(VectorSpace(Z2, 1), VectorSpace(Z2, 1), {(1,): (0, 1)}),
         SpecFormatError, "off-space"),
        (lambda: OrbitTableMap(VectorSpace(Z3, 1), VectorSpace(Z3, 1), {(2,): (1,)}),
         SpecFormatError, "cover every orbit exactly once"),
        (lambda: KLinearExtensionMap(GF4, [(0, 1)]),
         SpecFormatError, "expected 2 basis images, got 1"),
        (lambda: KLinearExtensionMap(GF4, [(0, 1), (0, 2)]),
         SpecFormatError, r"basis image \(0, 2\) not in"),
        (lambda: KLinearExtensionMap(Z5, [(1,)]),
         NotAnExtension, "needs F != k"),
    ],
    ids=["table-fields", "table-missing", "table-off-space", "orbit-fields",
         "orbit-count", "orbit-off-space", "orbit-not-a-rep", "klinear-count",
         "klinear-off-field", "klinear-prime"],
)
def test_map_constructors_refuse_bad_parts(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: Q.inv(Fraction(0)), DivisionByZero, r"^1/0 in Q$"),
        (lambda: is_irreducible(Z3, (1,)), SpecFormatError,
         "^constant polynomial has no irreducibility$"),
        (lambda: is_irreducible(Z3, (1, 2)), NonMonicModulus,
         "^irreducibility is defined here for monic polynomials$"),
        (lambda: is_irreducible(GF4, (GF4.one, GF4.one, GF4.one)), UnsupportedTower,
         "^irreducibility base must be Q or Z_p$"),
        (lambda: find_irreducible(Q, 2), UnsupportedTower,
         "^find_irreducible needs a prime base field$"),
        (lambda: find_irreducible(Z3, 1), UnsupportedDegree,
         "^extension degree must be >= 2$"),
        (lambda: ExtensionField(Field(), (1, 0, 1)), UnsupportedTower,
         "^extension base must be Q or Z_p$"),
        (lambda: QS2.rank(QS2.one), InfiniteFieldError,
         r"^Qext:-2,0,1 has no element rank$"),
        (lambda: rational_proof_trace(build_ratio_map(Q), 1, 2, (frac(1),)),
         DomainMismatch, r"^\(Fraction\(1, 1\),\) not in Q\^2$"),
        (lambda: map_to_dict(BadValueMap((0, 0), (0, 0))), SpecFormatError,
         "^unserializable map BadValueMap$"),
        (lambda: count_linear(Q, 1, 1), InfiniteFieldError,
         "^linear-map count needs a finite field$"),
        (lambda: VectorSpace(Z2, 0), DimensionMismatch, "^dimension must be >= 1$"),
        (lambda: VectorSpace(Q, 2).size, InfiniteFieldError, r"^Q\^2 is infinite$"),
        (lambda: VectorSpace(Q, 2).orbits(), InfiniteFieldError,
         r"^Q\^2 has infinitely many orbits$"),
    ],
    ids=["q-inverse-of-zero", "irreducible-constant", "irreducible-non-monic",
         "irreducible-over-extension", "find-irreducible-over-q",
         "find-irreducible-degree-1", "extension-of-a-bare-field", "rank-over-q-ext",
         "trace-off-domain", "unserializable-map", "count-linear-over-q",
         "dimension-0", "size-over-q", "orbits-over-q"],
)
def test_refusals_name_their_input(call, error, message):
    # raise lines no other test reaches, each with its class and message
    with pytest.raises(error, match=message):
        call()
