"""Acceptance suite: one test per criterion, exact values, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import itertools
import time
from fractions import Fraction

import pytest

from addhom.cli import main as cli_main
from addhom.fields import ExtensionField, PrimeField, Rationals, gf
from addhom.maps import (
    EXHAUSTIVE,
    IndicatorMap,
    Sampled,
    build_char2_indicator,
    build_ratio_map,
    build_theorem1_counterexample,
    check_additive,
    check_homogeneous,
)
from addhom.search import (
    SearchConfig,
    count_homogeneous,
    scan_additive_tables,
    search_homogeneous_nonadditive,
    verify_theorem1_prime,
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


def _timed(limit):
    start = time.perf_counter()

    def check(label):
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"{label} took {elapsed:.2f}s (limit {limit}s)"
        return elapsed

    return check


def test_criterion_1_ratio_map_over_q():
    done = _timed(1.0)
    m = build_ratio_map(Q)
    one, zero = Fraction(1), Fraction(0)
    assert m.evaluate((one, zero)) == (zero,)
    assert m.evaluate((zero, one)) == (zero,)
    assert m.evaluate((one, one)) == (Fraction(1, 2),)

    add = check_additive(m, Sampled(seed=24001, samples=200))
    assert add.verdict == "violated"
    assert add.witness.inputs == ((one, zero), (zero, one))
    assert add.witness.lhs == (Fraction(1, 2),)
    assert add.witness.rhs == (zero,)

    hom = check_homogeneous(m, Sampled(seed=24001, samples=200))
    assert hom.verdict == "holds_on_samples"
    elapsed = done("criterion 1")
    print(f"\nACCEPTANCE 1 (ratio map over Q): PASS ({elapsed:.2f}s)")


def test_criterion_2_char2_indicator():
    done = _timed(1.0)
    m = build_char2_indicator()
    hom = check_homogeneous(m, EXHAUSTIVE)
    assert hom.verdict == "holds_exhaustive"
    add = check_additive(m, EXHAUSTIVE)
    assert add.verdict == "violated"
    assert add.witness.inputs == ((0, 1), (1, 0))
    assert add.witness.lhs == (1,)
    assert add.witness.rhs == (0,)
    elapsed = done("criterion 2")
    print(f"\nACCEPTANCE 2 (char-2 indicator map): PASS ({elapsed:.2f}s)")


def test_criterion_3_theorem1_nonprime_constructions():
    done = _timed(5.0)
    for field in (GF4, GF8, GF9):
        m = build_theorem1_counterexample(field)
        assert check_additive(m, EXHAUSTIVE).verdict == "holds_exhaustive"
        hom = check_homogeneous(m, EXHAUSTIVE)
        assert hom.verdict == "violated"
        assert hom.witness.inputs == (field.generator, (field.one,))
        assert hom.witness.lhs == (field.generator,)
        assert hom.witness.rhs == (field.mul(field.generator, field.generator),)

    # GF(4): lhs alpha, rhs alpha + 1
    hom4 = check_homogeneous(build_theorem1_counterexample(GF4), EXHAUSTIVE)
    assert hom4.witness.lhs == ((0, 1),)
    assert hom4.witness.rhs == ((1, 1),)

    # Q(sqrt2): 200 deterministic samples; lhs sqrt2, rhs 2
    m = build_theorem1_counterexample(QS2)
    add = check_additive(m, Sampled(seed=24001, samples=200))
    assert add.verdict == "holds_on_samples"
    hom = check_homogeneous(m, Sampled(seed=24001, samples=200))
    assert hom.verdict == "violated"
    assert hom.witness.inputs == (QS2.generator, (QS2.one,))
    assert hom.witness.lhs == ((Fraction(0), Fraction(1)),)
    assert hom.witness.rhs == ((Fraction(2), Fraction(0)),)
    elapsed = done("criterion 3")
    print(f"\nACCEPTANCE 3 (theorem-1 constructions): PASS ({elapsed:.2f}s)")


def test_criterion_4_prime_case_exhaustive():
    done = _timed(30.0)
    expected = {
        (2, 1, 1): 2, (2, 2, 1): 4, (2, 2, 2): 16,
        (3, 1, 1): 3, (3, 2, 1): 9, (5, 1, 1): 5,
    }
    for (p, du, dv), count in expected.items():
        report = verify_theorem1_prime(PrimeField(p), du, dv)
        assert report.additive_nonhomogeneous_count == 0, (p, du, dv)
        assert report.additive_count == count == p ** (du * dv), (p, du, dv)

    contrast = scan_additive_tables(GF4, 1, 1)
    assert contrast.additive_nonhomogeneous_count >= 1
    elapsed = done("criterion 4")
    print(f"\nACCEPTANCE 4 (theorem-1 prime case, machine-exhaustive): "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_5_open_problem_probe():
    done = _timed(10.0)
    z2 = search_homogeneous_nonadditive(SearchConfig(Z2, 2, 1, mode="enumerate_all"))
    assert (z2.homogeneous_count, z2.homogeneous_additive_count,
            z2.non_additive_count) == (8, 4, 4)
    indicator = IndicatorMap()
    dom = indicator.domain
    assert any(
        all(m.evaluate(v) == indicator.evaluate(v) for v in dom.vectors())
        for m in z2.witness_maps
    ), "the indicator map must be among the Z_2 witnesses"

    gf4 = search_homogeneous_nonadditive(SearchConfig(GF4, 2, 1))
    assert (gf4.homogeneous_count, gf4.homogeneous_additive_count,
            gf4.non_additive_count) == (1024, 16, 1008)
    assert gf4.witness_map is not None
    assert check_homogeneous(gf4.witness_map, EXHAUSTIVE).holds
    assert not check_additive(gf4.witness_map, EXHAUSTIVE).holds

    for field in (Z2, Z3, Z5, GF4, GF8, GF9):
        r = search_homogeneous_nonadditive(SearchConfig(field, 1, 1))
        assert r.non_additive_count == 0, field.descriptor()
    elapsed = done("criterion 5")
    print(f"\nACCEPTANCE 5 (open-problem probe): PASS ({elapsed:.2f}s)")


def test_criterion_6_determinism(capsys):
    done = _timed(30.0)

    def run(argv):
        code = cli_main(argv)
        return code, capsys.readouterr().out

    search_argv = ["search", "--field", "Fq:2:1,1,1", "--domain-dim", "2",
                   "--codomain-dim", "1", "--format", "json"]
    outputs = [run(search_argv + ["--jobs", str(j)]) for j in (1, 2, 4, 1)]
    assert all(o == outputs[0] for o in outputs[1:])

    vt_argv = ["verify-theorem1", "--p", "3", "--domain-dim", "2",
               "--codomain-dim", "1", "--format", "json"]
    assert run(vt_argv) == run(vt_argv)
    elapsed = done("criterion 6")
    print(f"\nACCEPTANCE 6 (parallel and repeat determinism): "
          f"PASS ({elapsed:.2f}s)")


def _bruteforce_orbit_count(space):
    """Partition the nonzero vectors under scalar action, from scratch."""
    nonzero_scalars = [s for s in space.field.elements() if s != space.field.zero]
    remaining = set(space.vectors()) - {space.zero}
    count = 0
    while remaining:
        v = next(iter(remaining))
        orbit = {space.scalar_mul(s, v) for s in nonzero_scalars}
        assert orbit <= remaining
        remaining -= orbit
        count += 1
    return count


def test_criterion_7_algebra_substrate():
    done = _timed(60.0)

    # exhaustive field axioms
    for field in (Z2, Z3, Z5, GF4, GF8, GF9):
        elems = list(field.elements())
        for a, b, c in itertools.product(elems, repeat=3):
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
        for a in elems:
            assert field.add(a, field.zero) == a
            assert field.mul(a, field.one) == a
            assert field.add(a, field.neg(a)) == field.zero
            if a != field.zero:
                assert field.mul(a, field.inv(a)) == field.one
        for a, b in itertools.product(elems, repeat=2):
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)

    # orbit partition invariants for every space with q^dim <= 4096
    fields = [Z2, Z3, GF4, Z5, PrimeField(7), GF8, GF9]
    for field in fields:
        q = field.order
        dim = 1
        while q**dim <= 4096:
            space = VectorSpace(field, dim)
            orbits = space.orbits()
            assert len(orbits) == (q**dim - 1) // (q - 1)
            nonzero = [s for s in field.elements() if s != field.zero]
            seen = set()
            for rep in orbits:
                members = {space.scalar_mul(s, rep) for s in nonzero}
                assert len(members) == q - 1
                assert not members & seen
                seen |= members
            assert seen | {space.zero} == set(space.vectors())
            dim += 1

    # closed-form homogeneous count vs independent orbit partitioning
    for field in (Z2, Z3, GF4):
        q = field.order
        for du in range(1, 5):
            if q**du > 16:
                break
            for dv in range(1, 3):
                if q**dv > 4:
                    break
                space = VectorSpace(field, du)
                n_orbits = _bruteforce_orbit_count(space)
                m = len(list(VectorSpace(field, dv).vectors()))
                assert count_homogeneous(field, du, dv) == m**n_orbits
    elapsed = done("criterion 7")
    print(f"\nACCEPTANCE 7 (algebra substrate): PASS ({elapsed:.2f}s)")
