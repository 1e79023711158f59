"""Field arithmetic, irreducibility, and enumeration."""

import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from addhom import fields
from addhom.errors import (
    CharacteristicMismatch,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    InfiniteFieldError,
    ModulusTooLarge,
    NonMonicModulus,
    NonPrimeModulus,
    ReducibleModulus,
    SearchSpaceTooLarge,
    SpecFormatError,
    UnsupportedDegree,
    UnsupportedTower,
    ZeroVector,
)
from addhom.fields import (
    PRIME_LIMIT,
    ExtensionField,
    PrimeField,
    Rationals,
    find_irreducible,
    gf,
    is_irreducible,
    is_prime,
    parse_field,
)
from addhom.maps import EXHAUSTIVE, KLinearExtensionMap, RatioMap, check_additive
from addhom.spaces import SpaceRows, VectorSpace

Q = Rationals()
Z2 = PrimeField(2)
Z3 = PrimeField(3)
Z5 = PrimeField(5)
GF4 = ExtensionField(Z2, (1, 1, 1))
GF8 = ExtensionField(Z2, (1, 1, 0, 1))
GF9 = ExtensionField(Z3, (1, 0, 1))
QS2 = ExtensionField(Q, (Fraction(-2), Fraction(0), Fraction(1)))

SMALL_FINITE = [Z2, Z3, Z5, GF4, GF8, GF9]


# polynomials over a base field as tuples of base elements, ascending degree:
# the reference arithmetic, through the base field's own operations, that the
# integer and residue-list kernels are checked against

def poly_trim(base, coeffs):
    coeffs = tuple(coeffs)
    while coeffs and coeffs[-1] == base.zero:
        coeffs = coeffs[:-1]
    return coeffs


def poly_mul(base, a, b):
    a = poly_trim(base, a)
    b = poly_trim(base, b)
    if not a or not b:
        return ()
    out = [base.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = base.add(out[i + j], base.mul(x, y))
    return poly_trim(base, out)


def poly_divmod(base, a, b):
    """Quotient and remainder of a by b (b nonzero)."""
    b = poly_trim(base, b)
    if not b:
        raise DivisionByZero("polynomial division by zero")
    rem = list(poly_trim(base, a))
    db = len(b) - 1
    lead_inv = base.inv(b[-1])
    quot = [base.zero] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        shift = len(rem) - 1 - db
        factor = base.mul(rem[-1], lead_inv)
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = base.add(rem[shift + i], base.neg(base.mul(factor, c)))
        while rem and rem[-1] == base.zero:
            rem.pop()
    return poly_trim(base, quot), poly_trim(base, rem)


# construction ---------------------------------------------------------------

def test_prime_field_construction():
    assert PrimeField(5).order == 5


def test_composite_modulus_rejected():
    with pytest.raises(NonPrimeModulus):
        PrimeField(6)


def test_miller_rabin_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 10**5) if is_prime(n)] == [
        n for n in range(-3, 10**5) if trial(n)
    ]


def test_miller_rabin_on_large_moduli():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base
    # up to 31, so only the later bases expose them
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    start = time.perf_counter()
    assert is_prime(10**24 + 7)
    assert PrimeField(10**24 + 7).order == 10**24 + 7
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ModulusTooLarge):
        PrimeField(PRIME_LIMIT)
    with pytest.raises(ModulusTooLarge):
        parse_field(f"Fp:{PRIME_LIMIT + 2}")


def test_gf4_modulus_has_no_root_in_z2():
    # independent check justifying the valid-extension example
    assert all((x * x + x + 1) % 2 != 0 for x in (0, 1))
    assert ExtensionField(Z2, (1, 1, 1)).order == 4


def test_reducible_modulus_rejected():
    # 1 is a root of x^2 + 1 over Z_2
    assert (1 * 1 + 1) % 2 == 0
    with pytest.raises(ReducibleModulus):
        ExtensionField(Z2, (1, 0, 1))


def test_non_monic_modulus_rejected():
    with pytest.raises(NonMonicModulus):
        ExtensionField(Z3, (1, 1, 2))


def test_tower_rejected():
    with pytest.raises(UnsupportedTower):
        ExtensionField(GF4, (GF4.one, GF4.one, GF4.one))


def test_degree_one_extension_rejected():
    with pytest.raises(UnsupportedDegree):
        ExtensionField(Z2, (1, 1))


# arithmetic -----------------------------------------------------------------

def test_inverse_in_z5_by_brute_force():
    # unique x in 1..4 with 3x = 1 (mod 5)
    expected = [x for x in range(1, 5) if (3 * x) % 5 == 1]
    assert expected == [2]
    assert Z5.inv(3) == 2


def test_gf4_generator_square():
    # x^2 mod (x^2 + x + 1) = x + 1 over Z_2
    a = GF4.generator
    assert GF4.mul(a, a) == (1, 1)


def test_rational_addition():
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Z5.inv(0)
    with pytest.raises(DivisionByZero):
        Q.div(Fraction(1), Fraction(0))
    with pytest.raises(DivisionByZero):
        GF4.inv(GF4.zero)


@pytest.mark.parametrize("field", SMALL_FINITE, ids=lambda f: f.descriptor())
def test_field_axioms_exhaustive(field):
    elems = list(field.elements())
    zero, one = field.zero, field.one
    for a in elems:
        assert field.add(a, zero) == a
        assert field.mul(a, one) == a
        assert field.add(a, field.neg(a)) == zero
        if a != zero:
            assert field.mul(a, field.inv(a)) == one
    for a, b in itertools.product(elems, repeat=2):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )


@pytest.mark.parametrize("field", SMALL_FINITE, ids=lambda f: f.descriptor())
def test_characteristic_is_minimal(field):
    p = field.characteristic
    acc = field.zero
    for n in range(1, p):
        acc = field.add(acc, field.one)
        assert acc != field.zero, f"{n} * 1 = 0 below the characteristic"
    assert field.add(acc, field.one) == field.zero


def test_characteristic_values():
    assert Q.characteristic == 0
    assert QS2.characteristic == 0
    assert GF4.characteristic == 2
    assert Z5.characteristic == 5


# prime subfield embedding ---------------------------------------------------

def test_embed_identity_into_gf4():
    assert GF4.embed(1, 2) == (1, 0)
    assert GF4.embed(1, 2) == GF4.one


def test_embed_characteristic_mismatch():
    with pytest.raises(CharacteristicMismatch):
        Z5.embed(1, 2)
    with pytest.raises(CharacteristicMismatch):
        GF4.embed(Fraction(1, 2), 0)
    with pytest.raises(CharacteristicMismatch):
        Q.embed(1, 5)


def test_embed_rational_constant_into_qsqrt2():
    assert QS2.embed(Fraction(2, 3), 0) == (Fraction(2, 3), Fraction(0))


@pytest.mark.parametrize("field", [GF4, GF8, GF9], ids=lambda f: f.descriptor())
def test_embed_is_injective_ring_hom_exhaustive(field):
    p = field.characteristic
    images = [field.embed(r, p) for r in range(p)]
    assert len(set(images)) == p
    for a, b in itertools.product(range(p), repeat=2):
        assert field.add(images[a], images[b]) == field.embed((a + b) % p, p)
        assert field.mul(images[a], images[b]) == field.embed((a * b) % p, p)


def test_embed_preserves_ops_into_qsqrt2_on_samples():
    # deterministic 100-pair sample of rationals
    sample = [Fraction(n, d) for n in range(-4, 6) for d in range(1, 11)]
    assert len(sample) == 100
    images = {}
    for a in sample:
        images[a] = QS2.embed(a, 0)
    assert len(set(images.values())) == len(set(sample))
    for a, b in zip(sample, reversed(sample)):
        assert QS2.add(images[a], images[b]) == QS2.embed(a + b, 0)
        assert QS2.mul(images[a], images[b]) == QS2.embed(a * b, 0)


# enumeration ----------------------------------------------------------------

def test_enumerate_z3():
    assert list(Z3.elements()) == [0, 1, 2]


def test_enumerate_gf4_rank_order():
    assert list(GF4.elements()) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    for r, e in enumerate(GF4.elements()):
        assert GF4.rank(e) == r


def test_enumerate_infinite_field_rejected():
    with pytest.raises(InfiniteFieldError):
        list(Q.elements())
    with pytest.raises(InfiniteFieldError):
        list(QS2.elements())


@pytest.mark.parametrize("field", SMALL_FINITE, ids=lambda f: f.descriptor())
def test_enumeration_emits_q_distinct_elements(field):
    elems = list(field.elements())
    assert len(elems) == field.order
    assert len(set(elems)) == field.order


# irreducibility -------------------------------------------------------------

def test_irreducible_examples():
    assert is_irreducible(Z2, (1, 1, 1))
    assert is_irreducible(Z2, (1, 1, 0, 1))
    assert is_irreducible(Q, (Fraction(-2), Fraction(0), Fraction(1)))


def test_q_irreducibility_degree_cap():
    with pytest.raises(UnsupportedDegree):
        is_irreducible(Q, tuple(map(Fraction, (1, 0, 0, 0, 1))))


def test_q_cubic_with_rational_root_is_reducible():
    # x^3 - x has roots; x^3 - 2 does not
    assert not is_irreducible(Q, tuple(map(Fraction, (-1, 0, 1))))
    assert is_irreducible(Q, tuple(map(Fraction, (-2, 0, 0, 1))))


def _has_rational_root_on_grid(coeffs, denominators, bound):
    """Oracle: try every n/d with d in denominators and |n/d| <= bound."""
    for d in denominators:
        for n in range(-bound * d, bound * d + 1):
            r = Fraction(n, d)
            if sum(c * r**i for i, c in enumerate(coeffs)) == 0:
                return True
    return False


def test_q_irreducibility_matches_root_grid_search():
    # a monic rational root p/q has |p/q| <= 1 + max|c_i| and q dividing
    # the lcm of the coefficient denominators
    halves = sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2)})
    for c0, c1 in itertools.product(halves, repeat=2):
        coeffs = (c0, c1, Fraction(1))
        assert is_irreducible(Q, coeffs) == (
            not _has_rational_root_on_grid(coeffs, (1, 2), 4)
        )
    ints = [Fraction(n) for n in range(-3, 4)]
    for c0, c1, c2 in itertools.product(ints, repeat=3):
        coeffs = (c0, c1, c2, Fraction(1))
        assert is_irreducible(Q, coeffs) == (
            not _has_rational_root_on_grid(coeffs, (1,), 4)
        )


def test_q_irreducibility_large_constant_is_fast():
    start = time.perf_counter()
    field = parse_field("Qext:-1000000007,0,1")
    assert time.perf_counter() - start < 1.0
    assert field.descriptor() == "Qext:-1000000007,0,1"
    for text in [
        "Qext:-1000000007,0,0,1",  # x^3 - p, p prime
        "Qext:-200000000000000,0,0,1",
        "Qext:-10000000000000000,0,0,1",
        "Qext:-2/10000000000000000,0,0,1",
    ]:
        start = time.perf_counter()
        parse_field(text)
        assert time.perf_counter() - start < 1.0


def test_q_reducible_large_constant_is_fast():
    # (x - 1000000007)(x + 1000000007)
    start = time.perf_counter()
    with pytest.raises(ReducibleModulus):
        parse_field("Qext:-1000000014000000049,0,1")
    assert time.perf_counter() - start < 1.0
    # (x - 1000003)(x^2 + 1)
    start = time.perf_counter()
    with pytest.raises(ReducibleModulus):
        parse_field("Qext:-1000003,1,-1000003,1")
    assert time.perf_counter() - start < 1.0
    # x^3 - 10^18 has the root 10^6
    start = time.perf_counter()
    with pytest.raises(ReducibleModulus):
        parse_field("Qext:-1000000000000000000,0,0,1")
    assert time.perf_counter() - start < 1.0


def test_q_cubic_irreducibility_matches_integer_root_scan():
    # monic integer cubics: a rational root is an integer within 1 + max|c_i|
    for c0, c1, c2 in itertools.product(range(-8, 9), repeat=3):
        coeffs = tuple(map(Fraction, (c0, c1, c2, 1)))
        bound = 1 + max(abs(c0), abs(c1), abs(c2))
        has_root = any(
            c0 + c1 * y + c2 * y * y + y**3 == 0 for y in range(-bound, bound + 1)
        )
        assert is_irreducible(Q, coeffs) == (not has_root), coeffs


def test_q_cubic_roots_near_the_critical_points():
    # cubics with integer roots next to, between and beyond the critical
    # points, and the same roots divided by 3; all reducible
    for r1, r2, r3 in itertools.product((-7, -1, 0, 2, 5, 40), repeat=3):
        roots = (r1, r2, r3)
        coeffs = (-r1 * r2 * r3, r1 * r2 + r2 * r3 + r1 * r3, -(r1 + r2 + r3), 1)
        assert not is_irreducible(Q, tuple(map(Fraction, coeffs)))
        scaled = tuple(Fraction(c, 3 ** (3 - i)) for i, c in enumerate(coeffs))
        assert not is_irreducible(Q, scaled), roots  # roots r/3
    # (x - r)(x^2 + 2) stays reducible, x^3 + c with c not a cube does not
    for r in (-9, 0, 4, 10**9):
        assert not is_irreducible(Q, tuple(map(Fraction, (-2 * r, 2, -r, 1))))
    for c in (2, -3, 9, 10**12 + 1):
        assert is_irreducible(Q, tuple(map(Fraction, (c, 0, 0, 1))))


def _monic_polys(base, degree):
    elems = list(base.elements())
    for coeffs in itertools.product(elems, repeat=degree):
        yield coeffs + (base.one,)


def _reducible_by_full_trial_division(base, poly):
    """Oracle: divide by every monic polynomial of degree 1..deg-1."""
    deg = len(poly) - 1
    for d in range(1, deg):
        for g in _monic_polys(base, d):
            _, rem = poly_divmod(base, poly, g)
            if not rem:
                return True
    return False


@pytest.mark.parametrize("base", [Z2, Z3], ids=lambda f: f.descriptor())
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_irreducibility_matches_factorization_oracle(base, degree):
    for poly in _monic_polys(base, degree):
        assert is_irreducible(base, poly) == (
            not _reducible_by_full_trial_division(base, poly)
        )


@pytest.mark.parametrize(
    "base,degree",
    [(Z2, 5), (Z2, 6), (Z5, 2), (Z5, 3), (PrimeField(7), 2), (PrimeField(7), 3)],
    ids=["Fp:2-5", "Fp:2-6", "Fp:5-2", "Fp:5-3", "Fp:7-2", "Fp:7-3"],
)
def test_ben_or_matches_factorization_oracle(base, degree):
    for poly in _monic_polys(base, degree):
        assert is_irreducible(base, poly) == (
            not _reducible_by_full_trial_division(base, poly)
        ), poly


def test_find_irreducible_degree_64_over_z2():
    start = time.perf_counter()
    poly = find_irreducible(Z2, 64)
    assert time.perf_counter() - start < 1.0
    assert poly == (1, 1, 0, 1, 1) + (0,) * 59 + (1,)  # x^64 + x^4 + x^3 + x + 1


def test_ben_or_work_guard_refuses_before_any_step():
    start = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge, match="degree 256 over Z_2"):
        find_irreducible(Z2, 256)
    with pytest.raises(SearchSpaceTooLarge, match="degree 100000000 over Z_2"):
        find_irreducible(Z2, 100_000_000)
    with pytest.raises(SearchSpaceTooLarge, match="degree 300 over Z_2"):
        is_irreducible(Z2, (1,) + (0,) * 299 + (1,))
    with pytest.raises(SearchSpaceTooLarge, match="degree 300 over Z_2"):
        parse_field("Fq:2:" + ",".join(["1"] + ["0"] * 299 + ["1"]))
    assert time.perf_counter() - start < 1.0
    # degree 128 is inside the limit: x^128 shares the root 0 with x^2 - x
    assert not is_irreducible(Z2, (0,) * 128 + (1,))


def test_find_irreducible_examples():
    assert find_irreducible(Z2, 2) == (1, 1, 1)
    assert find_irreducible(Z2, 3) == (1, 1, 0, 1)
    assert find_irreducible(Z3, 2) == (1, 0, 1)


PRIMES_BELOW_50 = [p for p in range(2, 50) if is_prime(p)]


def _some_binomial_irreducible(p, d):
    """Lidl and Niederreiter, Finite Fields, Theorem 3.75: some x^d + c is
    irreducible over Z_p iff every prime factor of d divides p - 1, and
    p = 1 mod 4 when 4 | d."""
    factors = [r for r in range(2, d + 1) if d % r == 0 and is_prime(r)]
    return all((p - 1) % r == 0 for r in factors) and (d % 4 != 0 or p % 4 == 1)


def test_binomial_rule_matches_ben_or():
    for p in PRIMES_BELOW_50:
        base = PrimeField(p)
        for d in range(2, 9):
            some = any(
                is_irreducible(base, (c,) + (0,) * (d - 1) + (1,)) for c in range(p)
            )
            assert some == _some_binomial_irreducible(p, d), (p, d)


def test_find_irreducible_matches_the_walk_from_rank_0(monkeypatch):
    tested = []

    def counting(base, coeffs):
        tested.append(coeffs)
        return is_irreducible(base, coeffs)

    monkeypatch.setattr(fields, "is_irreducible", counting)
    for p in PRIMES_BELOW_50:
        base = PrimeField(p)
        for d in range(2, 9):
            # every candidate in rank order, coefficient 0 fastest
            walk = (high[::-1] + (1,)
                    for high in itertools.product(range(p), repeat=d))
            first = next(f for f in walk if is_irreducible(base, f))
            tested.clear()
            assert find_irreducible(base, d) == first, (p, d)
            # the binomials are tested only where one can be irreducible
            rank = sum(c * p**i for i, c in enumerate(first[:-1]))
            skipped = 0 if _some_binomial_irreducible(p, d) else p
            assert len(tested) == rank + 1 - skipped, (p, d)


def test_find_irreducible_z2_cubic_predecessors_reducible():
    # the three earlier-ranked cubics all factor
    for coeffs in [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1)]:
        assert not is_irreducible(Z2, coeffs)


# hypothesis: extension arithmetic consistency --------------------------------

ranks9 = st.integers(min_value=0, max_value=8)


@given(ranks9, ranks9, ranks9)
def test_gf9_ring_laws(ra, rb, rc):
    a, b, c = (GF9.element_from_rank(r) for r in (ra, rb, rc))
    assert GF9.mul(a, GF9.add(b, c)) == GF9.add(GF9.mul(a, b), GF9.mul(a, c))
    assert GF9.mul(GF9.mul(a, b), c) == GF9.mul(a, GF9.mul(b, c))


@given(ranks9.filter(lambda r: r != 0))
def test_gf9_inverse(r):
    a = GF9.element_from_rank(r)
    assert GF9.mul(a, GF9.inv(a)) == GF9.one


@given(
    st.tuples(st.fractions(), st.fractions()),
    st.tuples(st.fractions(), st.fractions()),
)
def test_qsqrt2_product_matches_surd_identity(a, b):
    # (a0 + a1 s)(b0 + b1 s) = a0 b0 + 2 a1 b1 + (a0 b1 + a1 b0) s
    prod = QS2.mul(a, b)
    assert prod == (a[0] * b[0] + 2 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _reduced_product(field, a, b):
    """Reference: the product reduced by polynomial division, padded."""
    _, rem = poly_divmod(field.base, poly_mul(field.base, a, b), field.modulus)
    return tuple(rem) + (field.base.zero,) * (field.degree - len(rem))


@pytest.mark.parametrize(
    "field",
    [GF4, GF8, ExtensionField(Z2, (1, 0, 1, 1)), GF9, gf(5, 2), gf(3, 3)],
    ids=lambda f: f.descriptor(),
)
def test_extension_mul_matches_polynomial_division_exhaustive(field):
    elems = list(field.elements())
    for a in elems:
        for b in elems:
            assert field.mul(a, b) == _reduced_product(field, a, b)


@pytest.mark.parametrize(
    "field",
    [QS2, parse_field("Qext:-2,0,0,1"), parse_field("Qext:1/3,-2/5,7/2,1")],
    ids=lambda f: f.descriptor(),
)
def test_extension_mul_matches_polynomial_division_sampled(field):
    rng = random.Random(97)
    for _ in range(500):
        a, b = field.random_element(rng), field.random_element(rng)
        prod = field.mul(a, b)
        assert prod == _reduced_product(field, a, b)
        assert all(isinstance(c, Fraction) for c in prod)


# the integer kernel of Q(a): products and inverses against division ----------

Q_EXTENSIONS = [
    QS2,
    parse_field("Qext:-2,0,0,1"),
    parse_field("Qext:1/3,-1/2,0,1"),
    parse_field("Qext:-7/5,3/4,1"),
    parse_field("Qext:5,-3/7,2/9,1"),
]


def _big_elements(field, seed, count):
    """Seeded elements with numerators and denominators up to 10^12, then
    1, -1 and the generator."""
    rng = random.Random(seed)
    big = [
        tuple(
            Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
            for _ in range(field.degree)
        )
        for _ in range(count)
    ]
    return big + [field.one, field.neg(field.one), field.generator]


def _assert_kernel_matches_oracle(field, a, b):
    prod = field.mul(a, b)
    assert prod == _reduced_product(field, a, b)
    assert all(type(c) is Fraction for c in prod)
    if any(a):
        inv = field.inv(a)
        assert all(type(c) is Fraction for c in inv) and len(inv) == field.degree
        assert _reduced_product(field, a, inv) == field.one


@pytest.mark.parametrize("field", Q_EXTENSIONS, ids=lambda f: f.descriptor())
def test_q_extension_kernel_matches_polynomial_division(field):
    elems = _big_elements(field, 1201, 60)
    for a in elems:
        for b in elems[::7]:
            _assert_kernel_matches_oracle(field, a, b)
    with pytest.raises(DivisionByZero):
        field.inv(field.zero)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    st.sampled_from(Q_EXTENSIONS),
    st.lists(
        st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
        min_size=6, max_size=6,
    ),
)
def test_q_extension_kernel_property(field, coeffs):
    d = field.degree
    _assert_kernel_matches_oracle(field, tuple(coeffs[:d]), tuple(coeffs[3:3 + d]))


# Q(a) division, the GF(p^d) inverse and the k-linear map against the oracle -

@pytest.mark.parametrize("field", Q_EXTENSIONS, ids=lambda f: f.descriptor())
def test_q_extension_div_matches_inverse_and_oracle(field):
    elems = _big_elements(field, 1301, 30)
    for a in elems[::3] + [field.zero]:
        for b in elems:
            quot = field.div(a, b)
            assert all(type(c) is Fraction for c in quot) and len(quot) == field.degree
            assert quot == field.mul(a, field.inv(b))
            assert _reduced_product(field, b, quot) == a
    with pytest.raises(DivisionByZero, match=re.escape(f"1/0 in {field.descriptor()}")):
        field.div(field.one, field.zero)


@pytest.mark.parametrize(
    "field", [GF4, GF8, GF9, gf(5, 2), gf(3, 3), gf(3, 4)],
    ids=lambda f: f.descriptor(),
)
def test_gf_inverse_matches_oracle_exhaustive(field):
    for a in field.elements():
        if any(a):
            inv = field.inv(a)
            assert field.contains(inv)
            assert _reduced_product(field, a, inv) == field.one
    with pytest.raises(DivisionByZero, match=re.escape(f"1/0 in {field.descriptor()}")):
        field.inv(field.zero)


def test_gf_2_64_inverse_matches_oracle():
    field, rng = gf(2, 64), random.Random(1409)
    for a in [field.random_element(rng) for _ in range(100)]:
        if any(a):
            inv = field.inv(a)
            assert field.contains(inv)
            assert _reduced_product(field, a, inv) == field.one


def _klinear_by_field_ops(m, v):
    """The k-linear map by its definition: sum of embed(c_i) * img_i in F."""
    field = m.field
    acc = field.zero
    for c, img in zip(v[0], m.basis_images):
        scalar = field.embed(c, field.characteristic)
        acc = field.add(acc, field.mul(scalar, img))
    return (acc,)


def _forbidden(*args):
    raise AssertionError("an integer evaluate called a field operation")


@pytest.mark.parametrize(
    "field", Q_EXTENSIONS + [GF4, gf(3, 4), gf(2, 64)], ids=lambda f: f.descriptor()
)
def test_klinear_evaluate_matches_field_operations(field, monkeypatch):
    rng = random.Random(1511)
    if field.is_finite:
        images = [field.random_element(rng) for _ in range(field.degree)]
        inputs = [field.random_element(rng) for _ in range(60)]
    else:
        # image i has every coefficient over the denominator 2^(i+1) 3^i,
        # so the images share no denominator; inputs mix denominators
        images = [
            tuple(
                Fraction(2 * rng.randint(-10**6, 10**6) + 1, 2 ** (i + 1) * 3 ** i)
                for _ in range(field.degree)
            )
            for i in range(field.degree)
        ]
        inputs = _big_elements(field, 1511, 40)
    inputs.append(field.zero)
    m = KLinearExtensionMap(field, images)
    expected = [_klinear_by_field_ops(m, (x,)) for x in inputs]
    for op in ("mul", "add", "embed"):
        monkeypatch.setattr(ExtensionField, op, _forbidden)
    for x, want in zip(inputs, expected):
        got = m.evaluate((x,))
        assert got == want
        assert m.codomain.contains(got)


def _ratio_by_field_ops(field, x, y):
    """The ratio map by its definition: x + y, then x * y / (x + y)."""
    s = field.add(x, y)
    if s == field.zero:
        return (field.zero,)
    return (field.div(field.mul(x, y), s),)


@pytest.mark.parametrize(
    "field",
    [Q, QS2, parse_field("Qext:-2,0,0,1"), parse_field("Qext:1/3,-2/5,7/2,1"),
     gf(5, 2), PrimeField(23)],
    ids=lambda f: f.descriptor(),
)
def test_ratio_evaluate_matches_field_operations(field, monkeypatch):
    # the last Q(a) has modulus denominator L = 30, so its products fold with
    # lead 30; the finite fields keep the field operations, on every pair
    if field.is_finite:
        elems = list(field.elements())
    elif isinstance(field, Rationals):
        rng = random.Random(1601)
        elems = [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
                 for _ in range(14)] + [Fraction(1), Fraction(-1)]
    else:
        elems = _big_elements(field, 1601, 12)
    pairs = [(x, y) for x in elems for y in elems]
    pairs += [p for x in elems for p in
              ((x, field.zero), (field.zero, x), (x, field.neg(x)))]
    expected = [_ratio_by_field_ops(field, x, y) for x, y in pairs]
    m = RatioMap(field)
    if not field.is_finite:
        for cls in (Rationals, ExtensionField):
            for op in ("add", "mul", "div", "inv"):
                monkeypatch.setattr(cls, op, _forbidden)
    for (x, y), want in zip(pairs, expected):
        got = m.evaluate((x, y))
        assert repr(got) == repr(want)
        assert m.codomain.contains(got)


KERNEL_FIELDS = [Q, QS2, parse_field("Qext:-2,0,0,1"),
                 parse_field("Qext:1/3,-2/5,7/2,1"), PrimeField(23), gf(5, 2), GF8]


def _per_coefficient(*args):
    raise AssertionError("an extension kernel called its base field")


def _by_coefficients(field, op, *elems):
    """The base field's op, coefficient by coefficient for an extension."""
    if isinstance(field, ExtensionField):
        return tuple(getattr(field.base, op)(*cs) for cs in zip(*elems))
    return getattr(field, op)(*elems)


def _product(field, a, b):
    if isinstance(field, ExtensionField):
        return _reduced_product(field, a, b)
    return field.mul(a, b)


def _rep_by_coefficients(field, v):
    first = next(c for c in v if c != field.zero)
    inv = field.inv(first)
    return tuple(_product(field, c, inv) for c in v), first


def _draw_by_coefficients(field, rng):
    """A base-field draw per coefficient: randrange(p) over Z_p, the two
    randint calls over Q."""
    def draw():
        if field.characteristic:
            return rng.randrange(field.characteristic)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if isinstance(field, ExtensionField):
        return tuple(draw() for _ in range(field.degree))
    return draw()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.descriptor())
def test_element_and_vector_kernels_match_base_field_operations(field, monkeypatch):
    # expected values are made first, from base-field operations one
    # coefficient at a time; then an extension's base field is patched to
    # raise, so the kernels are shown to make no base-field call
    if field.is_finite:
        elems = list(field.elements())
    elif isinstance(field, Rationals):
        rng = random.Random(2001)
        elems = [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
                 for _ in range(9)] + [Q.one, -Q.one, Q.zero]
    else:
        elems = _big_elements(field, 2001, 9) + [field.zero]
    rng = random.Random(2002)
    space = VectorSpace(field, 3)
    vectors = [tuple(rng.choice(elems) for _ in range(3)) for _ in range(12)]
    vectors += [(field.zero, x, y) for x, y in zip(elems[:4], elems[4:8])]
    vectors.append((field.zero, field.zero, field.one))
    pairs = [(x, y) for x in elems for y in elems[::3]]
    lams = elems[::2]
    expected = {
        "add": [_by_coefficients(field, "add", x, y) for x, y in pairs],
        "neg": [_by_coefficients(field, "neg", x) for x in elems],
        "vadd": [tuple(_by_coefficients(field, "add", a, b) for a, b in zip(u, v))
                 for u, v in zip(vectors, vectors[1:])],
        "vneg": [tuple(_by_coefficients(field, "neg", a) for a in v) for v in vectors],
        "scale": [tuple(_product(field, lam, c) for c in v)
                  for lam in lams for v in vectors],
        "rep": [_rep_by_coefficients(field, v) for v in vectors],
    }
    if field.is_finite:
        p = field.characteristic
        expected["rank"] = [
            sum(field.base.rank(c) * p**i for i, c in enumerate(x))
            if isinstance(field, ExtensionField) else field.rank(x) for x in elems
        ]
    plain = random.Random(2003)
    expected["draws"] = [tuple(_draw_by_coefficients(field, plain) for _ in range(3))
                         for _ in range(40)]
    if isinstance(field, ExtensionField):
        for op in ("add", "neg", "mul", "inv", "rank", "element_from_rank",
                   "contains", "random_element"):
            monkeypatch.setattr(field.base, op, _per_coefficient, raising=False)
    got = {
        "add": [field.add(x, y) for x, y in pairs],
        "neg": [field.neg(x) for x in elems],
        "vadd": [space.add(u, v) for u, v in zip(vectors, vectors[1:])],
        "vneg": [space.neg(v) for v in vectors],
        "scale": [space.scalar_mul(lam, v) for lam in lams for v in vectors],
        "rep": [space.canonical_rep(v) for v in vectors],
    }
    assert got["scale"] == [field.scale(lam, v) for lam in lams for v in vectors]
    if field.is_finite:
        got["rank"] = [field.rank(x) for x in elems]
        assert got["rank"] == list(range(field.order))
        assert list(field.elements()) == elems  # element_from_rank, rank's inverse
        assert [space.coordinate_ranks(v) for v in vectors] == [
            tuple(got["rank"][elems.index(c)] for c in v) for v in vectors]
    drawn = random.Random(2003)
    got["draws"] = [space.random_vector(drawn) for _ in range(40)]
    assert drawn.getstate() == plain.getstate()
    for key, want in expected.items():
        same = repr(got[key]) == repr(want)  # values and their types
        assert same, key
    assert all(field.contains(x) for x in elems)
    assert all(space.contains(v) for v in vectors + got["vadd"] + got["scale"])
    with pytest.raises(ZeroVector):
        space.canonical_rep(space.zero)


def _membership_cases(field):
    """Bad inputs to a 2-dim space over field, each with the verdict of
    contains and the error _check raises (None: it passes)."""
    p, one = field.characteristic, field.one
    ext = isinstance(field, ExtensionField)

    def element(c):  # an element whose first coefficient is c
        return (c,) + one[1:] if ext else c

    cases = [
        ("float", (element(1.0), one), False, FieldMismatch),
        ("list vector", [one, one], False, FieldMismatch),
        ("wrong length", (one, one, one), False, DimensionMismatch),
        # bool is an int: a residue 0 or 1, not a Fraction
        ("bool", (element(True), one), bool(p), None if p else FieldMismatch),
    ]
    if ext:
        cases += [("list element", (list(one), one), False, FieldMismatch),
                  ("short element", (one[:-1], one), False, FieldMismatch)]
    if p:
        cases += [("residue p", (element(p), one), False, FieldMismatch),
                  ("Fraction residue", (element(Fraction(1)), one), False,
                   FieldMismatch)]
    return cases


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.descriptor())
def test_membership_verdicts_and_messages(field):
    space = VectorSpace(field, 2)
    for label, v, verdict, error in _membership_cases(field):
        assert space.contains(v) is verdict, label
        # the first coordinate is the bad one, unless the vector's shape is
        bad_first = error is FieldMismatch and isinstance(v, tuple)
        assert field.contains(v[0]) is (verdict or not bad_first), label
        if error is None:
            space._check(v)
            continue
        msg = (f"vector {v!r} not over {field}" if error is FieldMismatch
               else "expected dimension 2, got 3")
        with pytest.raises(error, match=f"^{re.escape(msg)}$"):
            space._check(v)


@pytest.mark.parametrize("seed", [7, 24001])
def test_rational_draws_match_fraction_of_two_randints(seed):
    table, plain = random.Random(seed), random.Random(seed)
    for _ in range(10_000):
        got = Q.random_element(table)
        want = Fraction(plain.randint(-9, 9), plain.randint(1, 9))
        assert type(got) is Fraction and got == want
    assert table.getstate() == plain.getstate()


# rank rows ------------------------------------------------------------------

@pytest.mark.parametrize(
    "field",
    [Z2, Z3, Z5, PrimeField(7), PrimeField(23), GF4, GF8,
     ExtensionField(Z2, (1, 0, 1, 1)), GF9, gf(5, 2), gf(3, 3), gf(3, 4)],
    ids=lambda f: f.descriptor(),
)
def test_rank_rows_match_field_operations(field):
    rows = SpaceRows(VectorSpace(field, 1))
    q, elems = field.order, list(field.elements())
    exp = rows._logs()[0]
    assert sorted(exp) == list(range(1, q))
    assert all(rows._logs()[1][r] == k for k, r in enumerate(exp))
    # the primitive element: its first power back at 1 is the (q-1)-th
    g = x = elems[rows.g]
    assert field.rank(g) == exp[1 % (q - 1)]
    order = 1
    while x != field.one:
        x, order = field.mul(x, g), order + 1
    assert order == q - 1
    for a, ea in enumerate(elems):
        add, mul = rows.field_add(a), rows.field_mul(a)
        for b, eb in enumerate(elems):
            assert elems[add[b]] == field.add(ea, eb)
            assert elems[mul[b]] == field.mul(ea, eb)


@pytest.mark.parametrize(
    "moduli",
    [("Fq:2:1,1,0,1", "Fq:2:1,0,1,1"), ("Fq:3:1,0,1", "Fq:3:2,1,1")],
    ids=["GF8", "GF9"],
)
def test_log_rows_are_kept_per_field(monkeypatch, moduli):
    # two fields of one order, under different moduli, rows built alternately
    pair = [parse_field(m) for m in moduli]
    q = pair[0].order
    for a in range(q):
        for field in pair:
            ea = field.element_from_rank(a)
            want = [field.rank(field.mul(ea, eb)) for eb in field.elements()]
            assert SpaceRows(VectorSpace(field, 1)).field_mul(a) == want
    calls = []
    for field in pair:  # the rows of a second space come from its field object
        monkeypatch.setattr(field, "mul", lambda *args: calls.append(args))
        rows = SpaceRows(VectorSpace(field, 2))
        assert len(rows._logs()[0]) == q - 1 and len(rows.act(q - 1)) == q**2
    assert calls == []


# text encoding --------------------------------------------------------------

@pytest.mark.parametrize(
    "text", ["Q", "Fp:5", "Fq:2:1,1,1", "Fq:3:1,0,1", "Qext:-2,0,1"]
)
def test_descriptor_roundtrip(text):
    assert parse_field(text).descriptor() == text


def test_bad_descriptor():
    with pytest.raises(SpecFormatError):
        parse_field("GF:4")


@pytest.mark.parametrize(
    "text",
    ["Fp:+3", "Fp:1_1", "Fp:\u0663", "Fq:+2:1,1,1", "Fq:2:1,+1,1",
     "Fq:\u0662:1,1,1"],
)
def test_descriptor_integers_are_ascii_digits(text):
    # read as descriptor() writes them, -?[0-9]+, though int() takes these
    with pytest.raises(SpecFormatError):
        parse_field(text)


@pytest.mark.parametrize("field", SMALL_FINITE + [Q, QS2], ids=lambda f: f.descriptor())
def test_element_encoding_roundtrip(field):
    if field.is_finite:
        elems = list(field.elements())
    else:
        elems = [field.from_int(n) for n in range(-3, 4)]
        elems.append(field.embed(Fraction(22, 7), 0))
    for e in elems:
        assert field.decode(field.encode(e)) == e


def test_gf_convenience():
    assert gf(2, 3).descriptor() == "Fq:2:1,1,0,1"
    assert gf(7).descriptor() == "Fp:7"


def test_from_int_over_finite_fields():
    # n * 1 is n mod p, embedded in the prime subfield
    assert Z5.from_int(7) == 2
    assert GF4.from_int(3) == GF4.one
    assert GF9.from_int(-1) == GF9.embed(2, 3) == (2, 0)


def test_poly_helpers_trim_and_mul():
    assert poly_trim(Z2, (1, 1, 0, 0)) == (1, 1)
    assert poly_mul(Z2, (1, 1), (1, 1)) == (1, 0, 1)


def test_additivity_check_builds_no_log_table(monkeypatch):
    # the addition rows need no logarithms: an exhaustive additivity check
    # over GF(81) must not build SpaceRows._logs (81 field products)
    made, builds = [], []
    init, logs = SpaceRows.__init__, SpaceRows._logs

    def record_init(self, space):
        init(self, space)
        made.append(self)

    def record_logs(self):
        if self not in builds:  # the first request on this SpaceRows
            builds.append(self)
        return logs(self)

    monkeypatch.setattr(SpaceRows, "__init__", record_init)
    monkeypatch.setattr(SpaceRows, "_logs", record_logs)
    field = gf(3, 4)
    m = KLinearExtensionMap(field, (field.generator,) * field.degree)
    assert check_additive(m, EXHAUSTIVE).verdict == "holds_exhaustive"
    assert made and not builds
    assert made[0].field_mul(1) == list(range(field.order))  # built on request
    assert builds == [made[0]]
