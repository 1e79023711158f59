"""Vector arithmetic, enumeration order, and scalar orbits."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from addhom.errors import (
    DimensionMismatch,
    FieldMismatch,
    InfiniteFieldError,
    SpecFormatError,
    ZeroVector,
)
from addhom.fields import ExtensionField, PrimeField, Rationals, gf, parse_field
from addhom.spaces import SpaceRows, VectorSpace

Q = Rationals()
Z2 = PrimeField(2)
Z3 = PrimeField(3)
Z5 = PrimeField(5)
GF4 = gf(2, 2)


def frac(n, d=1):
    return Fraction(n, d)


# arithmetic -----------------------------------------------------------------

def test_vector_addition_over_q():
    space = VectorSpace(Q, 2)
    assert space.add((frac(1), frac(0)), (frac(0), frac(1))) == (frac(1), frac(1))


def test_scalar_mul_over_z5():
    space = VectorSpace(Z5, 2)
    assert space.scalar_mul(2, (1, 2)) == (2, 4)


def test_dimension_mismatch():
    space = VectorSpace(Q, 2)
    with pytest.raises(DimensionMismatch):
        space.add((frac(1), frac(0)), (frac(0), frac(1), frac(0)))


def test_field_mismatch():
    space = VectorSpace(Z5, 2)
    with pytest.raises(FieldMismatch):
        space.add((1, 2), (frac(1), frac(2)))
    with pytest.raises(FieldMismatch):
        space.scalar_mul(frac(2), (1, 2))


# enumeration ----------------------------------------------------------------

def test_enumerate_z2_dim2_order():
    space = VectorSpace(Z2, 2)
    assert list(space.vectors()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_z3_dim1():
    assert len(list(VectorSpace(Z3, 1).vectors())) == 3


def test_enumerate_gf4_dim2():
    vecs = list(VectorSpace(GF4, 2).vectors())
    assert len(vecs) == 16
    assert len(set(vecs)) == 16


def test_enumerate_infinite_rejected():
    with pytest.raises(InfiniteFieldError):
        list(VectorSpace(Q, 1).vectors())
    # rank arithmetic refuses Q where size does, with size's message
    space = VectorSpace(Q, 2)
    for call in (space.orbit_ranks, lambda: space.rank((Q.one, Q.zero)),
                 lambda: space.vector_from_rank(0)):
        with pytest.raises(InfiniteFieldError, match=r"^Q\^2 is infinite$"):
            call()


def test_rank_roundtrip():
    space = VectorSpace(Z3, 2)
    for r, v in enumerate(space.vectors()):
        assert space.rank(v) == r
        assert space.vector_from_rank(r) == v


@pytest.mark.parametrize(
    "field,dim", [(Z3, 2), (GF4, 2), (Z2, 3), (gf(3, 2), 2)],
    ids=["Z3-2", "GF4-2", "Z2-3", "GF9-2"],
)
def test_rank_rows_match_vector_operations(field, dim):
    # GF9-2 (p > 2, d > 1): steps wrap digit p - 1 inside a coordinate and at
    # a coordinate's lowest digit
    space = VectorSpace(field, dim)
    rows, vecs = SpaceRows(space), list(space.vectors())
    for i, u in enumerate(vecs):
        assert [vecs[k] for k in rows.add(i)] == [space.add(u, v) for v in vecs]
    assert rows.sums() == [rows.add(i) for i in range(len(vecs))]
    p, d = field.characteristic, field.degree
    steps = rows.steps()
    assert [e for e, _ in steps] == [p**k for k in range(d * dim)]
    for e, row in steps:
        assert row == rows.add(e)
    for s, lam in enumerate(field.elements()):
        assert [vecs[k] for k in rows.act(s)] == [
            space.scalar_mul(lam, v) for v in vecs
        ]


# canonical representatives ---------------------------------------------------

def test_canonical_rep_z5():
    space = VectorSpace(Z5, 2)
    # inv(2) = 3 in Z_5: 3*(2,4) = (6,12) = (1,2)
    assert space.canonical_rep((2, 4)) == ((1, 2), 2)
    assert space.canonical_rep((0, 3)) == ((0, 1), 3)
    assert space.canonical_rep((1, 1)) == ((1, 1), 1)


def test_canonical_rep_zero_rejected():
    with pytest.raises(ZeroVector):
        VectorSpace(Z5, 2).canonical_rep((0, 0))


def test_canonical_rep_over_q():
    space = VectorSpace(Q, 2)
    rep, scale = space.canonical_rep((frac(0), frac(3, 2)))
    assert rep == (frac(0), frac(1))
    assert scale == frac(3, 2)


def test_canonical_rep_inverts_the_scale_once(monkeypatch):
    field = gf(3, 2)
    calls = {"inv": 0, "div": 0}
    for name in calls:
        def counting(*args, _op=getattr(field, name), _name=name):
            calls[_name] += 1
            return _op(*args)

        monkeypatch.setattr(field, name, counting)
    v = tuple(field.element_from_rank(r) for r in (0, 5, 7))
    rep, scale = VectorSpace(field, 3).canonical_rep(v)
    assert calls == {"inv": 1, "div": 0}
    assert rep[:2] == (field.zero, field.one) and scale == v[1]


def test_canonical_rep_matches_per_coordinate_division():
    gf9 = VectorSpace(gf(3, 2), 2)
    qsqrt2 = VectorSpace(parse_field("Qext:-2,0,1"), 2)
    rng = random.Random(9)
    cases = [(gf9, v) for v in gf9.vectors()]
    cases += [(qsqrt2, qsqrt2.random_vector(rng)) for _ in range(50)]
    for space, v in cases:
        if v == space.zero:
            continue
        scale = next(c for c in v if c != space.field.zero)
        by_division = tuple(space.field.div(a, scale) for a in v), scale
        # the same values, types and encodings
        assert repr(space.canonical_rep(v)) == repr(by_division)


# orbits -----------------------------------------------------------------------

def test_orbits_z2_dim2():
    assert VectorSpace(Z2, 2).orbits() == [(0, 1), (1, 0), (1, 1)]


def test_orbits_gf4_dim2_count():
    assert len(VectorSpace(GF4, 2).orbits()) == 5


@pytest.mark.parametrize("field", [Z2, Z3, Z5, GF4], ids=lambda f: f.descriptor())
def test_dim1_single_orbit(field):
    orbits = VectorSpace(field, 1).orbits()
    assert len(orbits) == 1
    assert orbits[0] == (field.one,)


def test_orbits_are_listed_once_per_space(monkeypatch):
    space = VectorSpace(Z3, 2)
    first = space.orbits()
    calls = []
    vectors = VectorSpace.vectors
    monkeypatch.setattr(VectorSpace, "vectors",
                        lambda self: calls.append(self) or vectors(self))
    assert space.orbits() is first
    assert calls == []


def test_spaces_never_share_an_orbit_list():
    # a list kept per field would hand Z_2^2's representatives to Z_2^3
    field = PrimeField(2)
    plane, twin = VectorSpace(field, 2), VectorSpace(field, 2)
    cube = VectorSpace(field, 3)
    assert plane.orbits() == twin.orbits() == [(0, 1), (1, 0), (1, 1)]
    assert plane.orbits() is not twin.orbits()
    assert cube.orbits() == list(cube.vectors())[1:]  # over Z_2: every v != 0


ORBIT_SPACES = [
    (Z2, 2), (Z2, 3), (Z2, 4), (Z3, 2), (Z3, 3), (Z5, 2), (GF4, 2), (gf(3, 2), 2),
]


@pytest.mark.parametrize(
    "field,dim", ORBIT_SPACES, ids=lambda a: getattr(a, "descriptor", lambda: a)()
)
def test_orbit_partition_invariants(field, dim):
    space = VectorSpace(field, dim)
    q = field.order
    orbits = space.orbits()
    assert len(orbits) == (q**dim - 1) // (q - 1)
    # the closed-form ranks list no vector, yet name the same representatives
    assert space.orbit_ranks() == [space.rank(v) for v in orbits]
    assert len(space.orbit_ranks()) == space.orbit_count
    nonzero_scalars = [s for s in field.elements() if s != field.zero]
    seen = set()
    total = 0
    for rep in orbits:
        members = {space.scalar_mul(s, rep) for s in nonzero_scalars}
        assert len(members) == q - 1
        assert not members & seen, "orbits must be pairwise disjoint"
        seen |= members
        total += len(members)
    assert total == q**dim - 1
    assert seen | {space.zero} == set(space.vectors())


@pytest.mark.parametrize("field,dim", [(Z5, 2), (GF4, 2)],
                         ids=["Fp:5^2", "Fq4^2"])
def test_canonical_rep_constant_on_orbits_exhaustive(field, dim):
    space = VectorSpace(field, dim)
    for v in space.vectors():
        if v == space.zero:
            continue
        rep, scale = space.canonical_rep(v)
        assert space.scalar_mul(scale, rep) == v
        for lam in field.elements():
            if lam == field.zero:
                continue
            rep2, _ = space.canonical_rep(space.scalar_mul(lam, v))
            assert rep2 == rep


@given(
    st.tuples(st.fractions(), st.fractions(), st.fractions()).filter(
        lambda v: any(c != 0 for c in v)
    ),
    st.fractions().filter(lambda lam: lam != 0),
)
def test_canonical_rep_scalar_invariance_over_q(coords, lam):
    space = VectorSpace(Q, 3)
    rep, scale = space.canonical_rep(coords)
    rep2, _ = space.canonical_rep(space.scalar_mul(lam, coords))
    assert rep2 == rep
    assert space.scalar_mul(scale, rep) == coords


# text encoding -----------------------------------------------------------------

def test_vector_encoding_roundtrip_prime():
    space = VectorSpace(Z5, 3)
    v = (1, 0, 4)
    assert space.decode(space.encode(v)) == v


def test_vector_encoding_roundtrip_extension():
    space = VectorSpace(GF4, 2)
    for v in space.vectors():
        text = space.encode(v)
        assert space.decode(text) == v


def test_vector_encoding_roundtrip_q():
    space = VectorSpace(Q, 2)
    v = (frac(-3, 7), frac(5))
    assert space.decode("(-3/7,5)") == v
    assert space.decode(space.encode(v)) == v


def test_vector_decode_errors():
    space = VectorSpace(Z2, 2)
    with pytest.raises(SpecFormatError):
        space.decode("1,0")
    with pytest.raises(SpecFormatError):
        space.decode("(1,0,1)")
