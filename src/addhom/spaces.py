"""Coordinate spaces F^d: arithmetic, enumeration, and scalar orbits.

Vectors are plain tuples of field elements.  Finite spaces enumerate in
lexicographic coordinate-rank order with coordinate 0 slowest.  Nonzero
vectors fall into scalar orbits {lam * v : lam != 0} of q - 1 members each;
each orbit has a unique canonical representative whose first nonzero
coordinate is 1, which is what makes orbit-table maps, keyed by those
representatives, well-defined; orbits() lists them, built once per space
and kept; orbit_ranks() ranks them and orbit_count counts them unlisted.
Callers read a space's dimension rule (dim >= 1), size and orbits off it.
SpaceRows gives a finite space's addition and scalar action on vector
ranks, its field's addition and multiplication on element ranks, and the
rank of a primitive element g, for the exhaustive checkers and the search.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    InfiniteFieldError,
    SpecFormatError,
    ZeroVector,
)
from .fields import Field


def split_top_level(text: str) -> list[str]:
    """Split on commas outside [...] groups (extension elements contain commas)."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


class VectorSpace:
    """F^dim over a supported field, dim >= 1."""

    def __init__(self, field: Field, dim: int):
        if dim < 1:
            raise DimensionMismatch("dimension must be >= 1")
        self.field = field
        self.dim = dim

    @cached_property
    def zero(self):  # on first use: a spec's dimension is untrusted until then
        return (self.field.zero,) * self.dim

    @property
    def is_finite(self) -> bool:
        return self.field.is_finite

    @property
    def size(self) -> int:
        if not self.is_finite:
            raise InfiniteFieldError(f"{self} is infinite")
        return self.field.order ** self.dim

    @property
    def orbit_count(self) -> int:
        """(q^dim - 1)/(q - 1) scalar orbits, from size: nothing is listed."""
        return (self.size - 1) // (self.field.order - 1)

    def _check(self, v):
        """Raise DimensionMismatch or FieldMismatch on what contains rejects."""
        if not self.contains(v):
            if isinstance(v, tuple) and len(v) != self.dim:
                raise DimensionMismatch(f"expected dimension {self.dim}, got {len(v)}")
            raise FieldMismatch(f"vector {v!r} not over {self.field}")

    def contains(self, v) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == self.dim
            and all(map(self.field.contains, v))
        )

    # arithmetic -------------------------------------------------------

    def add(self, u, v):
        self._check(u)
        self._check(v)
        return tuple(map(self.field.add, u, v))

    def neg(self, v):
        self._check(v)
        return tuple(map(self.field.neg, v))

    def scalar_mul(self, lam, v):
        if not self.field.contains(lam):
            raise FieldMismatch(f"scalar {lam!r} not in {self.field}")
        self._check(v)
        return self.field.scale(lam, v)

    # enumeration ------------------------------------------------------

    def vectors(self):
        """All q^dim vectors, coordinate 0 slowest."""
        elems = list(self.field.elements())
        for coords in itertools.product(elems, repeat=self.dim):
            yield coords

    def rank(self, v) -> int:
        q = self.field.order
        r = 0
        for c in v:
            r = r * q + self.field.rank(c)
        return r

    def vector_from_rank(self, r: int):
        q = self.field.order
        coords = []
        for _ in range(self.dim):
            coords.append(self.field.element_from_rank(r % q))
            r //= q
        return tuple(reversed(coords))

    # orbits -----------------------------------------------------------

    def canonical_rep(self, v):
        """(rep, scale) with rep's first nonzero coordinate 1 and v = scale*rep."""
        self._check(v)
        for c in v:
            if c != self.field.zero:
                return self.field.scale(self.field.inv(c), v), c
        raise ZeroVector("the zero vector has no orbit representative")

    def orbits(self) -> list:
        """The vectors whose first nonzero coordinate is 1, one per orbit, in
        vector-enumeration order: built on the first call and kept, as zero
        is, so every call returns the same list, which callers must not change."""
        cache = vars(self)
        if "_reps" not in cache:
            if not self.is_finite:
                raise InfiniteFieldError(f"{self} has infinitely many orbits")
            zero, one = self.field.zero, self.field.one
            cache["_reps"] = [v for v in self.vectors()
                              if next((c for c in v if c != zero), None) == one]
        return cache["_reps"]

    def orbit_ranks(self) -> list:
        """The ranks of orbits(), in order, listing no vector: a leading 1
        (field rank 1) then j free coordinates ranks q^j to 2*q^j - 1."""
        q = self.field.order
        return [r for j in range(self.dim) for r in range(q**j, 2 * q**j)]

    # text encoding: "(e0,e1,...)" ---------------------------------------

    def encode(self, v) -> str:
        return "(" + ",".join(self.field.encode(c) for c in v) + ")"

    def decode(self, text: str):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise SpecFormatError(f"bad vector {text!r}")
        parts = split_top_level(text[1:-1])
        if len(parts) != self.dim:
            raise SpecFormatError(
                f"expected {self.dim} coordinates in {text!r}"
            )
        return tuple(map(self.field.decode, parts))

    def random_vector(self, rng):
        return tuple([self.field.random_element(rng) for _ in range(self.dim)])

    def coordinate_ranks(self, v) -> tuple:
        """v's coordinate ranks, after the checks that add and scalar_mul
        make on an operand."""
        self._check(v)
        return tuple(map(self.field.rank, v))

    def __repr__(self):
        return f"{self.field.descriptor()}^{self.dim}"


def rank_product(rows, base: int) -> list:
    """The ranks of the tuples in the product of rows, the first row
    slowest: row entries x then y give x * base + y."""
    out = rows[0]
    for row in rows[1:]:
        out = [x * base + y for x in out for y in row]
    return out


class SpaceRows:
    """Addition and scalar action of a finite space on vector ranks, in
    vectors() order: add(i)[j] = rank(v_i + v_j), act(s)[j] = rank(s * v_j)
    for the scalar of rank s.  With coordinate 0 slowest, a vector row is
    the product of one field row per coordinate.  The field rows are those
    of the 1-dim space: field_add(a)[b] = rank(a + b) and field_mul(a)[b] =
    rank(a * b) for field ranks a, b.

    The digit rule lives here alone: the d*dim base-p digits of a vector
    rank, coordinate 0's most significant, are its Z_p coefficients.  So a
    field addition row and sums() are products of Z_p rows, with no field
    call, and the ranks p^k of steps() are a Z_p-basis of the space.
    Multiplication goes through the logarithms of a primitive element g, the
    first element by rank of order q - 1: exp[k] = rank(g^k) and
    log[exp[k]] = k (the Zech construction; Lidl and Niederreiter, Finite
    Fields, ch. 9); g is exp[1], or exp[0] = 1 when q = 2.  Building them
    costs O(q) field operations, paid once per field object, on the first
    field_mul() or read of g of any SpaceRows over it, so addition rows
    alone cost none.  The two lists (q - 1 and q ints) are kept on the field
    object, shared by every space over it.  Field addition rows are kept
    when dim >= 2, where all q^2 of their entries fit in one vector row of
    q^dim; at dim 1 each is rebuilt on request.  No other row is kept."""

    def __init__(self, space: VectorSpace):
        field = self.field = space.field
        self.q, self.p, self.dim = field.order, field.characteristic, space.dim
        self.digits = field.degree
        self._cycle = list(range(self.p)) * 2
        self._adds = {}

    @property
    def g(self) -> int:
        return self._logs()[0][1 % (self.q - 1)]

    def sums(self) -> list:
        """The sum table, sums()[i] == add(i): the Z_p table multiplied out
        over the d*dim digits, one at a time, the new digit slowest."""
        p = self.p
        zp = [self._cycle[a:a + p] for a in range(p)]
        table, size = zp, p
        for _ in range(self.digits * self.dim - 1):
            table = [[x * size + y for x in z for y in row] for z in zp for row in table]
            size *= p
        return table

    def steps(self) -> list:
        """(e, add(e)) for each basis rank e = p^k: e steps digit k mod p."""
        p, n, out = self.p, self.q**self.dim, []
        for k in range(self.digits * self.dim):
            e, row = p**k, []
            for b in range(0, n, p * e):  # the ranks that agree with b from digit k up
                row += range(b + e, b + p * e)  # digit k below p - 1: i + e
                row += range(b, b + e)  # digit k = p - 1: i + e - p * e
            out.append((e, row))
        return out

    def _logs(self):
        """(exp, log), built once per field object and kept on it."""
        cache = vars(self.field)
        if "_logs" not in cache:
            field, q, one = self.field, self.q, self.field.one
            for g in range(1, q):
                gen, x, exp = field.element_from_rank(g), one, []
                while True:
                    exp.append(field.rank(x))
                    x = field.mul(x, gen)
                    if x == one:
                        break
                if len(exp) == q - 1:
                    break
            log = [0] * q
            for k, r in enumerate(exp):
                log[r] = k
            cache["_logs"] = exp, log
        return cache["_logs"]

    def field_add(self, a: int) -> list:
        row = self._adds.get(a)
        if row is None:
            p, rows, r = self.p, [], a
            for _ in range(self.digits):
                r, t = divmod(r, p)
                rows.append(self._cycle[t:t + p])
            row = rank_product(rows[::-1], p)
            if self.dim >= 2:
                self._adds[a] = row
        return row

    def field_mul(self, a: int) -> list:
        if a == 0:
            return [0] * self.q
        exp, log = self._logs()
        k = log[a]
        turned = exp[k:] + exp[:k]
        return [0] + [turned[b] for b in log[1:]]

    def add(self, i: int) -> list:
        q, rows = self.q, []
        for _ in range(self.dim):
            i, c = divmod(i, q)
            rows.append(self.field_add(c))
        return rank_product(rows[::-1], q)

    def act(self, s: int) -> list:
        return rank_product([self.field_mul(s)] * self.dim, self.q)
