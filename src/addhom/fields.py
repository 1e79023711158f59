"""Exact scalar arithmetic for Q, Z_p, and simple extension fields.

Supported fields: the rationals, prime fields Z_p, and single extensions
base[x]/(m) where the base is Q or Z_p and m is a monic irreducible
polynomial (towers are rejected).  Element representations are plain
values so equality and hashing just work:

  * rationals   -> fractions.Fraction (always reduced)
  * Z_p         -> int in [0, p)
  * extensions  -> tuple of base elements, length = deg(m), ascending degree

An extension field's arithmetic, membership checks, ranks and draws work
on the coefficient tuple in one call, with no base-field call per
coefficient (`+`/`-` over Q, `% p` inline over Z_p).  scale(lam, coords)
scales a whole vector in one call, over Q(a) clearing lam to integer
numerators once, and mul is the scale of one coordinate.

Polynomial arithmetic runs on Python ints.  Over Q an extension operand
is cleared to integer numerators over one common denominator (numerators);
a product is formed and folded through the modulus on ints
(mul_numerators), and a quotient is one fraction-free solve of an integer
system (div_numerators), so each result coefficient becomes one reduced
Fraction only at the end.  Fraction is canonical, so the results are the
same values and bytes as per-coefficient Fraction arithmetic would give.
The maps that evaluate on integer numerators, the k-linear and the ratio
map of maps.py, call these same pieces rather than the field operations;
over finite fields the ratio map keeps add, mul and div.  Over Z_p
polynomials are lists of residues: products fold through the modulus the
same way, and inverses (extended Euclid) and the irreducibility test
(Ben-Or) divide residue lists with a `% p` inline.

Finite fields carry a canonical element order, "rank": residues by value,
extension elements by sum(rank(c_i) * p**i) over ascending coefficients.
Everything downstream that promises a deterministic "first witness" relies
on this order; spaces.SpaceRows, the one owner of the rank digit rule,
computes on it: addition and multiplication of ranks, for the exhaustive
checkers and the search's index tables.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .errors import (
    CharacteristicMismatch,
    DivisionByZero,
    InfiniteFieldError,
    ModulusTooLarge,
    NonMonicModulus,
    NonPrimeModulus,
    ReducibleModulus,
    SearchSpaceTooLarge,
    SpecFormatError,
    UnsupportedDegree,
    UnsupportedTower,
)


# Miller-Rabin with these bases decides primality exactly below
# PRIME_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 primes as bases; exact
    for n < PRIME_LIMIT, and larger n are refused."""
    if n >= PRIME_LIMIT:
        raise ModulusTooLarge(
            f"primality is decided only below {PRIME_LIMIT}, not for {n}"
        )
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common surface of all supported scalar fields.

    Each subclass gives add, mul, neg and inv; scale(lam, coords), the
    tuple of lam * c for c in coords (a vector's scalar action, in one
    call); contains, encode, decode and descriptor; embed(value, char),
    which takes a prime-subfield scalar (a rational for char 0, a residue
    mod p for char p); and random_element(rng) for the sampled checking
    strategy, deterministic per rng: rationals draw the numerator from
    [-9, 9] and the denominator from [1, 9].  Finite fields also give rank
    and element_from_rank.  div is a * inv(b); Q and Q(a) divide directly."""

    characteristic: int
    order: int | None  # None for infinite fields
    degree = 1  # [F : Q] or [F : Z_p]; an extension field sets deg(m)

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        """All elements in rank order; finite fields only."""
        if not self.is_finite:
            raise InfiniteFieldError(f"{self} is infinite")
        for r in range(self.order):
            yield self.element_from_rank(r)

    def from_int(self, n: int):
        """The element n * 1."""
        if self.characteristic == 0:
            return self.embed(Fraction(n), 0)
        return self.embed(n % self.characteristic, self.characteristic)

    def __eq__(self, other):
        return isinstance(other, Field) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return self.descriptor()


_RATIONAL = r"(-?[0-9]+)(?:/([0-9]+))?"  # compiled on the first decode


def _integer(text: str) -> int:
    """text, stripped, as an int when it matches -?[0-9]+ in ASCII, the
    form encode writes; int() alone also takes 1_0, +3 and non-ASCII
    digits.  Anything else, or more digits than Python's limit, raises
    ValueError.  (No regex: a residue is decoded per table entry.)"""
    text = text.strip()
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class Rationals(Field):
    """The field Q; elements are fractions.Fraction."""

    characteristic = 0
    order = None

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def scale(self, lam, coords):
        return tuple([lam * c for c in coords])

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("1/0 in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in Q")
        return a / b

    def embed(self, value, char: int):
        if char != 0:
            raise CharacteristicMismatch(f"residue mod {char} offered to Q")
        return Fraction(value)

    def contains(self, a) -> bool:
        return isinstance(a, Fraction)

    # Fraction(n, d) at index 9 (n + 9) + d - 1, for n in [-9, 9] and d in
    # [1, 9]: built on the first draw, then shared by every instance
    _draws = None

    def random_element(self, rng):
        """Fraction(rng.randint(-9, 9), rng.randint(1, 9)), read from a table.
        The two randint calls are replayed on rng.getrandbits as CPython's
        randint draws on 3.10-3.13 (bit_length(width) bits, redrawn while out
        of range), so the values and the final rng state are those of the
        calls; a test in test_fields pins this."""
        return self.draw(rng, 1)[0]

    def draw(self, rng, k: int) -> list:
        """k values of random_element, in one call."""
        draws = Rationals._draws
        if draws is None:
            draws = Rationals._draws = tuple(
                Fraction(n, d) for n in range(-9, 10) for d in range(1, 10)
            )
        getrandbits, out = rng.getrandbits, []
        for _ in range(k):
            i = j = 19  # n + 9 and d - 1; out of range, so each loop draws
            while i > 18:  # randint(-9, 9): -9 + a 5-bit draw below 19
                i = getrandbits(5)
            while j > 8:  # randint(1, 9): 1 + a 4-bit draw below 9
                j = getrandbits(4)
            out.append(draws[9 * i + j])
        return out

    def encode(self, a) -> str:
        try:
            return str(a)
        except ValueError as exc:  # a term past Python's int-to-text digit limit
            raise SearchSpaceTooLarge(
                "a rational result is too long to print (over Python's digit limit)"
            ) from exc

    def decode(self, text: str):
        """An integer or n/d with d > 0, the forms encode writes, read by
        int() so that Python's digit limit applies: Fraction's own parser
        takes exponents, and expanding 1e10000000 takes seconds."""
        match = re.fullmatch(_RATIONAL, text.strip())
        try:  # no match: TypeError; over the digit limit: ValueError
            return Fraction(int(match[1]), int(match[2] or 1))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"bad rational {text!r}") from exc

    def descriptor(self) -> str:
        return "Q"


class PrimeField(Field):
    """The field Z_p for a prime p; elements are ints in [0, p)."""

    order: int

    def __init__(self, p: int):
        if not is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def scale(self, lam, coords):
        p = self.p
        return tuple([lam * c % p for c in coords])

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"1/0 in Z_{self.p}")
        return pow(a, -1, self.p)

    def rank(self, a) -> int:
        return a % self.p

    def element_from_rank(self, r: int):
        return r % self.p

    def embed(self, value, char: int):
        if char != self.p:
            raise CharacteristicMismatch(
                f"prime-subfield scalar of characteristic {char} offered to Z_{self.p}"
            )
        return value % self.p

    def contains(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.p

    def random_element(self, rng):
        return rng.randrange(self.p)

    def encode(self, a) -> str:
        return str(a)

    def decode(self, text: str):
        try:
            v = _integer(text)
        except ValueError as exc:
            raise SpecFormatError(f"bad residue {text!r}") from exc
        if not 0 <= v < self.p:
            raise SpecFormatError(f"residue {v} out of range for Z_{self.p}")
        return v

    def descriptor(self) -> str:
        return f"Fp:{self.p}"


# ---------------------------------------------------------------------------
# integer polynomials, and polynomials over Z_p as lists of residues, both in
# ascending degree
# ---------------------------------------------------------------------------

def _fold(prod: list, low, lead: int, p: int, den: int = 1) -> int:
    """Reduce the integer polynomial prod / den modulo m = (low + lead x^d)
    / lead in place, down to its first d = len(low) entries, and return the
    new denominator.  From the top down, x^k with k >= d becomes x^(k-d)
    times x^d = -(low_0 + ... + low_(d-1) x^(d-1)) / lead, so when lead != 1
    the lower coefficients and den are scaled by lead first.  Over Z_p (p
    nonzero, lead 1) the folded coefficient is reduced mod p, which keeps
    the ints small; the d entries left are reduced by the caller."""
    d = len(low)
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod.pop()
        if p:
            c %= p
        if c:
            if lead != 1:
                for i in range(k):
                    prod[i] *= lead
                den *= lead
            for i, n in enumerate(low, k - d):
                prod[i] -= c * n
    return den


def _zp_trim(a: list) -> list:
    """a without its zero top coefficients, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _mulmod(a, b, low, lead: int, p: int, den: int = 1):
    """The schoolbook product of the integer polynomials a and b (as many
    entries each as low), folded as _fold does: its first len(low) entries,
    unreduced over Z_p, and their denominator."""
    prod = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    return prod, _fold(prod, low, lead, p, den)


def _zp_divmod(a: list, b: list, p: int):
    """Quotient and trimmed remainder of the residue lists a by b, b
    trimmed and nonzero."""
    rem, db = list(a), len(b) - 1
    low, lead_inv = b[:-1], pow(b[-1], -1, p)
    quot = [0] * max(len(rem) - db, 0)
    for k in range(len(rem) - 1, db - 1, -1):
        c = quot[k - db] = rem.pop() * lead_inv % p
        if c:
            for i, n in enumerate(low, k - db):
                rem[i] -= c * n
    return quot, _zp_trim([n % p for n in rem])


def _zp_inverse(a, m, p: int) -> list:
    """u with a * u = 1 modulo m over Z_p, for a nonzero a of lower degree
    than m and prime to it: extended Euclid on residue lists, keeping only
    a's cofactor s, whose degree stays below deg m."""
    r0, r1 = list(m), _zp_trim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        q, r = _zp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))  # s0 - q * s1
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1, i):
                    s[j] -= x * y
        s0, s1 = s1, _zp_trim([n % p for n in s])
    scale = pow(r1[0], -1, p)
    return [n * scale % p for n in s1]


# Ben-Or's test of a degree-d polynomial over Z_p takes up to d // 2 steps,
# each a power x^(p^i) mod f (up to 2 bitlen(p) products of about d^2
# multiplications each) and a gcd (about d^2): a test whose estimate
# d^2 * (d // 2) * bitlen(p) passes this limit is refused before it starts.
# Degree 128 over Z_2 is inside (2^21); degree 256 (2^24) is not.
BEN_OR_WORK_LIMIT = 2**22


def _check_ben_or_work(p: int, degree: int) -> None:
    work = degree * degree * (degree // 2) * p.bit_length()
    if work > BEN_OR_WORK_LIMIT:
        raise SearchSpaceTooLarge(
            f"irreducibility test of degree {degree} over Z_{p} needs about "
            f"{degree}^2 * {degree // 2} * {p.bit_length()} = {work} steps, "
            f"over the limit {BEN_OR_WORK_LIMIT}"
        )


def _monic_polys(base: Field, degree: int, start: int = 0):
    """Monic polynomials of the given degree over a finite base from rank
    start on, non-leading coefficients in rank order (coefficient 0
    fastest)."""
    for r in range(start, base.order ** degree):
        coeffs = []
        for _ in range(degree):
            coeffs.append(base.element_from_rank(r % base.order))
            r //= base.order
        yield tuple(coeffs) + (base.one,)


def _has_integer_root(b: int, c: int, e: int) -> bool:
    """Whether g(y) = y^3 + b y^2 + c y + e has an integer root, by exact
    bisection on the pieces of the integers where g is monotone.

    g' = 3y^2 + 2by + c vanishes at (-b -+ r) / 3 with r = sqrt(b^2 - 3c).
    As s = isqrt(b^2 - 3c) <= r < s + 1, the maximum lies in (lo, lo + 1]
    for lo = (-b - s - 1) // 3 and the minimum in [hi, hi + 1) for
    hi = (s - b) // 3: g rises on ..lo, falls on lo+1..hi and rises on
    hi+1.. .  Every root lies in [-bound, bound] (Cauchy's bound).  Each
    piece is nonempty: 1 <= s <= sqrt(M^2 + 3M) <= 2M for M = bound - 1."""
    def g(y):
        return ((y + b) * y + c) * y + e

    def root_in(lo, hi, sign):
        # smallest y in lo..hi with sign*g(y) >= 0; a root iff g(y) == 0
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * g(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        return g(lo) == 0

    bound = 1 + max(abs(b), abs(c), abs(e))
    disc = b * b - 3 * c
    if disc <= 0:  # g' >= 0: g rises on all of R
        return root_in(-bound, bound, 1)
    s = math.isqrt(disc)
    lo, hi = (-b - s - 1) // 3, (s - b) // 3
    return (
        root_in(-bound, lo, 1)
        or root_in(lo + 1, hi, -1)
        or root_in(hi + 1, bound, 1)
    )


def is_irreducible(base: Field, coeffs) -> bool:
    """Irreducibility of a monic polynomial of degree >= 1.

    Over Z_p: Ben-Or's test on residue lists, gcd(f, x^(p^i) - x) = 1 for
    i = 1..deg/2, so a factor of degree i shows up at step i; a test past
    BEN_OR_WORK_LIMIT raises SearchSpaceTooLarge before it starts.  Over Q:
    degree <= 3 only, where reducibility is equivalent to having a rational
    root: for degree 2, a rational square discriminant; for degree 3, an
    integer root of the cubic scaled to integer coefficients.
    """
    coeffs = tuple(coeffs)
    deg = len(coeffs) - 1
    if deg < 1:
        raise SpecFormatError("constant polynomial has no irreducibility")
    if coeffs[-1] != base.one:
        raise NonMonicModulus("irreducibility is defined here for monic polynomials")
    if deg == 1:
        return True
    if isinstance(base, PrimeField):
        p = base.p
        _check_ben_or_work(p, deg)
        f, low = list(coeffs), list(coeffs[:-1])
        h = [0, 1] + [0] * (deg - 2)
        for _ in range(deg // 2):
            power = h  # h becomes x^(p^i) mod f, by squaring from the top bit
            for bit in bin(p)[3:]:
                h = [n % p for n in _mulmod(h, h, low, 1, p)[0]]
                if bit == "1":
                    h = [n % p for n in _mulmod(h, power, low, 1, p)[0]]
            g = h[:]
            g[1] -= 1
            a, b = f, _zp_trim([n % p for n in g])  # gcd(f, h - x)
            while b:
                a, b = b, _zp_divmod(a, b, p)[1]
            if len(a) > 1:
                return False
        return True
    if isinstance(base, Rationals):
        if deg > 3:
            raise UnsupportedDegree(
                "irreducibility over Q is only decided for degree <= 3"
            )
        if deg == 2:
            # x^2 + bx + c splits iff b^2 - 4c is a rational square, i.e. a
            # nonnegative fraction with square numerator and denominator
            disc = coeffs[1] ** 2 - 4 * coeffs[0]
            return not (disc >= 0 and all(
                math.isqrt(n) ** 2 == n for n in (disc.numerator, disc.denominator)
            ))
        # x = y/L, with L the lcm of the denominators, turns x^3 + a2 x^2 +
        # a1 x + a0 into L^-3 (y^3 + a2 L y^2 + a1 L^2 y + a0 L^3), a monic
        # integer cubic whose rational roots are all integers
        lcm = math.lcm(*(a.denominator for a in coeffs))
        a0, a1, a2 = (int(a * lcm ** (3 - i)) for i, a in enumerate(coeffs[:3]))
        return not _has_integer_root(a2, a1, a0)
    raise UnsupportedTower("irreducibility base must be Q or Z_p")


def find_irreducible(base: PrimeField, degree: int):
    """Rank-smallest monic irreducible polynomial of the given degree over
    Z_p; a degree past BEN_OR_WORK_LIMIT is refused before any candidate.

    The first p candidates are the binomials x^d + c.  Some x^d + c is
    irreducible iff every prime factor of d divides p - 1, and p = 1 mod 4
    when 4 | d (Lidl and Niederreiter, Finite Fields, Theorem 3.75); when
    that fails the walk starts at rank p."""
    if not isinstance(base, PrimeField):
        raise UnsupportedTower("find_irreducible needs a prime base field")
    if degree < 2:
        raise UnsupportedDegree("extension degree must be >= 2")
    p = base.p
    _check_ben_or_work(p, degree)
    binomials = pow(p - 1, degree, degree) == 0 and (degree % 4 != 0 or p % 4 == 1)
    for poly in _monic_polys(base, degree, 0 if binomials else p):
        if is_irreducible(base, poly):
            return poly
    raise AssertionError("unreachable: irreducibles exist in every degree")


def numerators(a):
    """Integer numerators of a sequence of rationals over their least
    common denominator, and that denominator."""
    pairs = [c.as_integer_ratio() for c in a]
    den = math.lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _bareiss_solve(rows):
    """Solve the nonsingular integer system [N | b] (d rows of d + 1 ints)
    by fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968): every division is exact, and at the end each row reads
    det * x_i in its last entry.  Returns (numerators, det), x_i = n_i / det
    and det != 0 (its sign follows the row swaps)."""
    d, prev = len(rows), 1
    for k in range(d):
        if not rows[k][k]:
            r = next(r for r in range(k + 1, d) if rows[r][k])
            rows[k], rows[r] = rows[r], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(d):
            if i != k:
                row = rows[i]
                f = row[k]
                for j in range(k + 1, d + 1):
                    row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
                row[k] = 0
        prev = pivot
    return [row[d] for row in rows], prev


class ExtensionField(Field):
    """base[x]/(modulus) for monic irreducible modulus over Q or Z_p.

    Elements are coefficient tuples of length deg(modulus), ascending degree.
    The generator is the class of x.

    The modulus is kept as integer numerators M over their common
    denominator L (L = 1 over Z_p).  scale forms the schoolbook products
    of integer numerators and folds them through M; mul is scale of one
    coordinate.  div over Q builds the integer columns b * x^j mod m with
    the same fold and solves b * u = a by fraction-free (Bareiss)
    elimination, and inv is div of one; only the final coefficients are
    made Fractions.  mul_numerators and div_numerators are the product and
    that one solver on operands already cleared, for callers that hold
    integer numerators.  Over Z_p, inv runs extended Euclid on residue
    lists and div is Field.div.
    """

    def __init__(self, base: Field, modulus):
        if isinstance(base, ExtensionField):
            raise UnsupportedTower("towers of extensions are not supported")
        if not isinstance(base, (Rationals, PrimeField)):
            raise UnsupportedTower("extension base must be Q or Z_p")
        modulus = tuple(modulus)
        if len(modulus) < 2 or modulus[-1] != base.one:
            raise NonMonicModulus("modulus must be monic")
        if len(modulus) - 1 < 2:
            raise UnsupportedDegree("extension degree must be >= 2")
        if not is_irreducible(base, modulus):
            raise ReducibleModulus(
                f"modulus {modulus} factors over {base.descriptor()}"
            )
        self.base = base
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.characteristic = base.characteristic
        self.order = None if base.order is None else base.order ** self.degree
        self.zero = (base.zero,) * self.degree
        self.one = (base.one,) + (base.zero,) * (self.degree - 1)
        self.generator = tuple(
            base.one if i == 1 else base.zero for i in range(self.degree)
        )
        # the modulus as integer numerators M over one denominator L; M_deg
        # is L itself and is left out
        if base.characteristic:
            self._numer, self._denom = modulus[:-1], 1
        else:
            numer, self._denom = numerators(modulus)
            self._numer = tuple(numer[:-1])

    def add(self, a, b):
        p = self.characteristic
        if p:
            return tuple([(x + y) % p for x, y in zip(a, b)])
        return tuple(map(operator.add, a, b))

    def neg(self, a):
        p = self.characteristic
        return tuple([-x % p for x in a]) if p else tuple(map(operator.neg, a))

    def mul(self, a, b):
        return self.scale(a, (b,))[0]

    def scale(self, lam, coords):
        """lam * c for each c in coords, lam cleared to integer numerators
        once over Q: schoolbook products folded through the modulus
        (_mulmod), one reduced Fraction per coefficient over Q, one residue
        over Z_p.  mul is scale of one coordinate."""
        p, low, lead = self.characteristic, self._numer, self._denom
        if p:
            return tuple([tuple([n % p for n in _mulmod(lam, c, low, 1, p)[0]])
                          for c in coords])
        lam, dl = numerators(lam)
        out = []
        for c in coords:
            c, dc = numerators(c)
            prod, den = _mulmod(lam, c, low, lead, 0, dl * dc)
            out.append(tuple([Fraction(n, den) for n in prod]))
        return tuple(out)

    def inv(self, a):
        """Over Q, one / a (div); over Z_p, extended Euclid on residues."""
        p = self.characteristic
        if not p:
            return self.div(self.one, a)
        if not any(a):
            raise DivisionByZero(f"1/0 in {self.descriptor()}")
        u = _zp_inverse(a, self.modulus, p)
        return tuple(u + [0] * (self.degree - len(u)))

    def mul_numerators(self, a, b):
        """Over Q, the product of the integer polynomials a and b (as many
        entries each as the degree) modulo m: its numerators and their
        denominator, a power of the modulus's L."""
        return _mulmod(a, b, self._numer, self._denom, 0)

    def div(self, a, b):
        """a / b: over Z_p, Field.div; over Q, div_numerators of the
        integer numerators of a and b."""
        if self.characteristic:
            return super().div(a, b)
        if not any(b):
            raise DivisionByZero(f"1/0 in {self.descriptor()}")
        return self.div_numerators(*numerators(a), *numerators(b))

    def div_numerators(self, a, da, b, db):
        """(a / da) / (b / db) over Q, for integer lists a and b of degree
        entries each and b nonzero, as one reduced Fraction per coefficient.
        u = a / b solves b * u = a in the basis 1, x, ..., x^(d-1): with the
        integer columns N_j = s_j (b x^j mod m), each the one before times
        x, folded (s_j collects the fold's factors L), w_j = da u_j / s_j
        solves N w = db a on ints, by fraction-free elimination."""
        d = self.degree
        rows = [[0] * d + [db * n] for n in a]
        col, scales, scale = b, [], 1
        for j in range(d):
            if j:
                col = [0] + col
                scale = _fold(col, self._numer, self._denom, 0, scale)
            for i, c in enumerate(col):
                rows[i][j] = c
            scales.append(scale)
        w, det = _bareiss_solve(rows)
        det *= da
        return tuple([Fraction(n * s, det) for n, s in zip(w, scales)])

    def rank(self, a) -> int:
        if not self.is_finite:
            raise InfiniteFieldError(f"{self} has no element rank")
        p, r = self.characteristic, 0
        for c in reversed(a):
            r = r * p + c % p
        return r

    def element_from_rank(self, r: int):
        p, coeffs = self.characteristic, []
        for _ in range(self.degree):
            r, c = divmod(r, p)
            coeffs.append(c)
        return tuple(coeffs)

    def embed(self, value, char: int):
        c = self.base.embed(value, char)
        return (c,) + (self.base.zero,) * (self.degree - 1)

    def contains(self, a) -> bool:
        p = self.characteristic
        return isinstance(a, tuple) and len(a) == self.degree and all(
            [isinstance(c, int) and 0 <= c < p for c in a] if p
            else [isinstance(c, Fraction) for c in a]
        )

    def random_element(self, rng):
        p = self.characteristic
        if p:
            return tuple([rng.randrange(p) for _ in range(self.degree)])
        return tuple(self.base.draw(rng, self.degree))

    def encode(self, a) -> str:
        return "[" + ",".join(self.base.encode(c) for c in a) + "]"

    def decode(self, text: str):
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise SpecFormatError(f"bad extension element {text!r}")
        parts = text[1:-1].split(",")
        if len(parts) != self.degree:
            raise SpecFormatError(
                f"expected {self.degree} coefficients in {text!r}"
            )
        return tuple(map(self.base.decode, parts))

    def descriptor(self) -> str:
        coeffs = ",".join(self.base.encode(c) for c in self.modulus)
        if isinstance(self.base, PrimeField):
            return f"Fq:{self.base.p}:{coeffs}"
        return f"Qext:{coeffs}"


# ---------------------------------------------------------------------------
# text descriptors: "Q" | "Fp:<p>" | "Fq:<p>:<c0,...,1>" | "Qext:<c0,...,1>"
# ---------------------------------------------------------------------------

def parse_field(text: str) -> Field:
    text = text.strip()
    if text == "Q":
        return Rationals()
    if text.startswith("Fp:"):
        try:
            p = _integer(text[3:])
        except ValueError as exc:
            raise SpecFormatError(f"bad field descriptor {text!r}") from exc
        return PrimeField(p)
    if text.startswith("Fq:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise SpecFormatError(f"bad field descriptor {text!r}")
        try:
            p = _integer(parts[1])
        except ValueError as exc:
            raise SpecFormatError(f"bad field descriptor {text!r}") from exc
        base = PrimeField(p)
        modulus = tuple(base.decode(c) for c in parts[2].split(","))
        return ExtensionField(base, modulus)
    if text.startswith("Qext:"):
        base = Rationals()
        modulus = tuple(base.decode(c) for c in text[5:].split(","))
        return ExtensionField(base, modulus)
    raise SpecFormatError(f"unknown field descriptor {text!r}")


def gf(p: int, degree: int = 1) -> Field:
    """Convenience constructor: GF(p**degree) with the rank-smallest modulus."""
    base = PrimeField(p)
    if degree == 1:
        return base
    return ExtensionField(base, find_irreducible(base, degree))
