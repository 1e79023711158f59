"""Maps between vector spaces and the additivity/homogeneity checkers.

Five map representations cover everything we need:

  * TableMap             -- explicit value for every domain vector
  * OrbitTableMap        -- one value per scalar orbit, keyed by the orbit's
                            canonical representative; homogeneous by
                            construction, with phi(0) = 0 forced
  * KLinearExtensionMap  -- the prime-subfield-linear map on an extension
                            field F determined by images of the power basis
                            {1, a, ..., a^(deg-1)}; additive by construction
  * RatioMap             -- (x, y) -> xy/(x+y), 0 on the x+y = 0 branch
                            (characteristic != 2 only)
  * IndicatorMap         -- over Z_2^2: 0 at the origin, 1 elsewhere

Over Q and Q(a) the k-linear and the ratio map evaluate on integer
numerators, each input cleared once and each output coefficient made one
reduced Fraction at the end, with no field operation; over finite fields
the k-linear map is a residue dot product and the ratio map goes through
the field's add, mul and div.

Checkers scan ordered pairs in canonical enumeration order and report the
first violation as a witness, so identical inputs always produce identical
reports.  An exhaustive check runs on element ranks: it tabulates phi by
domain rank, checking each value against the codomain once, and compares
whole rows of pairs through rank rows built inside the call (vector
addition and scalar action as products of field rows, from
spaces.SpaceRows, the one owner of the rank digit rule).  Only the first
failing pair is decoded to field elements, and its witness is computed on
them, with the tuple arithmetic of the spaces.  The sampled strategy runs
on that tuple arithmetic throughout: it checks a fixed list of corner
pairs first (origin, standard basis pairs, sign flips, coordinate-sum-zero
probes) and only then the pseudo-random draws; corners are what pin the
published witnesses on infinite fields.

An exhaustive check evaluates each input at most once per map, not per
call: the rank table belongs to the map (built by the first exhaustive
check of any property, then read by every later one), while a sampled
check evaluates each distinct input at most once per call, through a dict
local to that call.  So a map must be a function of its input alone and
must not be mutated after its validated construction; a later check reads
the values the first one tabulated.  The table kept is the one the first
exhaustive check built: at most q^du * dv ranks, never more than that call
allocated anyway.  It is not thread-safe: check one map from one thread.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from fractions import Fraction
from functools import cached_property

from .errors import (
    DEFAULT_MAX_CANDIDATES,
    CharacteristicMismatch,
    CharacteristicTwo,
    DomainMismatch,
    FrozenRecord,
    InfiniteDomainExhaustive,
    InfiniteFieldError,
    NotAnExtension,
    Record,
    SearchSpaceTooLarge,
    SpecFormatError,
    ZeroDenominator,
)
from .fields import ExtensionField, Field, PrimeField, Rationals, numerators, parse_field
from .spaces import SpaceRows, VectorSpace


class Witness(FrozenRecord):
    """A concrete violation: kind is "additivity" (inputs u1, u2) or
    "homogeneity" (inputs lam, u); lhs != rhs by construction."""

    kind: str
    inputs: tuple
    lhs: tuple
    rhs: tuple


class Sampled(FrozenRecord):
    """Deterministic sampled checking strategy."""

    seed: int = 24001
    samples: int = 200


EXHAUSTIVE = "exhaustive"


class CheckReport(Record):
    property: str  # additive | homogeneous | linear
    verdict: str  # holds_exhaustive | holds_on_samples | violated
    witness: Witness | None
    pairs_checked: int

    @property
    def holds(self) -> bool:
        return self.witness is None


class VectorMap:
    """Base class: a map from domain to codomain, both spaces over one field."""

    domain: VectorSpace
    codomain: VectorSpace

    def evaluate(self, v):
        raise NotImplementedError

    @cached_property
    def _rank_table(self) -> _RankTable:
        """The table every exhaustive check of this map reads, built empty
        on the first one and filled as the checks need it."""
        return _RankTable(self.domain, self.codomain)

    def _check_domain(self, v):
        if not self.domain.contains(v):
            raise DomainMismatch(f"{v!r} not in {self.domain}")


class TableMap(VectorMap):
    """Explicit lookup table; the domain must be finite and fully covered."""

    def __init__(self, domain: VectorSpace, codomain: VectorSpace, entries: dict):
        if domain.field != codomain.field:
            raise DomainMismatch("domain and codomain must share one field")
        self.domain = domain
        self.codomain = codomain
        self.entries = dict(entries)
        if len(self.entries) > domain.size:  # a short table names what it misses
            q = domain.field.order
            raise SpecFormatError(f"table must list all {q}^{domain.dim} domain vectors")
        for v in domain.vectors():
            if v not in self.entries:
                raise SpecFormatError(f"table misses domain vector {domain.encode(v)}")
            if not codomain.contains(self.entries[v]):
                raise SpecFormatError(f"table value at {domain.encode(v)} off-space")

    def evaluate(self, v):
        self._check_domain(v)
        return self.entries[v]


class OrbitTableMap(VectorMap):
    """One value per domain orbit: phi(scale*rep) = scale*values[rep] for the
    orbit's canonical representative rep.  Checked in turn: the key count,
    the keys against domain.orbits() as dict keys compare (==), each value."""

    def __init__(self, domain: VectorSpace, codomain: VectorSpace, values: dict):
        if domain.field != codomain.field:
            raise DomainMismatch("domain and codomain must share one field")
        self.domain = domain
        self.codomain = codomain
        self.values = values = dict(values)
        n = domain.orbit_count
        if len(values) != n:
            raise SpecFormatError(f"expected {n} orbit values, got {len(values)}")
        if values.keys() != set(domain.orbits()):
            raise SpecFormatError("orbit table must cover every orbit exactly once")
        for val in values.values():
            if not codomain.contains(val):
                raise SpecFormatError(f"orbit value {val!r} off-space")

    def evaluate(self, v):
        self._check_domain(v)
        if v == self.domain.zero:
            return self.codomain.zero
        rep, scale = self.domain.canonical_rep(v)
        return self.codomain.scalar_mul(scale, self.values[rep])


class KLinearExtensionMap(VectorMap):
    """F -> F map, linear over the prime subfield k, fixed by images of the
    power basis of F as a k-space.  Domain and codomain are 1-dimensional.

    The k-coordinates of an input are its coefficients c_i, so its image is
    the dot product sum_i c_i * img_i, coefficient by coefficient.  The
    images are cleared once to integer numerators over one common
    denominator (1 over Z_p), so an evaluation is an integer dot product
    per output coefficient, finished as one reduced Fraction over Q or one
    residue over Z_p, with no field call."""

    def __init__(self, field: ExtensionField, basis_images):
        if not isinstance(field, ExtensionField):
            raise NotAnExtension("k-linear extension needs F != k")
        basis_images = tuple(basis_images)
        if len(basis_images) != field.degree:
            raise SpecFormatError(
                f"expected {field.degree} basis images, got {len(basis_images)}"
            )
        for img in basis_images:
            if not field.contains(img):
                raise SpecFormatError(f"basis image {img!r} not in {field}")
        self.field = field
        self.domain = VectorSpace(field, 1)
        self.codomain = VectorSpace(field, 1)
        self.basis_images = basis_images
        # column k holds coefficient k of every image, as numerators over
        # the images' common denominator
        flat = [c for img in basis_images for c in img]
        if field.characteristic:
            self._denom = 1
        else:
            flat, self._denom = numerators(flat)
        d = field.degree
        self._cols = [flat[k::d] for k in range(d)]

    def evaluate(self, v):
        self._check_domain(v)
        p, coeffs = self.field.characteristic, v[0]
        if not p:
            coeffs, den = numerators(coeffs)
            den *= self._denom
        dots = [sum(map(operator.mul, coeffs, col)) for col in self._cols]
        if p:
            return (tuple([n % p for n in dots]),)
        return (tuple([Fraction(n, den) for n in dots]),)


class RatioMap(VectorMap):
    """(x, y) -> xy/(x+y) with the x+y = 0 branch sent to 0; F^2 -> F.

    Over characteristic 0 an evaluation is one integer computation, with no
    field call.  With x = X/dx and y = Y/dy cleared to integer numerators,
    x + y = S/(dx dy) for S = X dy + Y dx and xy = XY/(dx dy), so the value
    is XY/S: over Q the one reduced Fraction xn yn / (xn yd + yn xd), over
    Q(a) the product XY folded through the modulus (mul_numerators) and one
    fraction-free solve S u = XY (div_numerators, the solver of the field's
    own div).  Finite fields evaluate through their field operations."""

    def __init__(self, field: Field):
        if field.characteristic == 2:
            raise CharacteristicTwo(
                "the ratio map's witness collapses in characteristic 2"
            )
        self.field = field
        self.domain = VectorSpace(field, 2)
        self.codomain = VectorSpace(field, 1)

    def evaluate(self, v):
        self._check_domain(v)
        x, y = v
        field = self.field
        if field.characteristic:
            s = field.add(x, y)
            if s == field.zero:
                return (field.zero,)
            return (field.div(field.mul(x, y), s),)
        if isinstance(field, Rationals):
            xn, xd = x.as_integer_ratio()
            yn, yd = y.as_integer_ratio()
            s = xn * yd + yn * xd
            return (Fraction(xn * yn, s) if s else field.zero,)
        xs, dx = numerators(x)
        ys, dy = numerators(y)
        s = [a * dy + b * dx for a, b in zip(xs, ys)]
        if not any(s):
            return (field.zero,)
        prod, den = field.mul_numerators(xs, ys)
        return (field.div_numerators(prod, den, s, 1),)


class IndicatorMap(VectorMap):
    """Z_2^2 -> Z_2: 0 at the origin, 1 everywhere else."""

    def __init__(self):
        field = PrimeField(2)
        self.field = field
        self.domain = VectorSpace(field, 2)
        self.codomain = VectorSpace(field, 1)

    def evaluate(self, v):
        self._check_domain(v)
        return (0,) if v == self.domain.zero else (1,)


# ---------------------------------------------------------------------------
# builders for the three counterexample constructions
# ---------------------------------------------------------------------------

def build_theorem1_counterexample(field: Field) -> KLinearExtensionMap:
    """Additive-but-not-homogeneous map on F, for F a proper extension of its
    prime subfield: every power-basis vector is sent to the generator."""
    if not isinstance(field, ExtensionField):
        raise NotAnExtension(
            "no additive non-homogeneous map exists over a prime field"
        )
    return KLinearExtensionMap(field, (field.generator,) * field.degree)


def build_ratio_map(field: Field) -> RatioMap:
    return RatioMap(field)


def build_char2_indicator() -> IndicatorMap:
    return IndicatorMap()


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

# A sampled check may run SAMPLE_BUDGET // (dim * degree) samples: a pair
# costs 8-19 us per unit of dim * degree (Q to GF(2^128), 2-CPU Xeon,
# Python 3.11), so the costliest accepted check runs for 8-19 s.
SAMPLE_BUDGET = 10**6


def _resolve_strategy(m: VectorMap, strategy, k: int):
    """The strategy a check runs.  An exhaustive scan of q^k pairs over the
    limit is refused before any work; as q^k >= 2^k, a k past the bit
    length of the limit is over it.  A sampled run is bounded by its work:
    past SAMPLE_BUDGET // (dim * degree) samples it is refused before
    anything is drawn."""
    if strategy is None:
        strategy = EXHAUSTIVE if m.domain.is_finite else Sampled()
    elif strategy == EXHAUSTIVE and not m.domain.is_finite:
        raise InfiniteDomainExhaustive(
            f"cannot exhaust {m.domain}; use the sampled strategy"
        )
    if strategy == EXHAUSTIVE:
        q, limit = m.domain.field.order, DEFAULT_MAX_CANDIDATES
        if k > limit.bit_length() or q**k > limit:
            raise SearchSpaceTooLarge(
                f"{q}^{k} pairs exceed the limit {limit}; use --strategy sampled"
            )
    else:
        limit = SAMPLE_BUDGET // (m.domain.dim * m.domain.field.degree)
        if strategy.samples > limit:
            raise SearchSpaceTooLarge(
                f"{strategy.samples} samples exceed the limit {limit}"
            )
    return strategy


def _corners(space: VectorSpace):
    """The origin, the standard basis, and (dim >= 2) the probe
    g = (1, -1, 0, ...) of the coordinate-sum-zero branch of closed-form maps."""
    f = space.field
    basis = [
        tuple(f.one if j == i else f.zero for j in range(space.dim))
        for i in range(space.dim)
    ]
    probes = []
    if space.dim >= 2:
        probes.append((f.one, f.neg(f.one)) + (f.zero,) * (space.dim - 2))
    return space.zero, basis, probes


def _additivity_corner_pairs(space: VectorSpace):
    z, basis, probes = _corners(space)
    pairs = [(z, z)]
    pairs += [(z, e) for e in basis]
    pairs += [(e, z) for e in basis]
    pairs += [(e, f) for e in basis for f in basis]
    pairs += [(e, space.neg(e)) for e in basis]
    for g in probes:
        pairs += [(g, g), (g, z), (z, g), (g, space.neg(g))]
        pairs += [(g, e) for e in basis]
    return pairs


def _homogeneity_corner_pairs(m: VectorMap):
    f = m.domain.field
    lams = [f.zero, f.one, f.neg(f.one)]
    if isinstance(f, ExtensionField):
        lams.append(f.generator)
    z, basis, probes = _corners(m.domain)
    return [(lam, u) for lam in lams for u in [z, *basis, *probes]]


def _additivity_pairs(m: VectorMap, strategy: Sampled):
    yield from _additivity_corner_pairs(m.domain)
    rng = random.Random(strategy.seed)
    for _ in range(strategy.samples):
        yield m.domain.random_vector(rng), m.domain.random_vector(rng)


def _homogeneity_pairs(m: VectorMap, strategy: Sampled):
    yield from _homogeneity_corner_pairs(m)
    rng = random.Random(strategy.seed)
    for _ in range(strategy.samples):
        yield m.domain.field.random_element(rng), m.domain.random_vector(rng)


class _RankTable:
    """phi over a finite domain by rank, one per map (VectorMap._rank_table):
    cols[c][r] is the rank of coordinate c of phi(v_r), v_r the domain
    vector of rank r.  Inputs are evaluated in rank order, which is
    domain.vectors() order, each once per map, and each value is checked
    against the codomain on its first evaluation.  A row is appended whole
    or not at all, and each extension re-slices domain.vectors() from the
    first missing rank, so after an evaluate that raised the next check
    resumes at the input that raised.  The table holds the spaces, not the
    map: there is no cycle, and it is freed with the map.  Not thread-safe."""

    def __init__(self, domain: VectorSpace, codomain: VectorSpace):
        self.domain, self.codomain = domain, codomain
        self.rows = SpaceRows(domain)
        self.size = domain.size
        self.cols = [[] for _ in range(codomain.dim)]

    def _extend(self, evaluate, n: int):
        cols, ranks = self.cols, self.codomain.coordinate_ranks
        for v in itertools.islice(self.domain.vectors(), len(cols[0]), n):
            for col, c in zip(cols, ranks(evaluate(v))):
                col.append(c)

    def value(self, v):
        """phi(v), decoded from its ranks."""
        r, field = self.domain.rank(v), self.codomain.field
        return tuple(field.element_from_rank(col[r]) for col in self.cols)

    def sum_row(self, i: int):
        """Pairs (v_i, v_j): the rank of v_i + v_j by j, and per codomain
        coordinate c the field row that adds coordinate c of phi(v_i)."""
        rows = self.rows
        return rows.add(i), [rows.field_add(col[i]) for col in self.cols]

    def scale_row(self, s: int):
        """Pairs (lam, v_j), lam of rank s: the rank of lam * v_j by j, and
        per codomain coordinate the field row that scales by lam."""
        mul = self.rows.field_mul(s)
        return self.rows.act(s), [mul] * len(self.cols)

    def first_failure(self, evaluate, row, outer: int, decode):
        """Scan rows 0..outer-1 in order, row(i) giving (index, field rows):
        pair (i, j) fails when some coordinate column has col[index[j]] !=
        frow[col[j]].  Returns (pairs before the first failure, [the
        failing pair decoded]), or (all pairs, []) when none fails.
        evaluate is the map's, for the inputs not yet tabulated.

        Pair (0, 0) of either scan holds iff phi(0) = 0, and then so does
        the rest of row 0 (phi(0 + v) = phi(0) + phi(v), phi(0 * v) =
        0 * phi(v)), whose pairs read every input in rank order.  So phi(0)
        is evaluated alone first, then every input, as the pair scan
        would; each later row is compared a whole column at a time."""
        n, cols = self.size, self.cols
        self._extend(evaluate, 1)
        if any(col[0] for col in cols):
            return 0, [(decode(0), self.domain.vector_from_rank(0))]
        self._extend(evaluate, n)
        for i in range(outer):
            index, frows = row(i)
            first = n
            for col, frow in zip(cols, frows):
                lhs = list(map(col.__getitem__, index))
                rhs = list(map(frow.__getitem__, col))
                if lhs != rhs:
                    first = min(first, next(
                        j for j, (a, b) in enumerate(zip(lhs, rhs)) if a != b
                    ))
            if first < n:
                pair = (decode(i), self.domain.vector_from_rank(first))
                return i * n + first, [pair]
        return outer * n, []


def _memo(m: VectorMap, strategy):
    """What a checker call evaluates m through: for an exhaustive scan the
    map's own rank table, so that each input is evaluated at most once per
    map whatever the property; otherwise m.evaluate behind a dict local to
    the call and filled on first use, so at most once per call.  Fraction
    hashes are not cached (a modular inverse each), so vectors over Q and
    Q(a) are keyed by the integer pairs of their coefficients."""
    if strategy == EXHAUSTIVE:
        return m._rank_table
    values, field = {}, m.domain.field
    if field.characteristic:
        key = None
    elif isinstance(field, Rationals):
        def key(v):
            return tuple([c.as_integer_ratio() for c in v])
    else:  # Q(a): every coordinate holds degree coefficients
        def key(v):
            return tuple([c.as_integer_ratio() for x in v for c in x])

    def evaluate(v):
        k = key(v) if key else v
        out = values.get(k)
        if out is None:
            out = values[k] = m.evaluate(v)
        return out

    return evaluate


def _verdict(strategy) -> str:
    return "holds_exhaustive" if strategy == EXHAUSTIVE else "holds_on_samples"


def _scan_additive(m: VectorMap, strategy, memo) -> CheckReport:
    """An exhaustive scan finds its first failing pair on ranks; that pair,
    like every sampled one, is then evaluated on field elements, where it
    must fail too: a rank row that disagrees with the field raises
    AssertionError rather than passing the map."""
    if strategy == EXHAUSTIVE:
        checked, pairs = memo.first_failure(
            m.evaluate, memo.sum_row, memo.size, m.domain.vector_from_rank
        )
        evaluate = memo.value
    else:
        checked, pairs, evaluate = 0, _additivity_pairs(m, strategy), memo
    for u1, u2 in pairs:
        checked += 1
        lhs = evaluate(m.domain.add(u1, u2))
        rhs = m.codomain.add(evaluate(u1), evaluate(u2))
        if lhs != rhs:
            w = Witness("additivity", (u1, u2), lhs, rhs)
            return CheckReport("additive", "violated", w, checked)
        if strategy == EXHAUSTIVE:
            raise AssertionError("a pair that fails on ranks holds on field elements")
    return CheckReport("additive", _verdict(strategy), None, checked)


def _scan_homogeneous(m: VectorMap, strategy, memo) -> CheckReport:
    if strategy == EXHAUSTIVE:
        field = m.domain.field
        checked, pairs = memo.first_failure(
            m.evaluate, memo.scale_row, field.order, field.element_from_rank
        )
        evaluate = memo.value
    else:
        checked, pairs, evaluate = 0, _homogeneity_pairs(m, strategy), memo
    for lam, u in pairs:
        checked += 1
        lhs = evaluate(m.domain.scalar_mul(lam, u))
        rhs = m.codomain.scalar_mul(lam, evaluate(u))
        if lhs != rhs:
            w = Witness("homogeneity", (lam, u), lhs, rhs)
            return CheckReport("homogeneous", "violated", w, checked)
        if strategy == EXHAUSTIVE:
            raise AssertionError("a pair that fails on ranks holds on field elements")
    return CheckReport("homogeneous", _verdict(strategy), None, checked)


def check_additive(m: VectorMap, strategy=None) -> CheckReport:
    """Scan pairs (u1, u2) for phi(u1+u2) != phi(u1)+phi(u2)."""
    strategy = _resolve_strategy(m, strategy, 2 * m.domain.dim)
    return _scan_additive(m, strategy, _memo(m, strategy))


def check_homogeneous(m: VectorMap, strategy=None) -> CheckReport:
    """Scan pairs (lam, u) for phi(lam*u) != lam*phi(u)."""
    strategy = _resolve_strategy(m, strategy, m.domain.dim + 1)
    return _scan_homogeneous(m, strategy, _memo(m, strategy))


def check_linear(m: VectorMap, strategy=None) -> CheckReport:
    """Additivity first, then homogeneity; first witness wins.  Both scans
    share one memo, so each input is evaluated at most once in all."""
    strategy = _resolve_strategy(m, strategy, 2 * m.domain.dim)
    memo = _memo(m, strategy)
    add = _scan_additive(m, strategy, memo)
    if add.witness is not None:
        return CheckReport("linear", "violated", add.witness, add.pairs_checked)
    hom = _scan_homogeneous(m, strategy, memo)
    checked = add.pairs_checked + hom.pairs_checked
    if hom.witness is not None:
        return CheckReport("linear", "violated", hom.witness, checked)
    return CheckReport("linear", _verdict(strategy), None, checked)


# ---------------------------------------------------------------------------
# executable proof trace for the rational branch
# ---------------------------------------------------------------------------

class TraceIdentity(FrozenRecord):
    label: str
    lhs: tuple
    rhs: tuple

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def rational_proof_trace(m: VectorMap, num: int, den: int, x) -> list[TraceIdentity]:
    """Evaluate the four identity steps that carry an additive map over a
    characteristic-0 field from integer scaling to scaling by num/den.
    For additive maps every step reports equal; for others the values are
    returned without any claim."""
    if den == 0:
        raise ZeroDenominator("n must be nonzero")
    field = m.domain.field
    if field.characteristic != 0:
        raise CharacteristicMismatch("the rational trace needs characteristic 0")
    m._check_domain(x)
    dom, cod = m.domain, m.codomain
    lam = field.embed(Fraction(num, den), 0)
    inv_n = field.embed(Fraction(1, den), 0)
    m_elt = field.from_int(num)
    n_elt = field.from_int(den)
    x_over_n = dom.scalar_mul(inv_n, x)
    phi_lam_x = m.evaluate(dom.scalar_mul(lam, x))
    phi_x = m.evaluate(x)
    phi_x_over_n = m.evaluate(x_over_n)
    return [
        TraceIdentity(
            "phi((m/n)x) = m*phi((1/n)x)",
            phi_lam_x,
            cod.scalar_mul(m_elt, phi_x_over_n),
        ),
        TraceIdentity(
            "phi(x) = n*phi((1/n)x)",
            phi_x,
            cod.scalar_mul(n_elt, phi_x_over_n),
        ),
        TraceIdentity(
            "phi((1/n)x) = (1/n)*phi(x)",
            phi_x_over_n,
            cod.scalar_mul(inv_n, phi_x),
        ),
        TraceIdentity(
            "phi((m/n)x) = (m/n)*phi(x)",
            phi_lam_x,
            cod.scalar_mul(lam, phi_x),
        ),
    ]


# ---------------------------------------------------------------------------
# JSON map-spec and report serialization
# ---------------------------------------------------------------------------

def map_to_dict(m: VectorMap) -> dict:
    field = m.domain.field
    out = {
        "field": field.descriptor(),
        "domain_dim": m.domain.dim,
        "codomain_dim": m.codomain.dim,
    }
    if isinstance(m, TableMap):
        entries = [
            [m.domain.encode(v), m.codomain.encode(m.entries[v])]
            for v in m.domain.vectors()
        ]
        out["map"] = {"kind": "table", "entries": entries}
    elif isinstance(m, OrbitTableMap):
        values = [
            [m.domain.encode(rep), m.codomain.encode(m.values[rep])]
            for rep in m.domain.orbits()
        ]
        out["map"] = {"kind": "orbit_table", "values": values}
    elif isinstance(m, KLinearExtensionMap):
        out["map"] = {
            "kind": "klinear_extension",
            "basis_images": [field.encode(img) for img in m.basis_images],
        }
    elif isinstance(m, RatioMap):
        out["map"] = {"kind": "ratio"}
    elif isinstance(m, IndicatorMap):
        out["map"] = {"kind": "indicator"}
    else:
        raise SpecFormatError(f"unserializable map {type(m).__name__}")
    return out


def map_from_dict(d: dict) -> VectorMap:
    """Decode a map spec.  A malformed spec raises SpecFormatError (or a
    more specific AddhomError), never a raw KeyError, TypeError,
    AttributeError or ValueError."""
    try:
        return _decode_map(d)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SpecFormatError(f"malformed map spec: {exc}") from exc


def _decode_map(d: dict) -> VectorMap:
    field = parse_field(d["field"])
    du, dv = d["domain_dim"], d["codomain_dim"]
    for key, dim in (("domain_dim", du), ("codomain_dim", dv)):
        if type(dim) is not int:
            raise SpecFormatError(f"{key} must be a JSON integer, not {dim!r}")
    body = d["map"]
    kind = body["kind"]
    domain, codomain = VectorSpace(field, du), VectorSpace(field, dv)
    if kind == "klinear_extension":
        if not isinstance(field, ExtensionField):
            raise SpecFormatError("klinear_extension needs an extension field")
        if du != 1 or dv != 1:
            raise SpecFormatError("klinear_extension maps F -> F (dims 1, 1)")
        images = [field.decode(t) for t in body["basis_images"]]
        return KLinearExtensionMap(field, images)
    if kind == "ratio":
        if du != 2 or dv != 1:
            raise SpecFormatError("ratio maps F^2 -> F (dims 2, 1)")
        return RatioMap(field)
    if kind == "indicator":
        if field.descriptor() != "Fp:2" or du != 2 or dv != 1:
            raise SpecFormatError("indicator maps Z_2^2 -> Z_2")
        return IndicatorMap()
    if kind not in ("table", "orbit_table"):
        raise SpecFormatError(f"unknown map kind {kind!r}")
    pairs = body["entries" if kind == "table" else "values"]
    if not field.is_finite:
        raise InfiniteFieldError(f"{kind} maps need a finite field, not {field}")
    # a table lists q^du >= 2^du vectors, an orbit table N >= 2^(du - 1)
    # orbits: compare bit lengths before reading the count
    q, n = field.order, len(pairs)
    if kind == "table":
        if du > n.bit_length() or domain.size != n:
            raise SpecFormatError(f"table must list all {q}^{du} domain vectors")
        shape = "table entries must be [input, output] pairs"
        entries = _decode_pairs(domain, codomain, pairs, shape, "table input")
        return TableMap(domain, codomain, entries)
    if du - 1 > n.bit_length() or domain.orbit_count != n:
        raise SpecFormatError("orbit table must cover every orbit exactly once")
    shape = "orbit values must be [rep, value] pairs"
    by_rep = _decode_pairs(domain, codomain, pairs, shape, "orbit representative")
    return OrbitTableMap(domain, codomain, by_rep)


def _decode_pairs(domain, codomain, pairs, shape: str, name: str) -> dict:
    """[input, value] pairs as a dict; an input listed twice is an error,
    not a silent overwrite."""
    out = {}
    for pair in pairs:
        if len(pair) != 2:
            raise SpecFormatError(shape)
        key, value = domain.decode(pair[0]), codomain.decode(pair[1])
        if key in out:
            raise SpecFormatError(f"{name} {domain.encode(key)} listed twice")
        out[key] = value
    return out


def map_to_json(m: VectorMap) -> str:
    return json.dumps(map_to_dict(m), indent=2) + "\n"


def map_from_json(text: str) -> VectorMap:
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SpecFormatError(f"bad JSON: {exc}") from exc
    return map_from_dict(d)


def witness_to_dict(m: VectorMap, w: Witness) -> dict:
    field = m.domain.field
    if w.kind == "additivity":
        inputs = [m.domain.encode(w.inputs[0]), m.domain.encode(w.inputs[1])]
    else:
        inputs = [field.encode(w.inputs[0]), m.domain.encode(w.inputs[1])]
    return {
        "kind": w.kind,
        "inputs": inputs,
        "lhs": m.codomain.encode(w.lhs),
        "rhs": m.codomain.encode(w.rhs),
    }


def report_to_dict(m: VectorMap, report: CheckReport) -> dict:
    return {
        "property": report.property,
        "verdict": report.verdict,
        "witness": (
            witness_to_dict(m, report.witness) if report.witness is not None else None
        ),
        "pairs_checked": report.pairs_checked,
    }
