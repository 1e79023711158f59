"""Exhaustive engines over finite fields.

Two scans, each a consumer of one walk over tuples of codomain value ranks:

  * the orbit-table scan enumerates every homogeneous map F^du -> F^dv by
    assigning one codomain vector per scalar orbit (phi(0) = 0 is forced),
    filters by exhaustive additivity, counts the additive ones and reports
    the canonically-first one that is not, or streams all that are not;

  * the raw table scan walks the maps F^du -> F^dv through their values at
    the free positions of the constraint set (the d*du basis ranks) and
    fills in the rest, so only the p^(d*du*d*dv) additive tables are
    reached out of (q^dv)^(q^du); each is checked for homogeneity -- over a
    prime field no survivor may fail, over a proper extension some must.

Both test a candidate, given as the list of its value indices, against one
constraint set (_IndexTables) built once per call by rank arithmetic, so
the walk never touches field elements.  The table scan tests homogeneity
on one row: the primitive element g generates F*, so a map is homogeneous
iff it fixes 0 and commutes with g.  Only the orbit search builds orbit
tables, from ranks alone: it lists no vector until it emits a map.
Counts are exact Python ints, checked against the paper's closed
forms.  Both scans run in one process, in canonical order; the `jobs`
setting is accepted for compatibility and selects nothing.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import cached_property

from .errors import (
    DEFAULT_MAX_CANDIDATES,
    InfiniteFieldError,
    NotPrimeField,
    Record,
    SearchSpaceTooLarge,
    SpecFormatError,
)
from .fields import Field, PrimeField
from .maps import (
    CheckReport,
    OrbitTableMap,
    TableMap,
    check_additive,
    check_homogeneous,
    map_to_dict,
    report_to_dict,
)
from .spaces import SpaceRows, VectorSpace


def count_homogeneous(field: Field, du: int, dv: int) -> int:
    """q^(dv*N) with N the orbit count (q^du - 1)/(q - 1)."""
    if not field.is_finite:
        raise InfiniteFieldError("homogeneous-map count needs a finite field")
    q = field.order
    return q ** (dv * ((q**du - 1) // (q - 1)))


def count_linear(field: Field, du: int, dv: int) -> int:
    if not field.is_finite:
        raise InfiniteFieldError("linear-map count needs a finite field")
    return field.order ** (du * dv)


# ---------------------------------------------------------------------------
# integer index tables
# ---------------------------------------------------------------------------

class _IndexTables:
    """Constraints on a map F^du -> F^dv, phi = its value indices by domain
    index, built on ranks by the digit arithmetic of SpaceRows, which lists
    no vector: cadd is the codomain's sum table (SpaceRows.sums), and sums
    holds the n*d*du triples (i, e, i + e) for the basis ranks e of F^du
    (SpaceRows.steps).  By induction on the Z_p coordinates, phi is additive
    iff phi(i + e) = phi(i) + phi(e) for every such triple (i = 0 gives
    phi(0) = 0).  With g the primitive element of SpaceRows, scales[i]
    indexes g*v_i and gact is g's codomain action; g generates F*, so phi is
    homogeneous iff phi(0) = 0 and gact[phi[i]] = phi[scales[i]] for every
    i.  Both scans build these; only the orbit search (orbits=True) builds
    the orbit tables: reps, the ranks of domain.orbits() (orbit_ranks), and
    orbit_of, naming each nonzero g^k*rep by its orbit and the codomain
    action of g^k (gact iterated k times).  cvecs, the codomain vectors, and
    the representatives are read when a map is emitted."""

    def __init__(self, domain: VectorSpace, codomain: VectorSpace, orbits=False):
        self.domain, self.codomain = domain, codomain
        n, q = domain.size, domain.field.order
        drows, crows = SpaceRows(domain), SpaceRows(codomain)
        cadd = self.cadd = crows.sums()
        self.scales, self.gact = drows.act(crows.g), crows.act(crows.g)
        steps = drows.steps()
        self.sums = [(i, e, add[i]) for i in range(n) for e, add in steps]
        if orbits:
            act = list(range(len(cadd)))
            cpow = [act]  # cpow[k] = codomain action of g^k
            for _ in range(q - 2):
                act = list(map(self.gact.__getitem__, act))
                cpow.append(act)
            self.reps, orbit_of = domain.orbit_ranks(), [None] * n
            for o, i in enumerate(self.reps):
                for act in cpow:
                    orbit_of[i] = (o, act)
                    i = self.scales[i]
            self.orbit_of = orbit_of[1:]

    @cached_property
    def cvecs(self) -> list:
        return list(self.codomain.vectors())

    def walk(self, slots, fill):
        """fill(values) per tuple of slots value ranks, slot 0 slowest, lazily."""
        return map(fill, itertools.product(range(len(self.cadd)), repeat=slots))

    def phi_from_assignment(self, assign):
        """Index table of the orbit map with the given per-orbit value ranks."""
        return [0] + [act[assign[o]] for o, act in self.orbit_of]

    def is_additive(self, phi) -> bool:
        cadd = self.cadd
        for i, j, k in self.sums:
            if cadd[phi[i]][phi[j]] != phi[k]:
                return False
        return True

    def is_homogeneous(self, phi) -> bool:
        gact = self.gact
        return phi[0] == 0 and [gact[v] for v in phi] == [phi[i] for i in self.scales]

    def table_map(self, phi) -> TableMap:
        vector = self.domain.vector_from_rank
        entries = {vector(i): self.cvecs[v] for i, v in enumerate(phi)}
        return TableMap(self.domain, self.codomain, entries)

    def orbit_map(self, phi) -> OrbitTableMap:
        """The orbit map of phi: phi at each representative, where g^0 = 1 acts."""
        cvecs = self.cvecs
        values = {v: cvecs[phi[i]] for v, i in zip(self.domain.orbits(), self.reps)}
        return OrbitTableMap(self.domain, self.codomain, values)


def _guarded_tables(field: Field, du: int, dv: int, per_orbit: bool, limit: int):
    """(count, index tables) of a scan over maps F^du -> F^dv.  The count is
    q^k, k = dv*N, with N the domain's orbit_count when per_orbit, else its
    size; the spaces are built first, so their constructor refuses a
    dimension below 1.  Over limit it refuses before building any table: as
    q^k >= 2^k and N >= 2^(du - 1), a k or du past the bit length of limit
    is over it, and no size is read for a du past it by more than 64.  An
    exponent past 64 bits is named by its formula.  So is a codomain sum
    table (q^dv rows of q^dv) over limit; k >= 2*dv unless N = 1, so that
    binds only the orbit search at du = 1."""
    if not field.is_finite:
        raise InfiniteFieldError(f"exhaustive scans need a finite field, not {field}")
    domain, codomain = VectorSpace(field, du), VectorSpace(field, dv)
    q, bits = field.order, limit.bit_length()
    k = None
    if du <= bits + 64:
        k = dv * (domain.orbit_count if per_orbit else domain.size)
        if k <= bits and q**k <= limit:
            if q ** (2 * dv) > limit:
                raise SearchSpaceTooLarge(
                    f"{q}^{2 * dv} codomain sums exceed the limit {limit}")
            return q**k, _IndexTables(domain, codomain, per_orbit)
    if k is None or k.bit_length() > 64:
        k = f"({dv}*({q}^{du}-1)/{q - 1})" if per_orbit else f"({dv}*{q}^{du})"
    what = "candidates" if per_orbit else "tables"
    raise SearchSpaceTooLarge(f"{q}^{k} {what} exceed the limit {limit}")


def _closed_form(count: int, expected: int) -> None:
    """A scan's count must equal the paper's closed form."""
    if count != expected:
        raise AssertionError(f"scan counted {count}, the closed form gives {expected}")


def _reverify(m, holds, fails) -> CheckReport:
    """fails' exhaustive report on a scan's map; holds must hold, fails not.
    Both checks read the map's one rank table, so each input is evaluated
    at most once."""
    report = fails(m, "exhaustive")
    if not holds(m, "exhaustive").holds or report.holds:
        raise AssertionError("scan emitted a map that fails re-verification")
    return report


# ---------------------------------------------------------------------------
# homogeneous-but-not-additive search over orbit tables
# ---------------------------------------------------------------------------

class SearchConfig(Record):
    field: Field
    domain_dim: int
    codomain_dim: int
    mode: str = "first_witness"  # count_only | first_witness | enumerate_all (streams)
    max_candidates: int = DEFAULT_MAX_CANDIDATES
    jobs: int = 1  # accepted for compatibility; the search runs in one process


class SearchResult(Record):
    field_descriptor: str
    domain_dim: int
    codomain_dim: int
    mode: str
    homogeneous_count: int
    homogeneous_additive_count: int
    witness_map: OrbitTableMap | None = None
    witness_report: CheckReport | None = None
    witness_maps: Iterator[OrbitTableMap] = ()  # enumerate_all: one pass, in order

    @property
    def non_additive_count(self) -> int:
        return self.homogeneous_count - self.homogeneous_additive_count

    def to_dict(self) -> dict:
        return {
            "homogeneous": str(self.homogeneous_count),
            "homogeneous_additive": str(self.homogeneous_additive_count),
            "non_additive": str(self.non_additive_count),
            "witness": (
                map_to_dict(self.witness_map) if self.witness_map else None
            ),
            "witness_report": (
                report_to_dict(self.witness_map, self.witness_report)
                if self.witness_report
                else None
            ),
            "instance": {
                "field": self.field_descriptor,
                "domain_dim": self.domain_dim,
                "codomain_dim": self.codomain_dim,
                "mode": self.mode,
            },
        }


def search_homogeneous_nonadditive(config: SearchConfig) -> SearchResult:
    """Count all homogeneous maps and filter them by exhaustive additivity;
    report the canonically-first homogeneous non-additive map, re-verified
    through the map checkers before it is returned."""
    field, du, dv = config.field, config.domain_dim, config.codomain_dim
    if config.mode not in (modes := ("count_only", "first_witness", "enumerate_all")):
        raise SpecFormatError(f"search mode {config.mode!r} is not {' | '.join(modes)}")
    total, tables = _guarded_tables(field, du, dv, True, config.max_candidates)
    slots, fill = len(tables.reps), tables.phi_from_assignment
    additive = 0
    first_bad = None
    for phi in tables.walk(slots, fill):
        if tables.is_additive(phi):
            additive += 1
        elif first_bad is None:
            first_bad = phi
    _closed_form(additive, count_linear(field, du, dv))
    witness_map = report = None
    if config.mode != "count_only" and first_bad is not None:
        witness_map = tables.orbit_map(first_bad)
        report = _reverify(witness_map, check_homogeneous, check_additive)
    result = SearchResult(
        field_descriptor=field.descriptor(),
        domain_dim=du,
        codomain_dim=dv,
        mode=config.mode,
        homogeneous_count=total,
        homogeneous_additive_count=additive,
        witness_map=witness_map,
        witness_report=report,
    )
    if config.mode == "enumerate_all":  # a second walk, run as it is consumed
        result.witness_maps = (tables.orbit_map(phi) for phi in tables.walk(slots, fill)
                               if not tables.is_additive(phi))
    return result


# ---------------------------------------------------------------------------
# raw table scan: machine check of the prime-field implication
# ---------------------------------------------------------------------------

class TableScanReport(Record):
    field_descriptor: str
    domain_dim: int
    codomain_dim: int
    tables_total: int
    additive_count: int
    expected_additive: int  # q^(du*dv), the linear-map count
    additive_nonhomogeneous_count: int
    first_nonhomogeneous: TableMap | None = None

    @property
    def additivity_implies_homogeneity(self) -> bool:
        return self.additive_nonhomogeneous_count == 0

    def to_dict(self) -> dict:
        return {
            "field": self.field_descriptor,
            "domain_dim": self.domain_dim,
            "codomain_dim": self.codomain_dim,
            "tables_total": str(self.tables_total),
            "additive": str(self.additive_count),
            "expected_additive": str(self.expected_additive),
            "additive_nonhomogeneous": str(self.additive_nonhomogeneous_count),
            "additivity_implies_homogeneity": self.additivity_implies_homogeneity,
            "counterexample": (
                map_to_dict(self.first_nonhomogeneous)
                if self.first_nonhomogeneous
                else None
            ),
        }


def scan_additive_tables(
    field: Field, du: int, dv: int, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> TableScanReport:
    """Walk the table maps F^du -> F^dv down to the additive ones and test
    each for exhaustive homogeneity; the first that fails is re-verified
    through the map checkers before it is returned.

    A constraint (i, e, k) with i, e < k fixes phi(k) = phi(i) + phi(e), and
    phi(0) = 0; every other position is free (for the basis constraints, the
    d*du basis ranks).  The walk takes the product of the values at the free
    positions, fills in the fixed ones in ascending order and keeps the
    tables that pass is_additive.  Each fixed position depends only on
    earlier ones, so the tables come in the order of a product over whole
    tables (position 0 slowest, values by rank)."""
    total, tables = _guarded_tables(field, du, dv, False, max_candidates)
    n, cadd = tables.domain.size, tables.cadd
    fixed = {k: (i, e) for i, e, k in tables.sums if i < k and e < k}
    free = [k for k in range(1, n) if k not in fixed]
    plan = sorted(fixed.items())
    phi = [0] * n

    def fill(values):
        for k, v in zip(free, values):
            phi[k] = v
        for k, (i, e) in plan:
            phi[k] = cadd[phi[i]][phi[e]]
        return phi

    additive = bad = 0
    first_bad = None
    for table in filter(tables.is_additive, tables.walk(len(free), fill)):
        additive += 1
        if not tables.is_homogeneous(table):
            bad += 1
            if first_bad is None:
                first_bad = tables.table_map(table)
    d = field.degree  # additive tables are the Z_p-linear maps
    _closed_form(additive, field.characteristic ** (d * du * d * dv))
    if first_bad is not None:
        _reverify(first_bad, check_additive, check_homogeneous)
    linear = count_linear(field, du, dv)
    _closed_form(additive - bad, linear)  # A and H iff linear
    return TableScanReport(
        field_descriptor=field.descriptor(),
        domain_dim=du,
        codomain_dim=dv,
        tables_total=total,
        additive_count=additive,
        expected_additive=linear,
        additive_nonhomogeneous_count=bad,
        first_nonhomogeneous=first_bad,
    )


def verify_theorem1_prime(
    field: Field, du: int, dv: int, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> TableScanReport:
    """Over Z_p, every additive table map must be homogeneous and the
    additive count must equal p^(du*dv)."""
    if not isinstance(field, PrimeField):
        raise NotPrimeField(
            "the prime-case verifier only accepts Z_p; use scan_additive_tables "
            "for extension fields"
        )
    return scan_additive_tables(field, du, dv, max_candidates)
