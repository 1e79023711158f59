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
the walk never touches field elements.  Counts are exact Python ints,
checked against the paper's closed forms.  Both scans run in one process,
in canonical order; the `jobs` setting is accepted for compatibility and
selects nothing.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import (
    DEFAULT_MAX_CANDIDATES,
    DimensionMismatch,
    InfiniteFieldError,
    NotPrimeField,
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
    index.  A rank's base-p digits are its Z_p coordinates, and i + e, for a
    basis rank e = p^k, steps digit k mod p.  By induction on the digits phi
    is additive iff phi(i + e) = phi(i) + phi(e) for every i and e (i = 0
    gives phi(0) = 0): sums holds these n*d*du triples (i, e, i + e).  With g
    the primitive element of FieldRows (1 if q = 2), phi is homogeneous iff
    phi(0) = 0 and phi(g*i) = gact[phi(i)], where scales[i] indexes g*v_i."""

    def __init__(self, domain: VectorSpace, codomain: VectorSpace):
        self.domain, self.codomain = domain, codomain
        self.dvecs, self.cvecs = list(domain.vectors()), list(codomain.vectors())
        n, q, p = len(self.dvecs), domain.field.order, domain.field.characteristic
        crows = SpaceRows(codomain)
        self.cadd = [crows.add(i) for i in range(len(self.cvecs))]
        exp = crows.field.exp  # exp[k] = rank(g^k)
        cpow = [crows.act(s) for s in exp]  # codomain action of g^k
        k = 1 % (q - 1)  # exp[k] is g (k = 0 when q = 2, where g = 1)
        self.gact, self.scales = cpow[k], SpaceRows(domain).act(exp[k])
        basis = [p**k for k in range(crows.field.digits * domain.dim)]
        self.sums = [(i, e, i + e if i // e % p != p - 1 else i - (p - 1) * e)
                     for i in range(n) for e in basis]
        self.reps = [domain.rank(orb.representative) for orb in domain.orbits()]
        # per nonzero domain vector g^k*rep: (orbit index, codomain action of g^k)
        orbit_of = [None] * n
        for o, i in enumerate(self.reps):
            for act in cpow:
                orbit_of[i] = (o, act)
                i = self.scales[i]
        self.orbit_of = orbit_of[1:]

    def walk(self, slots, fill):
        """fill(values) per tuple of slots value ranks, slot 0 slowest, lazily."""
        return map(fill, itertools.product(range(len(self.cvecs)), repeat=slots))

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
        act = self.gact
        return phi[0] == 0 and [phi[k] for k in self.scales] == [act[v] for v in phi]

    def table_map(self, phi) -> TableMap:
        entries = {v: self.cvecs[phi[i]] for i, v in enumerate(self.dvecs)}
        return TableMap(self.domain, self.codomain, entries)

    def orbit_map(self, phi) -> OrbitTableMap:
        """The orbit map of phi: phi at each representative, where g^0 = 1 acts."""
        return OrbitTableMap(
            self.domain, self.codomain, [self.cvecs[phi[i]] for i in self.reps]
        )


def _guarded_tables(field: Field, du: int, dv: int, per_orbit: bool, limit: int):
    """(count, index tables) of a scan over maps F^du -> F^dv.  The count is
    q^k, k = dv*N, with N = (q^du - 1)/(q - 1) orbits when per_orbit, else
    N = q^du vectors.  Over limit it refuses before building anything: as
    q^k >= 2^k and N >= 2^(du - 1), a k or du past the bit length of limit
    is over it.  An exponent past 64 bits is named by its formula."""
    if not field.is_finite:
        raise InfiniteFieldError(f"exhaustive scans need a finite field, not {field}")
    if min(du, dv) < 1:
        raise DimensionMismatch("dimension must be >= 1")
    q, bits = field.order, limit.bit_length()
    k = None
    if du <= bits + 64:
        n = q**du
        k = dv * ((n - 1) // (q - 1) if per_orbit else n)
        if k <= bits and q**k <= limit:
            return q**k, _IndexTables(VectorSpace(field, du), VectorSpace(field, dv))
    if k is None or k.bit_length() > 64:
        k = f"({dv}*({q}^{du}-1)/{q - 1})" if per_orbit else f"({dv}*{q}^{du})"
    what = "candidates" if per_orbit else "tables"
    raise SearchSpaceTooLarge(f"{q}^{k} {what} exceed the limit {limit}")


def _closed_form(count: int, expected: int) -> None:
    """A scan's count must equal the paper's closed form."""
    if count != expected:
        raise AssertionError(f"scan counted {count}, the closed form gives {expected}")


def _reverify(m, holds, fails) -> CheckReport:
    """fails' exhaustive report on a scan's map; holds must hold, fails not."""
    report = fails(m, "exhaustive")
    if not holds(m, "exhaustive").holds or report.holds:
        raise AssertionError("scan emitted a map that fails re-verification")
    return report


# ---------------------------------------------------------------------------
# homogeneous-but-not-additive search over orbit tables
# ---------------------------------------------------------------------------

@dataclass
class SearchConfig:
    field: Field
    domain_dim: int
    codomain_dim: int
    mode: str = "first_witness"  # count_only | first_witness | enumerate_all (streams)
    max_candidates: int = DEFAULT_MAX_CANDIDATES
    jobs: int = 1  # accepted for compatibility; the search runs in one process


@dataclass
class SearchResult:
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

@dataclass
class TableScanReport:
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
    n, cadd = len(tables.dvecs), tables.cadd
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
    d = getattr(field, "degree", 1)  # additive tables are the Z_p-linear maps
    _closed_form(additive, field.characteristic ** (d * du * d * dv))
    if first_bad is not None:
        _reverify(first_bad, check_additive, check_homogeneous)
    return TableScanReport(
        field_descriptor=field.descriptor(),
        domain_dim=du,
        codomain_dim=dv,
        tables_total=total,
        additive_count=additive,
        expected_additive=count_linear(field, du, dv),
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
