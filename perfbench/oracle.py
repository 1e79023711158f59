"""Reference arithmetic, closed forms and output checks for the benchmark.

Nothing here imports addhom.  Finite fields are integer ranks with their own
polynomial arithmetic over Z_p, Q and its extensions are tuples of
Fractions, and every value the program prints is parsed back from its text
encoding.  The checks compare the program's outputs against the closed
forms of the paper (homogeneous maps q^(dv*N), additive ones q^(du*dv),
additive tables p^(d*du*d*dv)) and re-derive every witness and verdict by
an independent scan in the documented canonical order.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


# ---------------------------------------------------------------------------
# polynomials over Z_p: lists of ints, ascending degree, no trailing zeros
# ---------------------------------------------------------------------------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pmod(a, f, p):
    """Remainder of a by the monic polynomial f."""
    a = [x % p for x in a]
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _trim(a[:df])


def _pgcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        monic = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, monic, p)
    return a


def _powmod_x(e, f, p):
    """x^e mod f by square-and-multiply."""
    result, base = [1], _pmod([0, 1], f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f, p) -> bool:
    """Rabin's test for a monic f over Z_p of degree >= 1."""
    n = len(f) - 1
    if n == 1:
        return True
    x = [0, 1]
    if _pmod(_powmod_x(p**n, f, p), f, p) != _pmod(x, f, p):
        return False
    for r in _prime_factors(n):
        h = _powmod_x(p ** (n // r), f, p)
        diff = _trim([(a - b) % p for a, b in itertools.zip_longest(h, x, fillvalue=0)])
        if len(_pgcd(f, diff, p)) != 1:
            return False
    return True


def monic_polys(p, d):
    """Monic degree-d polynomials over Z_p in rank order (c0 fastest)."""
    for r in range(p**d):
        yield tuple((r // p**i) % p for i in range(d)) + (1,)


def irreducibles(p, d):
    return [f for f in monic_polys(p, d) if is_irreducible(list(f), p)]


def first_irreducible(p, d):
    return next(f for f in monic_polys(p, d) if is_irreducible(list(f), p))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _split_top(text):
    parts, depth, cur = [], 0, ""
    for ch in text:
        depth += ch == "["
        depth -= ch == "]"
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return parts


class FiniteField:
    """GF(p^d) with elements as ranks sum(c_i * p^i); d == 1 is Z_p."""

    def __init__(self, p, modulus=None):
        self.p = p
        self.modulus = tuple(modulus) if modulus else None
        self.d = len(modulus) - 1 if modulus else 1
        self.q = p**self.d
        self.zero, self.one = 0, 1
        self.is_finite = True
        self.characteristic = p
        self._mul = None

    def coeffs(self, r):
        return [(r // self.p**i) % self.p for i in range(self.d)]

    def from_coeffs(self, cs):
        return sum((c % self.p) * self.p**i for i, c in enumerate(cs))

    def elements(self):
        return range(self.q)

    def add(self, a, b):
        if self.d == 1:
            return (a + b) % self.p
        return self.from_coeffs(
            [x + y for x, y in zip(self.coeffs(a), self.coeffs(b))]
        )

    def neg(self, a):
        return self.from_coeffs([-x for x in self.coeffs(a)])

    def _table(self):
        if self._mul is None:
            q = self.q
            if self.d == 1:
                self._mul = [(a * b) % self.p for a in range(q) for b in range(q)]
            else:
                f = list(self.modulus)
                polys = [_trim(self.coeffs(a)) for a in range(q)]
                self._mul = [
                    self.from_coeffs(_pmod(_pmul(pa, pb, self.p), f, self.p))
                    for pa in polys
                    for pb in polys
                ]
            self._inv = {}
            for a in range(1, q):
                for b in range(1, q):
                    if self._mul[a * q + b] == 1:
                        self._inv[a] = b
                        break
        return self._mul

    def mul(self, a, b):
        return self._table()[a * self.q + b]

    def inv(self, a):
        self._table()
        return self._inv[a]

    def generator(self):
        return self.p if self.d > 1 else None

    def embed(self, c):
        """A prime-subfield residue as an element."""
        return c % self.p

    def parse(self, text):
        text = text.strip()
        if self.d == 1:
            return int(text)
        return self.from_coeffs([int(c) for c in text[1:-1].split(",")])

    def fmt(self, a):
        if self.d == 1:
            return str(a)
        return "[" + ",".join(str(c) for c in self.coeffs(a)) + "]"

    def descriptor(self):
        if self.d == 1:
            return f"Fp:{self.p}"
        return f"Fq:{self.p}:" + ",".join(str(c) for c in self.modulus)


class RationalField:
    """Q (modulus None) or Q[x]/(modulus); elements are Fraction tuples for
    extensions and Fractions for Q."""

    is_finite = False
    characteristic = 0

    def __init__(self, modulus=None):
        self.modulus = tuple(Fraction(c) for c in modulus) if modulus else None
        self.d = len(modulus) - 1 if modulus else 1
        if self.modulus:
            self.zero = (Fraction(0),) * self.d
            self.one = (Fraction(1),) + (Fraction(0),) * (self.d - 1)
        else:
            self.zero, self.one = Fraction(0), Fraction(1)

    def add(self, a, b):
        if self.modulus is None:
            return a + b
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        if self.modulus is None:
            return -a
        return tuple(-x for x in a)

    def mul(self, a, b):
        if self.modulus is None:
            return a * b
        out = [Fraction(0)] * (2 * self.d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        f, d = self.modulus, self.d
        for i in range(len(out) - 1, d - 1, -1):
            c = out[i]
            if c:
                for j in range(d + 1):
                    out[i - d + j] -= c * f[j]
        return tuple(out[:d])

    def inv(self, a):
        if self.modulus is None:
            return 1 / a
        # solve (multiplication-by-a matrix) * x = 1 by Gauss-Jordan
        d = self.d
        basis = [tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)]
        cols = [self.mul(a, e) for e in basis]
        rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
        for c in range(d):
            piv = next(r for r in range(c, d) if rows[r][c] != 0)
            rows[c], rows[piv] = rows[piv], rows[c]
            inv = 1 / rows[c][c]
            rows[c] = [v * inv for v in rows[c]]
            for r in range(d):
                if r != c and rows[r][c] != 0:
                    k = rows[r][c]
                    rows[r] = [v - k * w for v, w in zip(rows[r], rows[c])]
        return tuple(rows[i][d] for i in range(d))

    def generator(self):
        return tuple(Fraction(int(i == 1)) for i in range(self.d))

    def embed(self, c):
        c = Fraction(c)
        if self.modulus is None:
            return c
        return (c,) + (Fraction(0),) * (self.d - 1)

    def parse(self, text):
        text = text.strip()
        if self.modulus is None:
            return Fraction(text)
        return tuple(Fraction(c) for c in text[1:-1].split(","))

    def fmt(self, a):
        if self.modulus is None:
            return str(a)
        return "[" + ",".join(str(c) for c in a) + "]"


def field_from_descriptor(text):
    if text == "Q":
        return RationalField()
    kind, _, rest = text.partition(":")
    if kind == "Fp":
        return FiniteField(int(rest))
    if kind == "Fq":
        p, coeffs = rest.split(":")
        return FiniteField(int(p), tuple(int(c) for c in coeffs.split(",")))
    if kind == "Qext":
        return RationalField(tuple(Fraction(c) for c in rest.split(",")))
    raise ValueError(f"unknown descriptor {text!r}")


# ---------------------------------------------------------------------------
# vectors and maps
# ---------------------------------------------------------------------------

class Space:
    def __init__(self, field, dim):
        self.field, self.dim = field, dim
        self.zero = (field.zero,) * dim

    def add(self, u, v):
        return tuple(self.field.add(a, b) for a, b in zip(u, v))

    def scale(self, lam, v):
        return tuple(self.field.mul(lam, a) for a in v)

    def vectors(self):
        return itertools.product(self.field.elements(), repeat=self.dim)

    def parse(self, text):
        return tuple(self.field.parse(t) for t in _split_top(text.strip()[1:-1]))

    def fmt(self, v):
        return "(" + ",".join(self.field.fmt(c) for c in v) + ")"


class RefMap:
    """A map rebuilt from its JSON spec, evaluated with oracle arithmetic."""

    def __init__(self, spec):
        self.spec = spec
        self.field = field_from_descriptor(spec["field"])
        self.dom = Space(self.field, int(spec["domain_dim"]))
        self.cod = Space(self.field, int(spec["codomain_dim"]))
        body = spec["map"]
        self.kind = body["kind"]
        if self.kind == "table":
            self.table = {
                self.dom.parse(a): self.cod.parse(b) for a, b in body["entries"]
            }
        elif self.kind == "orbit_table":
            self.table = {
                self.dom.parse(a): self.cod.parse(b) for a, b in body["values"]
            }
        elif self.kind == "klinear_extension":
            self.images = [self.field.parse(t) for t in body["basis_images"]]

    def __call__(self, v):
        f = self.field
        if self.kind == "table":
            return self.table[v]
        if self.kind == "orbit_table":
            if v == self.dom.zero:
                return self.cod.zero
            scale = next(c for c in v if c != f.zero)
            rep = self.dom.scale(f.inv(scale), v)
            return self.cod.scale(scale, self.table[rep])
        if self.kind == "klinear_extension":
            (a,) = v
            cs = f.coeffs(a) if f.is_finite else list(a)
            acc = f.zero
            for c, img in zip(cs, self.images):
                acc = f.add(acc, f.mul(f.embed(c), img))
            return (acc,)
        if self.kind == "ratio":
            x, y = v
            s = f.add(x, y)
            if s == f.zero:
                return (f.zero,)
            return (f.mul(f.mul(x, y), f.inv(s)),)
        if self.kind == "indicator":
            return (0,) if v == self.dom.zero else (1,)
        raise ValueError(self.kind)


# ---------------------------------------------------------------------------
# checker reference: the canonical scan and the sampled-strategy rules
# ---------------------------------------------------------------------------

def _additive_violation(m, u1, u2):
    lhs = m(m.dom.add(u1, u2))
    rhs = m.cod.add(m(u1), m(u2))
    return (lhs, rhs) if lhs != rhs else None


def _homogeneous_violation(m, lam, u):
    lhs = m(m.dom.scale(lam, u))
    rhs = m.cod.scale(lam, m(u))
    return (lhs, rhs) if lhs != rhs else None


def _random_element(f, rng):
    """The documented sampling draw: Q takes numerator in [-9, 9] then
    denominator in [1, 9]; Z_p a residue; extensions one draw per
    coefficient."""
    if isinstance(f, RationalField):
        def draw():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return draw() if f.modulus is None else tuple(draw() for _ in range(f.d))
    if f.d == 1:
        return rng.randrange(f.p)
    return f.from_coeffs([rng.randrange(f.p) for _ in range(f.d)])


def _corner_pairs(m, prop):
    f, d, z = m.field, m.dom.dim, m.dom.zero
    basis = [tuple(f.one if j == i else f.zero for j in range(d)) for i in range(d)]
    g = (f.one, f.neg(f.one)) + (f.zero,) * (d - 2) if d >= 2 else None

    def neg(v):
        return tuple(f.neg(c) for c in v)

    if prop == "additive":
        pairs = [(z, z)] + [(z, e) for e in basis] + [(e, z) for e in basis]
        pairs += [(e, h) for e in basis for h in basis] + [(e, neg(e)) for e in basis]
        if g is not None:
            pairs += [(g, g), (g, z), (z, g), (g, neg(g))] + [(g, e) for e in basis]
        return pairs
    lams = [f.zero, f.one, f.neg(f.one)] + ([f.generator()] if f.d > 1 else [])
    us = [z] + basis + ([g] if g is not None else [])
    return [(lam, u) for lam in lams for u in us]


def _pairs(m, prop, strategy):
    """Pairs in the order the checker visits them: exhaustive enumeration,
    or the fixed corner pairs followed by the seeded draws."""
    if strategy == "exhaustive":
        vecs = list(m.dom.vectors())
        if prop == "additive":
            yield from ((u1, u2) for u1 in vecs for u2 in vecs)
        else:
            yield from ((lam, u) for lam in m.field.elements() for u in vecs)
        return
    yield from _corner_pairs(m, prop)
    rng = random.Random(strategy["seed"])

    def vector():
        return tuple(_random_element(m.field, rng) for _ in range(m.dom.dim))

    for _ in range(strategy["samples"]):
        if prop == "additive":
            u1 = vector()
            yield u1, vector()
        else:
            lam = _random_element(m.field, rng)
            yield lam, vector()


def scan_report(m, prop, strategy="exhaustive"):
    """The reference report dict, in the program's JSON layout."""
    if prop == "linear":
        add = scan_report(m, "additive", strategy)
        if add["witness"] is not None:
            return dict(add, property="linear")
        hom = scan_report(m, "homogeneous", strategy)
        return dict(hom, property="linear",
                    pairs_checked=add["pairs_checked"] + hom["pairs_checked"])
    if prop == "additive":
        test, kind = _additive_violation, "additivity"
    else:
        test, kind = _homogeneous_violation, "homogeneity"
    n = 0
    for n, (a, b) in enumerate(_pairs(m, prop, strategy), 1):
        bad = test(m, a, b)
        if bad:
            first = m.dom.fmt(a) if kind == "additivity" else m.field.fmt(a)
            witness = {"kind": kind, "inputs": [first, m.dom.fmt(b)],
                       "lhs": m.cod.fmt(bad[0]), "rhs": m.cod.fmt(bad[1])}
            return {"property": prop, "verdict": "violated",
                    "witness": witness, "pairs_checked": n}
    verdict = "holds_exhaustive" if strategy == "exhaustive" else "holds_on_samples"
    return {"property": prop, "verdict": verdict, "witness": None,
            "pairs_checked": n}


def check_report(m, prop, strategy, report, expect):
    """Problems with a checker report; an empty list means correct.

    strategy is "exhaustive" or {"seed", "samples"}; expect is the known
    truth of the property for this map ("holds" or "violated"), and may
    carry the known witness inputs."""
    problems = []
    ref = scan_report(m, prop, strategy)
    if report != ref:
        problems.append(f"report {report} != reference {ref}")
    if (ref["witness"] is None) != (expect["truth"] == "holds"):
        problems.append(f"reference verdict {ref['verdict']} contradicts the "
                        f"known truth {expect['truth']}")
    if "inputs" in expect and (ref["witness"] or {}).get("inputs") != expect["inputs"]:
        problems.append(f"witness inputs differ from known {expect['inputs']}")
    return problems


# ---------------------------------------------------------------------------
# search and table-scan reference
# ---------------------------------------------------------------------------

def homogeneous_count(q, du, dv):
    return q ** (dv * ((q**du - 1) // (q - 1)))


def linear_count(q, du, dv):
    return q ** (du * dv)


def additive_table_count(p, d, du, dv):
    return p ** (d * du * d * dv)


def orbit_reps(space):
    f = space.field
    return [v for v in space.vectors()
            if next((c for c in v if c != f.zero), None) == f.one]


def _is_additive(m):
    vecs = list(m.dom.vectors())
    return not any(_additive_violation(m, a, b) for a in vecs for b in vecs)


def _orbit_spec(field, du, dv, reps, cvecs, assign):
    dom, cod = Space(field, du), Space(field, dv)
    return {"field": field.descriptor(), "domain_dim": du, "codomain_dim": dv,
            "map": {"kind": "orbit_table",
                    "values": [[dom.fmt(r), cod.fmt(cvecs[a])]
                               for r, a in zip(reps, assign)]}}


def check_search(job, out):
    """Problems with a search_homogeneous_nonadditive result dict."""
    field = field_from_descriptor(job["field"])
    du, dv, mode = job["du"], job["dv"], job["mode"]
    q = field.q
    hom, lin = homogeneous_count(q, du, dv), linear_count(q, du, dv)
    problems = []
    got = (out["homogeneous"], out["homogeneous_additive"], out["non_additive"])
    if got != (str(hom), str(lin), str(hom - lin)):
        problems.append(f"counts {got} != closed forms {(hom, lin, hom - lin)}")
    want_instance = {"field": job["field"], "domain_dim": du,
                     "codomain_dim": dv, "mode": mode}
    if out["instance"] != want_instance:
        problems.append(f"instance {out['instance']} != {want_instance}")
    reps = orbit_reps(Space(field, du))
    cvecs = list(Space(field, dv).vectors())
    if mode == "count_only" or hom == lin:
        if out["witness"] is not None or out["witness_report"] is not None:
            problems.append("unexpected witness")
    else:
        first = None
        for assign in itertools.product(range(len(cvecs)), repeat=len(reps)):
            spec = _orbit_spec(field, du, dv, reps, cvecs, assign)
            if not _is_additive(RefMap(spec)):
                first = spec
                break
        if out["witness"] != first:
            problems.append(f"witness {out['witness']} is not the canonical "
                            f"first non-additive map {first}")
        elif out["witness_report"] != scan_report(RefMap(first), "additive"):
            problems.append("witness report differs from the reference scan")
    if mode == "enumerate_all":
        maps = out.get("witness_maps", [])
        if len(maps) != hom - lin:
            problems.append(f"{len(maps)} witness maps != {hom - lin}")
        keys = []
        for spec in maps:
            m = RefMap(spec)
            if _is_additive(m):
                problems.append("an enumerated witness map is additive")
                break
            keys.append(tuple(cvecs.index(m.table[r]) for r in reps))
        if keys != sorted(set(keys)):
            problems.append("witness maps are not distinct in canonical order")
    return problems


def _zp_linear_tables(field, dvecs, cidx, dv):
    """Every Z_p-linear map F^du -> F^dv as a list of codomain indices, one
    per domain vector.  Over GF(p^d) these are exactly the additive tables,
    so this enumerates them without scanning all tables."""
    p, d = field.p, field.d
    digits = [[c for a in v for c in field.coeffs(a)] for v in dvecs]
    n_in, n_out = len(digits[0]), d * dv
    for flat in itertools.product(range(p), repeat=n_in * n_out):
        rows = [flat[r * n_in:(r + 1) * n_in] for r in range(n_out)]
        table = []
        for x in digits:
            ys = [sum(a * b for a, b in zip(row, x)) % p for row in rows]
            image = tuple(field.from_coeffs(ys[i * d:(i + 1) * d]) for i in range(dv))
            table.append(cidx[image])
        yield table


def check_table_scan(job, out):
    """Problems with a scan_additive_tables / verify_theorem1_prime dict."""
    field = field_from_descriptor(job["field"])
    du, dv = job["du"], job["dv"]
    p, d, q = field.p, field.d, field.q
    total = (q**dv) ** (q**du)
    additive = additive_table_count(p, d, du, dv)
    lin = linear_count(q, du, dv)
    want = {"field": job["field"], "domain_dim": du, "codomain_dim": dv,
            "tables_total": str(total), "additive": str(additive),
            "expected_additive": str(lin),
            "additive_nonhomogeneous": str(additive - lin),
            "additivity_implies_homogeneity": additive == lin}
    got = {k: out.get(k) for k in want}
    problems = [] if got == want else [f"scan {got} != closed forms {want}"]
    ce = out.get("counterexample")
    if additive == lin:
        if ce is not None:
            problems.append("counterexample over a prime field")
        return problems
    # the canonical first counterexample is the lexicographically smallest
    # non-homogeneous additive table
    dom, cod = Space(field, du), Space(field, dv)
    dvecs, cvecs = list(dom.vectors()), list(cod.vectors())
    didx = {v: i for i, v in enumerate(dvecs)}
    cidx = {v: i for i, v in enumerate(cvecs)}
    scaled = [[(didx[dom.scale(lam, v)], lam) for v in dvecs] for lam in field.elements()]
    best = None
    for table in _zp_linear_tables(field, dvecs, cidx, dv):
        homogeneous = all(
            table[j] == cidx[cod.scale(lam, cvecs[table[i]])]
            for row in scaled for i, (j, lam) in enumerate(row)
        )
        if not homogeneous and (best is None or table < best):
            best = table
    want_ce = {"field": job["field"], "domain_dim": du, "codomain_dim": dv,
               "map": {"kind": "table",
                       "entries": [[dom.fmt(v), cod.fmt(cvecs[t])]
                                   for v, t in zip(dvecs, best)]}}
    if ce != want_ce:
        problems.append(f"counterexample {ce} != canonical first {want_ce}")
    return problems


# ---------------------------------------------------------------------------
# rational proof trace
# ---------------------------------------------------------------------------

TRACE_LABELS = [
    "phi((m/n)x) = m*phi((1/n)x)",
    "phi(x) = n*phi((1/n)x)",
    "phi((1/n)x) = (1/n)*phi(x)",
    "phi((m/n)x) = (m/n)*phi(x)",
]


def trace_reference(spec, num, den, x_text):
    m = RefMap(spec)
    f = m.field
    x = m.dom.parse(x_text)
    lam, inv_n = f.embed(Fraction(num, den)), f.embed(Fraction(1, den))
    m_elt, n_elt = f.embed(num), f.embed(den)
    phi_lam_x = m(m.dom.scale(lam, x))
    phi_x = m(x)
    phi_x_n = m(m.dom.scale(inv_n, x))
    sides = [
        (phi_lam_x, m.cod.scale(m_elt, phi_x_n)),
        (phi_x, m.cod.scale(n_elt, phi_x_n)),
        (phi_x_n, m.cod.scale(inv_n, phi_x)),
        (phi_lam_x, m.cod.scale(lam, phi_x)),
    ]
    return [{"label": label, "lhs": m.cod.fmt(a), "rhs": m.cod.fmt(b),
             "equal": a == b} for label, (a, b) in zip(TRACE_LABELS, sides)]
