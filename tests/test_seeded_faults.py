"""A catalogue of seeded faults: each one patches one seam of the engine and
names what must catch it, a test or one of the engine's own checks, with
the message its AssertionError must match where that is pinned.  A fault
that its catcher lets pass shows a check that carries no weight; fix the
check, never loosen the assertion."""

import inspect
import textwrap
from fractions import Fraction

import pytest

import test_fields
import test_search
from addhom import fields, maps, search, spaces
from addhom.fields import ExtensionField, Rationals, parse_field
from addhom.search import SearchConfig, scan_additive_tables


def _mutated(func, old: str, new: str):
    """func compiled again in its own module, with the one occurrence of old
    in its source replaced by new; fails when old is no longer there."""
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1, f"{old!r} is not once in {func.__qualname__}"
    namespace = {}
    code = compile(src.replace(old, new), inspect.getsourcefile(func), "exec")
    exec(code, vars(inspect.getmodule(func)), namespace)
    return namespace[func.__name__]


def _ratio_sum_as_difference(mp):
    # the ratio's x + y formed as X dy - Y dx
    mp.setattr(maps.RatioMap, "evaluate", _mutated(
        maps.RatioMap.evaluate, "a * dy + b * dx", "a * dy - b * dx"))


def _ratio_fold_with_lead_one(mp):
    # the ratio's product folded as if the modulus denominator L were 1
    mp.setattr(ExtensionField, "mul_numerators",
               lambda self, a, b: fields._mulmod(a, b, self._numer, 1, 0))


def _draw_table_shifted(mp):
    # the rational draw table built from the numerators -8..10
    mp.setattr(Rationals, "_draws", tuple(
        Fraction(n, d) for n in range(-8, 11) for d in range(1, 10)))


def _draw_denominator_five_bits(mp):
    # the draw replay reads randint(1, 9) from 5 bits instead of 4
    mp.setattr(Rationals, "draw", _mutated(
        Rationals.draw, "getrandbits(4)", "getrandbits(5)"))


def _scale_drops_lambda_denominator(mp):
    # the Q(a) scalar action forgets the denominator lam was cleared over
    mp.setattr(ExtensionField, "scale", _mutated(
        ExtensionField.scale, "dl * dc", "dc"))


def _zp_sum_without_reduction(mp):
    # the inlined Z_p coefficient sum loses its % p
    mp.setattr(ExtensionField, "add", _mutated(
        ExtensionField.add, "(x + y) % p", "(x + y)"))


def _homogeneity_always_fails(mp):
    # the table scan's homogeneity test rejects every table
    mp.setattr(search._IndexTables, "is_homogeneous", lambda *a: False)


def _homogeneity_always_holds(mp):
    # A and H iff linear: a homogeneity test that always holds would publish
    # GF(4)'s contrast as the prime-field implication
    mp.setattr(search._IndexTables, "is_homogeneous", lambda *a: True)


def _lemma_stops_after_first_basis_vector(mp):
    # the additivity constraints of the first basis vector only
    init = search._IndexTables.__init__

    def forgetful_init(self, *args):
        init(self, *args)
        self.sums = [c for c in self.sums if c[1] == 1]

    mp.setattr(search._IndexTables, "__init__", forgetful_init)


def _g_row_without_zero_clause(mp):
    # homogeneity read off the g-row alone, phi(0) = 0 unchecked
    mp.setattr(search._IndexTables, "is_homogeneous", _mutated(
        search._IndexTables.is_homogeneous, "phi[0] == 0 and ", ""))


def _sum_table_factors_swapped(mp):
    # the codomain sum table's rows listed with the slowest coordinate last
    mp.setattr(search._IndexTables, "__init__", _mutated(
        search._IndexTables.__init__,
        "for f in frows for row in cadd", "for row in cadd for f in frows"))


def _log_rows_per_field_order(mp):
    # exp/log kept per field order, shared by fields under other moduli
    mp.setattr(spaces, "_by_order", {}, raising=False)
    mp.setattr(spaces.SpaceRows, "_logs", _mutated(
        spaces.SpaceRows._logs, "vars(self.field)", "_by_order.setdefault(self.q, {})"))


FAULTS = {  # fault: (seeded fault, its catcher, its parameters[, match])
    "ratio-sum-as-difference": (
        _ratio_sum_as_difference,
        test_fields.test_ratio_evaluate_matches_field_operations,
        {"field": parse_field("Qext:-2,0,0,1")},
    ),
    "ratio-fold-with-lead-one": (
        _ratio_fold_with_lead_one,
        test_fields.test_ratio_evaluate_matches_field_operations,
        {"field": parse_field("Qext:1/3,-2/5,7/2,1")},
    ),
    "draw-table-shifted": (
        _draw_table_shifted,
        test_fields.test_rational_draws_match_fraction_of_two_randints,
        {"seed": 7},
    ),
    "draw-denominator-five-bits": (
        _draw_denominator_five_bits,
        test_fields.test_rational_draws_match_fraction_of_two_randints,
        {"seed": 7},
    ),
    "scale-drops-lambda-denominator": (
        _scale_drops_lambda_denominator,
        test_fields.test_element_and_vector_kernels_match_base_field_operations,
        {"field": parse_field("Qext:-2,0,1")},
    ),
    "zp-sum-without-reduction": (
        _zp_sum_without_reduction,
        test_fields.test_element_and_vector_kernels_match_base_field_operations,
        {"field": parse_field("Fq:5:2,0,1")},
    ),
    "table-scan-homogeneity-always-fails": (
        _homogeneity_always_fails,
        scan_additive_tables,
        {"field": test_search.GF4, "du": 1, "dv": 1},
        "re-verification",
    ),
    "table-scan-homogeneity-always-holds": (
        _homogeneity_always_holds,
        scan_additive_tables,
        {"field": test_search.GF4, "du": 1, "dv": 1},
        "closed form",
    ),
    "lemma-stops-after-first-basis-vector-orbit-search": (
        _lemma_stops_after_first_basis_vector,
        search.search_homogeneous_nonadditive,
        {"config": SearchConfig(test_search.Z2, 3, 1)},
        "closed form",
    ),
    "lemma-stops-after-first-basis-vector-table-scan": (
        _lemma_stops_after_first_basis_vector,
        scan_additive_tables,
        {"field": test_search.Z3, "du": 2, "dv": 1},
        "closed form",
    ),
    "g-row-without-zero-clause": (
        _g_row_without_zero_clause,
        test_search.test_constraint_lists_match_table_oracles,
        {"field": test_search.Z2, "du": 2, "dv": 1},
    ),
    "sum-table-factors-swapped": (
        _sum_table_factors_swapped,
        test_search.test_constraint_lists_match_table_oracles,
        {"field": test_search.Z3, "du": 1, "dv": 2},
    ),
    "log-rows-per-field-order": (
        _log_rows_per_field_order,
        test_fields.test_log_rows_are_kept_per_field,
        {"moduli": ("Fq:2:1,1,0,1", "Fq:2:1,0,1,1")},
    ),
}


@pytest.mark.parametrize("name", FAULTS)
def test_seeded_fault_is_caught(name):
    fault, catcher, params, *match = FAULTS[name]
    with pytest.MonkeyPatch.context() as mp:
        if "monkeypatch" in inspect.signature(catcher).parameters:
            params = dict(params, monkeypatch=mp)
        fault(mp)
        with pytest.raises(AssertionError, match=match[0] if match else None):
            catcher(**params)
