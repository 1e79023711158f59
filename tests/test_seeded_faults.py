"""A catalogue of seeded faults: each one patches one seam of the engine and
names the test that must catch it.  A fault that its test lets pass shows a
check that carries no weight; fix the check, never loosen the assertion."""

import inspect
import textwrap
from fractions import Fraction

import pytest

import test_fields
from addhom import fields, maps
from addhom.fields import ExtensionField, Rationals, parse_field


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


FAULTS = {  # fault: (seeded fault, the test that catches it, its parameters)
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
}


@pytest.mark.parametrize("name", FAULTS)
def test_seeded_fault_is_caught(name):
    fault, catcher, params = FAULTS[name]
    with pytest.MonkeyPatch.context() as mp:
        if "monkeypatch" in inspect.signature(catcher).parameters:
            params = dict(params, monkeypatch=mp)
        fault(mp)
        with pytest.raises(AssertionError):
            catcher(**params)
