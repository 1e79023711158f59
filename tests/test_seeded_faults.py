"""A catalogue of seeded faults: each one patches one seam of the engine and
names what must catch it, a test or one of the engine's own checks, with
the message its AssertionError must match where that is pinned.  A fault
that its catcher lets pass shows a check that carries no weight; fix the
check, never loosen the assertion."""

import inspect
import textwrap
from fractions import Fraction

import pytest

import test_cli
import test_fields
import test_maps
import test_search
import test_spaces
from addhom import fields, maps, search, spaces
from addhom.fields import ExtensionField, Rationals, parse_field
from addhom.maps import EXHAUSTIVE, TableMap, check_additive, check_homogeneous
from addhom.search import SearchConfig, scan_additive_tables
from addhom.spaces import SpaceRows, VectorSpace


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
    # the sum table's rows listed with the slowest digit last
    mp.setattr(SpaceRows, "sums", _mutated(
        SpaceRows.sums, "for z in zp for row in table", "for row in table for z in zp"))


def _log_rows_per_field_order(mp):
    # exp/log kept per field order, shared by fields under other moduli
    mp.setattr(spaces, "_by_order", {}, raising=False)
    mp.setattr(spaces.SpaceRows, "_logs", _mutated(
        spaces.SpaceRows._logs, "vars(self.field)", "_by_order.setdefault(self.q, {})"))


def _search_swaps_a_linear_map(mp):
    # the search takes its last linear map for non-additive and its last
    # non-additive one for additive; the table scan, whose tables have no
    # orbit tables (no reps), keeps the true test
    field, du, dv = test_search.Z3, 2, 1
    tables = search._IndexTables(VectorSpace(field, du), VectorSpace(field, dv), True)
    walked = [tuple(phi) for phi in
              tables.walk(len(tables.reps), tables.phi_from_assignment)]
    additive = [phi for phi in walked if tables.is_additive(phi)]
    nonadditive = [phi for phi in walked if phi not in additive]
    linear, swapped = additive[-1], nonadditive[-1]
    assert walked.index(linear) > walked.index(nonadditive[0])
    is_additive = search._IndexTables.is_additive

    def faulty(self, phi):
        if not hasattr(self, "reps"):
            return is_additive(self, phi)
        return tuple(phi) == swapped or (tuple(phi) != linear and is_additive(self, phi))

    clean = search.search_homogeneous_nonadditive(SearchConfig(field, du, dv))
    mp.setattr(search._IndexTables, "is_additive", faulty)
    # every count, closed form and re-verification passes under the fault ...
    result, report, by_search, by_scan = test_search._linear_index_tables(
        mp, field, du, dv)
    assert result.to_dict() == clean.to_dict()
    assert report.additive_count - report.additive_nonhomogeneous_count == 9
    assert len(by_search) == len(by_scan) == 9
    # ... and only the set comparison sees the swap
    assert by_search ^ by_scan == {linear, swapped}


# phi(v) = (v_0^2,) on Z_3^2 is neither additive nor homogeneous
_SQUARE_DOMAIN = VectorSpace(test_search.Z3, 2)
SQUARE = TableMap(_SQUARE_DOMAIN, VectorSpace(test_search.Z3, 1),
                  {v: (v[0] * v[0] % 3,) for v in _SQUARE_DOMAIN.vectors()})


def _rank_row_entry_wrong(check, row, at):
    # Entry 3 of SpaceRows.add(0) or .act(1) set from 3 to 1 makes the pair
    # (v_0, v_3), or (1, v_3), fail on ranks before the first real failure;
    # that pair holds on field elements, so the scan must raise, not pass phi
    def fault(mp):
        assert check(SQUARE, EXHAUSTIVE).verdict == "violated"
        build = getattr(SpaceRows, row)

        def corrupted(self, i):
            out = list(build(self, i))
            if i == at:
                out[3] = 1
            return out

        mp.setattr(SpaceRows, row, corrupted)
    return fault


def _orbit_keys_unchecked(mp):
    # the orbit table's key comparison dropped, its count check left alone
    mp.setattr(maps.OrbitTableMap, "__init__", _mutated(
        maps.OrbitTableMap.__init__, "values.keys() != set(domain.orbits())", "False"))


def _orbits_kept_per_field(mp):
    # the representatives kept on the field, shared by its spaces of every dimension
    mp.setattr(spaces.VectorSpace, "orbits", _mutated(
        spaces.VectorSpace.orbits, "vars(self)", "vars(self.field)"))


def _orbit_powers_shifted(mp):
    # orbit_of names g^k*rep with the codomain action of g^(k+1): the powers
    # of g iterated from g's action instead of the identity
    mp.setattr(search._IndexTables, "__init__", _mutated(
        search._IndexTables.__init__, "act = list(range(len(cadd)))", "act = self.gact"))


def _digit_step_without_carry(mp):
    # i + p^k left unreduced where digit k of i is p - 1
    mp.setattr(SpaceRows, "steps", _mutated(
        SpaceRows.steps,
        "row += range(b, b + e)", "row += range(b + p * e, b + p * e + e)"))


def _steps_over_field_digits_only(mp):
    # the basis steps of the first coordinate's digits only, as if dim were 1
    mp.setattr(SpaceRows, "steps", _mutated(
        SpaceRows.steps, "range(self.digits * self.dim)", "range(self.digits)"))


def _first_rank_scan_from_two(mp):
    # the orbit ranks of j free coordinates start one past q^j, so the
    # representative (0, ..., 0, 1, 0, ..., 0) names no orbit
    mp.setattr(VectorSpace, "orbit_ranks", _mutated(
        VectorSpace.orbit_ranks, "range(q**j, 2 * q**j)", "range(q**j + 1, 2 * q**j)"))


def _g_is_the_identity(mp):
    # the primitive element read as exp[0] = 1, so every table commutes with
    # g; the source _mutated compiles keeps its @property
    mp.setattr(SpaceRows, "g", _mutated(SpaceRows.g.fget, "[1 % (self.q - 1)]", "[0]"))


def _field_sums_one_digit_short(mp):
    # the sum table built over one Z_p digit fewer than d*dim
    mp.setattr(SpaceRows, "sums", _mutated(
        SpaceRows.sums,
        "range(self.digits * self.dim - 1)", "range(self.digits * self.dim - 2)"))


def _plan_reversed(mp):
    # the table scan fills its fixed positions from the top down, before the
    # positions they are read off; a plan left unsorted is no fault, as the
    # constraint order already lists each position after the ones it reads.
    # Its catcher must reach the scan by its module name, as
    # verify_theorem1_prime does.
    mp.setattr(search, "scan_additive_tables", _mutated(
        search.scan_additive_tables, "sorted(fixed.items())",
        "sorted(fixed.items(), reverse=True)"))


def _rank_table_resumes_one_late(mp):
    # an input whose evaluate raised is tabulated as rank 0, so the next
    # check resumes one rank late and never evaluates that input
    extend = maps._RankTable._extend

    def late(self, evaluate, n):
        try:
            extend(self, evaluate, n)
        except Exception:
            for col in self.cols:
                col.append(0)
            raise

    mp.setattr(maps._RankTable, "_extend", late)


def _orbit_count_from_all_vectors(mp):
    # the orbit count N read as q^du // (q - 1): the same for q > 2, as
    # q^du = 1 mod q - 1, but over Z_2 the zero vector counts as an orbit
    mp.setattr(VectorSpace, "orbit_count", _mutated(
        VectorSpace.orbit_count.fget, "(self.size - 1)", "self.size"))


def _codomain_sums_by_rows(mp):
    # the codomain sum table guarded by its q^dv rows, not its q^(2*dv) entries
    mp.setattr(search, "_guarded_tables", _mutated(
        search._guarded_tables, "q ** (2 * dv)", "q ** dv"))


def _last_free_position_dropped(mp):
    # the table scan never walks its last free position, which stays 0; its
    # catcher reaches the scan through the CLI, as verify_theorem1_prime does
    mp.setattr(search, "scan_additive_tables", _mutated(
        search.scan_additive_tables, "if k not in fixed]", "if k not in fixed][:-1]"))


def _sample_budget_ignores_degree(mp):
    # a sampled check bounded by samples * dim, as if every field were Q or Z_p
    mp.setattr(maps, "_resolve_strategy", _mutated(
        maps._resolve_strategy, "m.domain.field.degree", "1"))


def _sampled_guard_exclusive(mp):
    # a sampled check of exactly the limit refused
    mp.setattr(maps, "_resolve_strategy", _mutated(
        maps._resolve_strategy, "strategy.samples > limit", "strategy.samples >= limit"))


def _gf_scale_without_reduction(mp):
    # the GF(p^d) product kernel, behind mul and scale, loses its % p
    mp.setattr(ExtensionField, "scale", _mutated(
        ExtensionField.scale, "[n % p for n in _mulmod", "[n for n in _mulmod"))


def _contains_ignores_length(mp):
    # vector membership takes a tuple of any length
    mp.setattr(VectorSpace, "contains", _mutated(
        VectorSpace.contains, "len(v) == self.dim", "True"))


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
    "search-swaps-a-linear-map": (
        _search_swaps_a_linear_map,
        test_search.test_both_engines_reach_the_same_linear_maps,
        {"field": test_search.Z3, "du": 2, "dv": 1, "linear": 9},
    ),
    "rank-row-add-entry-wrong": (
        _rank_row_entry_wrong(check_additive, "add", 0),
        check_additive,
        {"m": SQUARE, "strategy": EXHAUSTIVE},
    ),
    "rank-row-act-entry-wrong": (
        _rank_row_entry_wrong(check_homogeneous, "act", 1),
        check_homogeneous,
        {"m": SQUARE, "strategy": EXHAUSTIVE},
    ),
    "orbit-keys-unchecked": (
        _orbit_keys_unchecked,
        test_maps.test_orbit_table_reports_a_bad_key_before_an_off_space_value,
        {"order": (0, 1, 2)},
        "off-space",
    ),
    "orbits-kept-per-field": (
        _orbits_kept_per_field,
        test_spaces.test_spaces_never_share_an_orbit_list,
        {},
    ),
    "orbit-powers-shifted": (
        _orbit_powers_shifted,
        test_search.test_search_matches_orbit_bruteforce,
        {"field": test_search.Z3, "du": 2, "dv": 1},
    ),
    "digit-step-without-carry": (
        _digit_step_without_carry,
        test_search.test_index_tables_match_vector_arithmetic,
        {"field": test_search.Z3, "du": 1, "dv": 1},
    ),
    "steps-over-field-digits-only": (
        _steps_over_field_digits_only,
        test_search.test_index_tables_match_vector_arithmetic,
        {"field": test_search.Z3, "du": 2, "dv": 1},
    ),
    "first-rank-scan-from-two": (
        _first_rank_scan_from_two,
        test_search.test_index_tables_match_vector_arithmetic,
        {"field": test_search.Z3, "du": 1, "dv": 1},
    ),
    "g-is-the-identity": (
        _g_is_the_identity,
        scan_additive_tables,
        {"field": test_search.GF4, "du": 1, "dv": 1},
        "closed form",
    ),
    "field-sums-one-digit-short": (
        _field_sums_one_digit_short,
        test_search.test_index_tables_match_vector_arithmetic,
        {"field": test_search.GF4, "du": 1, "dv": 1},
    ),
    "table-scan-plan-reversed": (
        _plan_reversed,
        search.verify_theorem1_prime,
        {"field": test_search.Z3, "du": 2, "dv": 1},
        "closed form",
    ),
    "rank-table-resumes-one-late": (
        _rank_table_resumes_one_late,
        test_maps.test_check_after_a_raising_evaluate_matches_a_fresh_map,
        {"prop": "additive"},
    ),
    "orbit-count-from-all-vectors": (
        _orbit_count_from_all_vectors,
        test_search.test_guard_limit_is_inclusive,
        {},
    ),
    "codomain-sums-by-rows": (
        _codomain_sums_by_rows,
        test_search.test_codomain_sum_guard_admits_its_real_limit,
        {},
    ),
    "last-free-position-dropped": (
        _last_free_position_dropped,
        test_cli.test_verify_theorem1,
        {},
        "closed form",
    ),
    "sample-budget-ignores-degree": (
        _sample_budget_ignores_degree,
        test_maps.test_sampled_limit_is_the_budget_over_dim_times_degree,
        {},
    ),
    "sampled-guard-exclusive": (
        _sampled_guard_exclusive,
        test_maps.test_sampled_guard_admits_its_real_limit,
        {},
    ),
    "gf-scale-without-reduction": (
        _gf_scale_without_reduction,
        test_fields.test_element_and_vector_kernels_match_base_field_operations,
        {"field": parse_field("Fq:5:2,0,1")},
    ),
    "contains-ignores-length": (
        _contains_ignores_length,
        test_fields.test_membership_verdicts_and_messages,
        {"field": parse_field("Fq:5:2,0,1")},
    ),
}


@pytest.mark.parametrize("name", FAULTS)
def test_seeded_fault_is_caught(name, tmp_path, capsys):
    fault, catcher, params, *match = FAULTS[name]
    with pytest.MonkeyPatch.context() as mp:
        fixtures = {"monkeypatch": mp, "tmp_path": tmp_path, "capsys": capsys}
        wanted = inspect.signature(catcher).parameters
        params = dict(params, **{k: v for k, v in fixtures.items() if k in wanted})
        fault(mp)
        with pytest.raises(AssertionError, match=match[0] if match else None):
            catcher(**params)
