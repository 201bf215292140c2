import inspect
import itertools
import json
from fractions import Fraction
from math import gcd

import pytest

from configs import (
    FIVE_SQUARES_10,
    FORCED_FIFTH_OSS,
    FORCED_FIFTH_SET,
    FOUR_SQUARES_10,
    FOUR_SQUARES_10_POINTS,
    THREE_SQUARES_9,
    THREE_SQUARES_9_POINTS,
    TWO_SQUARES_7,
)
import squarespan.realize
from squarespan.corpus import load_default_corpus
from squarespan.geometry import PointSet, count_squares
from squarespan.realize import (
    OrientedSquareSet,
    SolutionSpace,
    _form_on_space,
    build_system,
    degenerate_pairs,
    forced_squares,
    grid_embed,
    is_realizable,
    oss_from_pointset,
    parse_oss,
    rationalize,
    render_oss,
    solve_gauged,
    solve_space,
    strict_witness,
    verify_realization,
)


class TestOrientedSquareSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            OrientedSquareSet(order=4, squares=((1, 2, 3, 5),))  # label > order
        with pytest.raises(ValueError):
            OrientedSquareSet(order=4, squares=((1, 2, 2, 3),))  # repeat
        with pytest.raises(ValueError):
            OrientedSquareSet(order=4, squares=((2, 1, 3, 4),))  # not min-first
        with pytest.raises(ValueError):
            OrientedSquareSet(
                order=4, squares=((1, 2, 3, 4), (1, 2, 3, 4)))  # duplicate

    def test_from_pointset_unit_square(self):
        oss = oss_from_pointset(PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert oss.order == 4
        assert len(oss.squares) == 1
        a, b, c, d = oss.squares[0]
        assert a == 1  # min label first

    def test_from_pointset_forced_fifth(self):
        # Lex point order relabels, but the square count carries over.
        oss = oss_from_pointset(FORCED_FIFTH_SET)
        assert oss.order == 10
        assert len(oss.squares) == 5

    def test_custom_labeling_must_be_a_bijection(self):
        ps = PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError):
            oss_from_pointset(ps, labeling=[(0, 0), (1, 0), (0, 1)])

    def test_parse_render_round_trip(self):
        text = render_oss(FOUR_SQUARES_10)
        assert parse_oss(text) == FOUR_SQUARES_10

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_oss("5\n1 2 3 4\n")  # missing n= header
        with pytest.raises(ValueError):
            parse_oss("n=5\n1 2 3\n")  # wrong arity


class TestLinearSystem:
    def test_four_rows_per_square(self):
        rows = build_system(FOUR_SQUARES_10)
        assert len(rows) == 16
        # homogeneous: no entry under the right-hand-side key 20
        assert all(max(row) < 20 and len(row) == 4 for row in rows)

    def test_row_structure_single_square(self):
        oss = OrientedSquareSet(order=4, squares=((1, 2, 3, 4),))
        rows = build_system(oss)
        # closing condition on real parts: x1 - x2 + x3 - x4 = 0
        assert rows[0] == {0: 1, 2: -1, 4: 1, 6: -1}
        # and on imaginary parts: y1 - y2 + y3 - y4 = 0
        assert rows[1] == {1: 1, 3: -1, 5: 1, 7: -1}
        # quarter-turn conditions tie the fourth vertex to the second
        assert rows[2] == {0: -1, 1: -1, 3: 1, 6: 1}
        assert rows[3] == {0: 1, 1: -1, 2: -1, 7: 1}
        assert all(type(c) is Fraction for row in rows for c in row.values())

    def test_unconstrained_space_contains_translations(self):
        space = solve_space(FOUR_SQUARES_10)
        assert space.dimension >= 2


class TestSolutionDimensions:
    def test_two_squares_seven_labels_gauged_plane(self):
        assert solve_gauged(TWO_SQUARES_7).dimension == 2

    def test_extension_chain_dimensions(self):
        assert solve_space(THREE_SQUARES_9).dimension == 6
        assert solve_space(FOUR_SQUARES_10).dimension == 4
        assert solve_space(FIVE_SQUARES_10).dimension == 2

    def test_gauge_choice_does_not_change_dimension(self):
        base = solve_gauged(FOUR_SQUARES_10, gauge=(1, 3)).dimension
        # feeding the same squares in a different listed order
        reordered = OrientedSquareSet(
            order=10,
            squares=tuple(reversed(FOUR_SQUARES_10.squares)))
        assert solve_gauged(reordered, gauge=(1, 3)).dimension == base

    def test_gauge_on_collapsing_pair_rejected(self):
        # In the five-square system all labels coincide, so no pair can
        # be pinned apart.
        with pytest.raises(ValueError):
            solve_gauged(FIVE_SQUARES_10)

    @pytest.mark.parametrize("gauge", [(0, 1), (1, 9), (2, 2)])
    def test_gauge_labels_validated(self, gauge):
        # Labels outside 1..7 or a repeated label pin no valid pair.
        with pytest.raises(ValueError, match="distinct labels"):
            solve_gauged(TWO_SQUARES_7, gauge=gauge)

    @pytest.mark.parametrize("space", [
        pytest.param(lambda: solve_gauged(FOUR_SQUARES_10), id="gauged"),
        pytest.param(lambda: solve_space(TWO_SQUARES_7), id="other-order"),
        pytest.param(lambda: SolutionSpace(
            particular=(Fraction(0),) * 20, basis=(), gauge=()),
            id="no-pivot-rows"),
    ])
    def test_space_validated(self, space):
        # Only an unrestricted space of the same order can be continued.
        with pytest.raises(ValueError, match="unrestricted space"):
            solve_gauged(FOUR_SQUARES_10, gauge=(1, 3), space=space())

    def test_space_evaluation(self):
        space = solve_gauged(TWO_SQUARES_7)
        pts = space.points_at((1, 2))
        assert len(pts) == 7
        assert pts[0] == (Fraction(0), Fraction(0))
        # the gauge pins the first square's first two labels, here 1 and 4
        assert pts[3] == (Fraction(0), Fraction(1))


class TestCertificates:
    def test_realizable_chain(self):
        report = is_realizable(FOUR_SQUARES_10)
        assert report.realizable
        assert report.dimension == 4
        assert report.degenerate_pairs == ()
        assert report.witness is not None

    def test_non_realizable_certificate(self):
        report = is_realizable(FIVE_SQUARES_10)
        assert not report.realizable
        assert report.dimension == 2
        assert report.witness is None
        # every pair of labels collapses, a certificate of non-realizability
        assert len(report.degenerate_pairs) == 45

    def test_degenerate_pairs_machine_checkable(self):
        space = solve_space(FIVE_SQUARES_10)
        j, k = is_realizable(FIVE_SQUARES_10).degenerate_pairs[0]
        cols = lambda lbl: (2 * (lbl - 1), 2 * (lbl - 1) + 1)
        for axis in (0, 1):
            cj, ck = cols(j)[axis], cols(k)[axis]
            for vec in (space.particular, *space.basis):
                assert vec[cj] - vec[ck] == 0

    def test_forced_square(self):
        report = is_realizable(FORCED_FIFTH_OSS)
        assert report.realizable
        assert report.forced_squares == ((3, 9, 4, 6),)

    def test_no_forced_squares_in_four_square_chain(self):
        assert forced_squares(FOUR_SQUARES_10) == ()

    def test_non_realizable_reports_no_forced_squares(self):
        report = is_realizable(FIVE_SQUARES_10)
        assert report.forced_squares == ()
        assert json.loads(report.to_json())["forced_squares"] == []

    def test_square_free_system_is_realizable(self):
        oss = OrientedSquareSet(order=3, squares=())
        report = is_realizable(oss)
        assert report.realizable
        assert report.dimension == 6
        assert report.degenerate_pairs == ()
        assert report.forced_squares == ()
        assert verify_realization(oss, report.witness)
        assert verify_realization(oss, strict_witness(oss))

    def test_report_json(self):
        data = json.loads(is_realizable(FIVE_SQUARES_10).to_json())
        assert data["realizable"] is False
        assert data["dimension"] == 2
        assert len(data["degenerate_pairs"]) == 45

    def test_degenerate_pairs_empty_for_realizable(self):
        assert degenerate_pairs(THREE_SQUARES_9) == ()


def _cleared(points):
    scale = 1
    for x, y in points:
        for c in (x, y):
            scale = scale * c.denominator // gcd(scale, c.denominator)
    return PointSet.of((int(x * scale), int(y * scale)) for x, y in points)


class TestWitnesses:
    def test_witness_verifies(self):
        report = is_realizable(FOUR_SQUARES_10)
        assert verify_realization(FOUR_SQUARES_10, report.witness)

    def test_published_integer_realization(self):
        assert verify_realization(FOUR_SQUARES_10, FOUR_SQUARES_10_POINTS)
        assert verify_realization(THREE_SQUARES_9, THREE_SQUARES_9_POINTS)

    def test_verify_rejects_wrong_data(self):
        pts = list(FOUR_SQUARES_10_POINTS)
        assert not verify_realization(FOUR_SQUARES_10, pts[:9])  # too short
        swapped = pts.copy()
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert not verify_realization(FOUR_SQUARES_10, swapped)
        collapsed = pts.copy()
        collapsed[1] = collapsed[0]
        assert not verify_realization(FOUR_SQUARES_10, collapsed)

    def test_verify_rejects_reversed_orientation(self):
        oss = OrientedSquareSet(order=4, squares=((1, 2, 3, 4),))
        ccw = [(0, 0), (1, 0), (1, 1), (0, 1)]
        cw = [(0, 0), (0, 1), (1, 1), (1, 0)]
        assert verify_realization(oss, ccw)
        assert not verify_realization(oss, cw)

    def test_strict_witness_spans_no_extra_squares(self):
        assert count_squares(_cleared(strict_witness(FOUR_SQUARES_10))) == 4

    def test_strict_witness_keeps_forced_squares(self):
        # four prescribed plus one forced
        assert count_squares(_cleared(strict_witness(FORCED_FIFTH_OSS))) == 5

    def test_strict_witness_requires_realizability(self):
        with pytest.raises(ValueError):
            strict_witness(FIVE_SQUARES_10)

    def test_unverified_witness_raises(self, monkeypatch):
        monkeypatch.setattr(squarespan.realize, "verify_realization",
                            lambda oss, points: False)
        with pytest.raises(RuntimeError, match="geometric verification"):
            is_realizable(TWO_SQUARES_7)

    def test_unverified_strict_witness_raises(self, monkeypatch):
        monkeypatch.setattr(squarespan.realize, "verify_realization",
                            lambda oss, points: False)
        with pytest.raises(RuntimeError, match="geometric verification"):
            strict_witness(TWO_SQUARES_7)


class TestRationalize:
    @staticmethod
    def satisfied(params, groups):
        return all(any(const + sum(c * t for c, t in zip(lin, params))
                       for const, lin in group)
                   for group in groups)

    def test_single_form(self):
        space = solve_gauged(TWO_SQUARES_7)
        dim = space.dimension
        form = (Fraction(0), tuple(
            Fraction(1) if i == 0 else Fraction(0) for i in range(dim)))
        params = rationalize(space, [[form]])
        assert params == (1,) * dim  # B = 1 on the moment curve
        assert self.satisfied(params, [[form]])

    def test_vee_groups(self):
        space = solve_gauged(TWO_SQUARES_7)
        z = Fraction(0)
        one = Fraction(1)
        groups = [[(z, (one, z))], [(z, (z, one))], [(z, (one, -one))]]
        params = rationalize(space, groups)
        assert params == (2, 4)  # B = 0 and B = 1 each zero a form
        assert self.satisfied(params, groups)

    def test_bound_is_reached(self):
        # (B - 2)(B - 3) and B(B - 1) rule out B = 0..3, so the search
        # ends at B = dim * len(avoid) = 4, the last vector it may try.
        space = solve_gauged(TWO_SQUARES_7)
        groups = [[(Fraction(6), (Fraction(-5), Fraction(1)))],
                  [(Fraction(0), (Fraction(-1), Fraction(1)))]]
        assert rationalize(space, groups) == (4, 16)

    def test_identically_zero_group_rejected(self):
        space = solve_gauged(TWO_SQUARES_7)
        zero_form = (Fraction(0), (Fraction(0), Fraction(0)))
        with pytest.raises(ValueError):
            rationalize(space, [[zero_form]])


class TestOneElimination:
    """Each public call reduces the square system once: the gauged solve
    continues from the unrestricted space's pivot rows."""

    @pytest.fixture
    def full_reductions(self, monkeypatch):
        original = squarespan.realize._solve_affine
        signature = inspect.signature(original)
        count = [0]

        def counting(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if bound.arguments.get("pivots") is None:
                count[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(squarespan.realize, "_solve_affine", counting)
        return count

    @pytest.mark.parametrize("call", [is_realizable, strict_witness,
                                      grid_embed])
    @pytest.mark.parametrize("oss", [TWO_SQUARES_7, FORCED_FIFTH_OSS])
    def test_one_full_reduction_per_call(self, full_reductions, call, oss):
        call(oss)
        assert full_reductions[0] == 1


class TestOneTablePerSpace:
    """A solution space writes each label's point as two forms once: a
    realizable call with squares builds the unrestricted and the gauged
    table, 4 * order forms, and a non-realizable one only the first."""

    @pytest.fixture
    def forms(self, monkeypatch):
        original = squarespan.realize._form_on_space
        count = [0]

        def counting(*args):
            count[0] += 1
            return original(*args)

        monkeypatch.setattr(squarespan.realize, "_form_on_space", counting)
        return count

    @pytest.mark.parametrize("call", [is_realizable, strict_witness,
                                      grid_embed])
    @pytest.mark.parametrize(("oss", "expected"), [
        pytest.param(TWO_SQUARES_7, 28, id="two-squares-7"),
        pytest.param(FOUR_SQUARES_10, 40, id="four-squares-10"),
    ])
    def test_two_tables_when_realizable(self, forms, call, oss, expected):
        call(oss)
        assert forms[0] == expected

    def test_one_table_when_not_realizable(self, forms):
        assert not is_realizable(FIVE_SQUARES_10).realizable
        assert forms[0] == 20


class TestGridEmbedding:
    def test_single_square(self):
        oss = OrientedSquareSet(order=4, squares=((1, 2, 3, 4),))
        emb = grid_embed(oss)
        assert len(emb.points) == 4
        assert count_squares(emb.points) == 1
        assert not emb.exceeds_heuristic_bound

    def test_four_square_chain(self):
        emb = grid_embed(FOUR_SQUARES_10)
        assert len(emb.points) == 10
        assert count_squares(emb.points) >= 4
        assert emb.box_side >= 1
        assert not emb.exceeds_heuristic_bound

    def test_round_trip_from_point_set(self):
        oss = oss_from_pointset(FORCED_FIFTH_SET)
        emb = grid_embed(oss)
        assert count_squares(emb.points) >= count_squares(FORCED_FIFTH_SET)


# ---------------------------------------------------------------------------
# Reference solver and scans: dense elimination, every pair and every
# oriented 4-cycle, form by form.
# ---------------------------------------------------------------------------


def reference_solve_affine(n_vars, rows, rhs, gauge=()):
    """Dense exact elimination; a SolutionSpace, or None if inconsistent.
    Each row is reduced over every column against the pivot rows so far,
    which are kept in reduced row echelon form."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots: dict[int, list[Fraction]] = {}
    for row in aug:
        for col, piv in pivots.items():
            if row[col]:
                f = row[col]
                for i in range(n_vars + 1):
                    row[i] -= f * piv[i]
        lead = next((i for i in range(n_vars) if row[i]), None)
        if lead is None:
            if row[n_vars]:
                return None
            continue
        f = row[lead]
        for i in range(n_vars + 1):
            row[i] /= f
        for piv in pivots.values():
            if piv[lead]:
                g = piv[lead]
                for i in range(n_vars + 1):
                    piv[i] -= g * row[i]
        pivots[lead] = row
    free = [i for i in range(n_vars) if i not in pivots]
    particular = [Fraction(0)] * n_vars
    for col, piv in pivots.items():
        particular[col] = piv[n_vars]
    basis = []
    for f_col in free:
        vec = [Fraction(0)] * n_vars
        vec[f_col] = Fraction(1)
        for col, piv in pivots.items():
            vec[col] = -piv[f_col]
        basis.append(tuple(vec))
    return SolutionSpace(particular=tuple(particular), basis=tuple(basis),
                         gauge=tuple(gauge))


def dense_system(oss):
    """build_system's sparse rows as (n_vars, dense rows, right-hand
    sides) for the reference solver."""
    n_vars = 2 * oss.order
    rows = [[row.get(i, Fraction(0)) for i in range(n_vars)]
            for row in build_system(oss)]
    return n_vars, rows, [Fraction(0)] * len(rows)


def reference_gauged(oss, gauge):
    """The gauged space from one dense elimination of the square rows
    followed by the four gauge rows z_a = 0, z_b = i."""
    a, b = gauge
    n_vars, rows, rhs = dense_system(oss)
    zero, one = Fraction(0), Fraction(1)
    for col, val in ((2 * (a - 1), zero), (2 * (a - 1) + 1, zero),
                     (2 * (b - 1), zero), (2 * (b - 1) + 1, one)):
        rows.append(tuple(one if i == col else zero
                          for i in range(n_vars)))
        rhs.append(val)
    return reference_solve_affine(n_vars, rows, rhs,
                                  ((a, zero, zero), (b, zero, one)))


def _vanish_on(space, term_lists):
    for terms in term_lists:
        const, lin = _form_on_space(space, terms)
        if const or any(lin):
            return False
    return True


def _pair_terms(j, k):
    """The two real difference forms of z_j - z_k."""
    return tuple(((2 * (j - 1) + off, 1), (2 * (k - 1) + off, -1))
                 for off in (0, 1))


def _square_terms(quad):
    """The four real forms whose joint vanishing makes ``quad`` a square:
    z_a - z_b + z_c - z_d = 0 and z_d - z_a = i(z_b - z_a)."""
    a, b, c, d = quad
    return (
        ((2 * (a - 1), 1), (2 * (b - 1), -1), (2 * (c - 1), 1),
         (2 * (d - 1), -1)),
        ((2 * (a - 1) + 1, 1), (2 * (b - 1) + 1, -1), (2 * (c - 1) + 1, 1),
         (2 * (d - 1) + 1, -1)),
        ((2 * (d - 1), 1), (2 * (a - 1), -1), (2 * (b - 1) + 1, 1),
         (2 * (a - 1) + 1, -1)),
        ((2 * (d - 1) + 1, 1), (2 * (a - 1) + 1, -1), (2 * (b - 1), -1),
         (2 * (a - 1), 1)),
    )


def reference_degenerate_pairs(oss, space):
    return tuple(
        (j, k) for j, k in itertools.combinations(range(1, oss.order + 1), 2)
        if _vanish_on(space, _pair_terms(j, k)))


def reference_forced_squares(oss, space):
    present = set(oss.squares)
    out = []
    for sub in itertools.combinations(range(1, oss.order + 1), 4):
        for perm in itertools.permutations(sub[1:]):
            quad = (sub[0],) + perm
            if quad not in present and _vanish_on(space, _square_terms(quad)):
                out.append(quad)
    return tuple(out)


def _oracle_systems():
    """The worked examples and the maximal sets of the square records with
    5..11 points, each also without its last square and without its first
    and last squares."""
    full = {"two-squares-7": TWO_SQUARES_7,
            "three-squares-9": THREE_SQUARES_9,
            "four-squares-10": FOUR_SQUARES_10,
            "five-squares-10": FIVE_SQUARES_10,
            "forced-fifth-10": FORCED_FIFTH_OSS}
    for rec in load_default_corpus():
        if rec.family == "square" and 5 <= rec.n <= 11:
            full[rec.id] = oss_from_pointset(rec.point_set())
    out = {}
    for name, oss in full.items():
        sq = oss.squares
        for tag, kept in (("", sq), ("-last", sq[:-1]), ("-ends", sq[1:-1])):
            out[name + tag] = OrientedSquareSet(order=oss.order, squares=kept)
    return out


ORACLE_SYSTEMS = _oracle_systems()


class TestAgainstReferenceScans:
    def test_system_set(self):
        # The set reaches both a non-realizable system and forced squares.
        systems = ORACLE_SYSTEMS.values()
        assert len(systems) == 57
        assert any(degenerate_pairs(oss) for oss in systems)
        assert sum(1 for oss in systems if forced_squares(oss)) == 16

    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_space_matches_reference(self, name):
        expected = reference_solve_affine(*dense_system(ORACLE_SYSTEMS[name]))
        assert repr(solve_space(ORACLE_SYSTEMS[name])) == repr(expected)

    @pytest.mark.parametrize(("name", "gauge"), [
        *((name, None) for name in sorted(ORACLE_SYSTEMS)),
        ("four-squares-10", (1, 3)),
    ])
    def test_gauged_matches_reference(self, name, gauge):
        # Without a space and continued from a given unrestricted space;
        # five-squares-10 is inconsistent under its gauge.
        oss = ORACLE_SYSTEMS[name]
        if not oss.squares:
            with pytest.raises(ValueError, match="at least one square"):
                solve_gauged(oss)
            return
        expected = reference_gauged(oss, gauge or oss.squares[0][:2])
        for space in (None, solve_space(oss)):
            if expected is None:
                with pytest.raises(ValueError, match="inconsistent"):
                    solve_gauged(oss, gauge, space)
            else:
                assert repr(solve_gauged(oss, gauge, space)) == \
                    repr(expected)

    def test_inconsistent_gauge_reached(self):
        oss = ORACLE_SYSTEMS["five-squares-10"]
        assert reference_gauged(oss, oss.squares[0][:2]) is None

    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_scans_match_reference(self, name):
        oss = ORACLE_SYSTEMS[name]
        space = solve_space(oss)
        assert degenerate_pairs(oss, space) == \
            reference_degenerate_pairs(oss, space)
        assert forced_squares(oss, space) == \
            reference_forced_squares(oss, space)


class TestFreeLabels:
    """mixed-9-1's maximal set has one square and five free labels, so its
    gauged space has dimension 10."""

    @pytest.fixture(scope="class")
    def oss(self):
        rec = next(r for r in load_default_corpus() if r.id == "mixed-9-1")
        return oss_from_pointset(rec.point_set())

    def test_decided_and_witnessed(self, oss):
        assert solve_gauged(oss).dimension == 10
        report = is_realizable(oss)
        assert report.realizable
        assert verify_realization(oss, report.witness)

    def test_strict_witness(self, oss):
        pts = strict_witness(oss)
        assert verify_realization(oss, pts)
        assert count_squares(_cleared(pts)) == len(oss.squares) + len(
            forced_squares(oss))
