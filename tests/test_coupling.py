import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import loggas.coupling as coupling
from loggas import (
    ChargeVector,
    GraphSpec,
    TwoComponentSpec,
    from_charges,
    from_graph,
    from_matrix,
    from_two_component,
    parse_system,
    sample_gaussian_charges,
    sample_gaussian_couplings,
)
from loggas.errors import InputError
from loggas.rational import parse_number, tolerance

from conftest import exact_charge_tuples


def test_from_matrix_identity():
    c = from_matrix([[0, 1], [1, 0]])
    assert c.n == 2
    assert c.exact_entries[0][1] == 1
    assert c.is_exact


def test_from_matrix_rejects_asymmetric():
    with pytest.raises(InputError, match=r"entries \(0,1\) and \(1,0\) differ"):
        from_matrix([[0, 1], [2, 0]])
    # rational input is compared exactly, not to 1e-12
    with pytest.raises(InputError, match=r"entries \(0,1\) and \(1,0\) differ"):
        from_matrix([[0, 1000000000000001, -1], [1000000000000000, 0, 1], [-1, 1, 0]])
    # float input below scale 1 is compared relative to its largest coupling
    with pytest.raises(InputError, match=r"entries \(0,1\) and \(1,0\) differ"):
        from_matrix([[0, 1e-15, 2e-15], [3e-15, 0, -1e-15], [2e-15, -1e-15, 0]])


def test_from_matrix_rejects_nonzero_diagonal():
    with pytest.raises(InputError, match=r"entry \(0,0\) = 1 is nonzero"):
        from_matrix([[1, 1], [1, 0]])


def test_from_matrix_rejects_single_particle():
    with pytest.raises(InputError, match="need at least 2 particles, got n=1"):
        from_matrix([[0]])


def test_from_matrix_example_7_2_charges():
    c = from_matrix([[0, 100, 10], [100, 0, 10], [10, 10, 0]])
    k = from_charges(ChargeVector((10, 10, 1)))
    assert np.array_equal(c.entries, k.entries)
    assert c.exact_entries == k.exact_entries


def test_float_entries_do_not_promote():
    c = from_matrix([[0.0, 1.5], [1.5, 0.0]])
    assert not c.is_exact
    assert c.entries[0, 1] == 1.5


def test_float_grids_whose_pair_sum_overflows_are_refused():
    # each coupling is finite; the sum of |c_ij| over pairs i < j is not
    with pytest.raises(InputError, match=r"sum of \|c_ij\| over pairs i < j is beyond"):
        from_matrix([[0.0, 1e308, -1e308], [1e308, 0.0, 1e308], [-1e308, 1e308, 0.0]])
    with pytest.raises(InputError, match=r"sum of \|c_ij\| over pairs i < j is beyond"):
        from_charges(ChargeVector((1.1e154,) * 3 + (-1e154,) * 3))
    # one pair of 1e308 sums to a float, although the whole grid's sum does not
    assert from_matrix([[0.0, 1e308], [1e308, 0.0]]).entries[0, 1] == 1e308
    assert from_charges(ChargeVector((1e154, -1e154))).entries[0, 1] == -1e308


def test_from_charges_signs():
    c = from_charges(ChargeVector((1, 1, -1, -1)))
    assert c.exact_entries[0][1] == 1
    assert c.exact_entries[2][3] == 1
    assert c.exact_entries[0][2] == c.exact_entries[1][3] == -1


def test_from_charges_rejects_zero():
    with pytest.raises(InputError, match=r"charge k\[1\] is zero"):
        ChargeVector((2, 0))


def test_two_component_matches_charges_exactly():
    spec = TwoComponentSpec(2, 3, Fraction(3), Fraction(2))
    a = from_two_component(spec)
    b = from_charges(ChargeVector((Fraction(3),) * 2 + (Fraction(-2),) * 3))
    assert a.exact_entries == b.exact_entries
    assert np.array_equal(a.entries, b.entries)
    assert a.exact_entries[0][1] == 9
    assert a.exact_entries[2][3] == 4
    assert a.exact_entries[0][2] == -6


def test_two_component_1_2_2_1_block_values():
    c = from_two_component(TwoComponentSpec(1, 2, Fraction(2), Fraction(1)))
    assert c.exact_entries[0][1] == c.exact_entries[0][2] == -2
    assert c.exact_entries[1][2] == 1


def test_from_graph_k4_and_path():
    k4 = from_graph(GraphSpec(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))))
    off = k4.entries[np.triu_indices(4, k=1)]
    assert np.all(off == 1.0)
    path = from_graph(GraphSpec(3, ((0, 1), (1, 2))))
    assert path.exact_entries[0][1] == path.exact_entries[1][2] == 1
    assert path.exact_entries[0][2] == 0
    empty = from_graph(GraphSpec(3, ()))
    assert np.all(empty.entries == 0.0)


def test_graph_validation():
    with pytest.raises(InputError, match=r"edge \(0,0\) violates"):
        GraphSpec(3, ((0, 0),))
    with pytest.raises(InputError, match=r"edge \(1,0\) violates"):
        GraphSpec(3, ((1, 0),))
    with pytest.raises(InputError, match=r"duplicate edge \(0,1\)"):
        GraphSpec(3, ((0, 1), (0, 1)))


@given(exact_charge_tuples())
def test_charges_outer_product_structure(values):
    k = ChargeVector(values)
    c = from_charges(k)
    kf = k.as_floats()
    reconstructed = c.entries + np.diag(kf * kf)
    assert np.max(np.abs(reconstructed - np.outer(kf, kf))) <= 1e-12


@given(st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 5), st.integers(1, 5))
def test_two_component_round_trip(n1, n2, z1, z2):
    spec = TwoComponentSpec(n1, n2, Fraction(z1), Fraction(z2))
    a = from_two_component(spec)
    b = from_charges(spec.charges())
    assert a.exact_entries == b.exact_entries


def test_constructors_are_pure():
    a = from_matrix([[0, "1/3"], ["1/3", 0]])
    b = from_matrix([[0, "1/3"], ["1/3", 0]])
    assert np.array_equal(a.entries, b.entries)
    assert a.exact_entries == b.exact_entries


def test_gaussian_couplings_deterministic():
    a = sample_gaussian_couplings(4, 0.25, seed=1)
    b = sample_gaussian_couplings(4, 0.25, seed=1)
    assert np.array_equal(a.entries, b.entries)
    assert not a.is_exact


def test_gaussian_couplings_variance():
    c = sample_gaussian_couplings(1000, 1.0, seed=11)
    off = c.entries[np.triu_indices(1000, k=1)]
    assert abs(np.var(off) - 1.0) < 0.05


def test_gaussian_couplings_scaling():
    c = sample_gaussian_couplings(16, 1.0 / 16.0, seed=7)
    off = c.entries[np.triu_indices(16, k=1)]
    assert np.all(c.entries == c.entries.T)
    assert np.all(np.diag(c.entries) == 0.0)
    assert abs(np.var(off) - 1.0 / 16.0) < 0.05 * 1.0  # loose at 120 draws


def test_gaussian_charges_deterministic_and_nonzero():
    a = sample_gaussian_charges(4, seed=1)
    b = sample_gaussian_charges(4, seed=1)
    assert a.values == b.values
    assert all(v != 0 for v in a.values)


def test_gaussian_charges_moments():
    k = sample_gaussian_charges(10_000, seed=5).as_floats()
    assert abs(np.mean(k)) < 0.05
    assert abs(np.var(k) - 1.0) < 0.05


def test_parse_system_matrix_exact_strings():
    system = parse_system({"matrix": [[0, "1/2"], ["1/2", 0]]})
    assert system.coupling.is_exact
    assert system.coupling.exact_entries[0][1] == Fraction(1, 2)


def test_parse_system_exactly_one_key():
    with pytest.raises(InputError, match=r"exactly one of .* got \['matrix', 'charges'\]"):
        parse_system({"matrix": [[0, 1], [1, 0]], "charges": [1, -1]})
    with pytest.raises(InputError, match=r"exactly one of .* got \[\]"):
        parse_system({})


def test_parse_system_rejects_unknown_keys():
    with pytest.raises(InputError, match=r"unknown keys in input: \['extra'\]"):
        parse_system({"matrix": [[0, 1], [1, 0]], "extra": 1})
    with pytest.raises(InputError, match=r"unknown keys in graph: \['weights'\]"):
        parse_system({"graph": {"n": 3, "edges": [], "weights": []}})


def test_parse_system_random_models():
    a = parse_system({"random": {"model": "couplings", "n": 4, "variance": 0.25, "seed": 1}})
    b = sample_gaussian_couplings(4, 0.25, 1)
    assert np.array_equal(a.coupling.entries, b.entries)
    c = parse_system({"random": {"model": "charges", "n": 4, "seed": 2}})
    assert c.charges is not None
    with pytest.raises(InputError, match="random charges are standard normal; 'variance'"):
        parse_system({"random": {"model": "charges", "n": 4, "seed": 2, "variance": 2.0}})


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_from_matrix_integer_array_parses_like_lists(dtype):
    rows = [[0, 2, -3], [2, 0, 1], [-3, 1, 0]]
    a = from_matrix(np.array(rows, dtype=dtype))
    b = from_matrix(rows)
    assert a.is_exact
    assert a.exact_entries == b.exact_entries
    assert np.array_equal(a.entries, b.entries)


def test_from_matrix_float_array_stays_float():
    rows = [[0.0, 0.5, -1.25], [0.5, 0.0, 2.0], [-1.25, 2.0, 0.0]]
    a = from_matrix(np.array(rows, dtype=np.float64))
    assert not a.is_exact
    assert np.array_equal(a.entries, from_matrix(rows).entries)


def test_from_matrix_rejects_bool_array():
    with pytest.raises(InputError, match="expected a number, got False"):
        from_matrix(np.array([[False, True], [True, False]]))


def _reference_floats(upper):
    """Entry by entry: float(Fraction) of an exact entry, the upper triangle
    mirrored, +0.0 on the diagonal."""
    n = len(upper)
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v = upper[i][j]
            ref[i, j] = ref[j, i] = float(v) if isinstance(v, float) else float(Fraction(v))
    return ref


def _reference_exact(upper):
    n = len(upper)
    return tuple(tuple(Fraction(upper[min(i, j)][max(i, j)]) if i != j else Fraction(0)
                       for j in range(n)) for i in range(n))


def _assert_same_bits(entries, ref):
    assert np.array_equal(entries, ref)
    assert np.array_equal(np.signbit(entries), np.signbit(ref))


@pytest.mark.parametrize("rows,exact", [
    ([[0, "1/3", "-2/7"], ["1/3", 0, "1/10"], ["-2/7", "1/10", 0]], True),
    ([[0, "1/3", 0.1], ["1/3", 0, -7], [0.1, -7, 0]], False),
    ([[-0.0, -0.0, 1.5], [-0.0, 0.0, -0.0], [1.5, -0.0, 0.0]], False),
    ([[0, 0.1, 0.3], [0.10000000000000002, 0, -0.7], [0.3, -0.7000000000000001, 0]], False),
], ids=["rational", "mixed", "negative-zero", "within-tolerance"])
def test_from_matrix_floats_are_correctly_rounded(rows, exact):
    c = from_matrix(rows)
    _assert_same_bits(c.entries, _reference_floats(rows))
    assert c.exact_entries == (_reference_exact(rows) if exact else None)


@pytest.mark.parametrize("values", [
    (Fraction(1, 3), Fraction(2, 7), Fraction(-3, 10), Fraction(-1, 3), 5),
    (Fraction(1, 3), 0.1, Fraction(-3, 10), -7),
    (Fraction("1e-200"), Fraction("-1e-200"), 3),
    (0.1, 1 / 3, -0.7, -2.5, 1e-200, -1e-200),
], ids=["rational", "mixed", "underflow", "float"])
def test_from_charges_floats_are_correctly_rounded(values):
    k = ChargeVector(values)
    c = from_charges(k)
    if k.is_exact:  # the exact product, rounded once
        upper = [[Fraction(a) * Fraction(b) for b in values] for a in values]
    else:  # float products, as np.outer forms them
        upper = [[float(a) * float(b) for b in values] for a in values]
    _assert_same_bits(c.entries, _reference_floats(upper))
    assert c.exact_entries == (_reference_exact(upper) if k.is_exact else None)


@pytest.mark.parametrize("values", [
    (3, -1, -2, 7, -5),
    (Fraction(1, 3), Fraction(-2, 7), 5, Fraction(-11, 13)) * 25,
    (Fraction("1e-200"), Fraction("-1e-200"), 1, Fraction(-3, 7)),  # +-1e-400 is +-0.0
    (Fraction("1e150"), Fraction("1e-150"), -2, Fraction("1e-300"), Fraction(7, 3),
     Fraction(-1, 10**155)),
], ids=["integer", "rational", "underflow", "mixed-magnitude"])
def test_exact_charges_float_view_is_correctly_rounded(values):
    # each coupling rounded once from its exact product, signed zeros included
    view = parse_system({"charges": [str(Fraction(v)) for v in values]}).matrix("float")
    upper = [[Fraction(a) * Fraction(b) for b in values] for a in values]
    _assert_same_bits(view.entries, _reference_floats(upper))
    assert not view.is_exact and not view.entries.flags.writeable


@pytest.mark.parametrize("charges,message", [
    (["1e200", "-1e200"], "coupling (0,1) is beyond the float range"),
    (["1", "1e200", "2", "-1e200"], "coupling (1,3) is beyond the float range"),
    (["1e400", "1e-300", "3"], "coupling (0,2) is beyond the float range"),
    (["1e-200", "1e-200", "-1e-200"], "the couplings underflow the float range"),
    (["1.1e154"] * 3 + ["-1e154"] * 3,
     "the sum of |c_ij| over pairs i < j is beyond the float range"),
], ids=["1e200", "first-infinite-in-row-1", "1e400", "underflow", "pair-sum"])
def test_exact_charges_float_view_refuses_as_the_rational_grid_does(charges, message):
    parsed = parse_system({"charges": charges})
    with pytest.raises(InputError) as refusal:
        parsed.matrix("float")
    assert str(refusal.value).startswith(message)
    with pytest.raises(InputError) as through_grid:  # the float view of the rational grid
        parse_system({"matrix": from_charges(parsed.charges).exact_entries}).matrix("float")
    assert str(through_grid.value) == str(refusal.value)


def test_from_graph_floats_are_correctly_rounded():
    g = GraphSpec(5, ((0, 1), (1, 2), (0, 4), (3, 4)))
    upper = [[1 if (i, j) in g.edges else 0 for j in range(5)] for i in range(5)]
    c = from_graph(g)
    _assert_same_bits(c.entries, _reference_floats(upper))
    assert c.exact_entries == _reference_exact(upper)


_UNDERFLOWING = {"charges": ["1e-200", "1e-200", "-1e-200"]}  # exact couplings of 1e-400
_PAIR_SUM_BEYOND = {"charges": ["1.1e154"] * 3 + ["-1e154"] * 3}  # each float finite


@pytest.mark.parametrize("system,mode,expected", [
    ({"charges": [3, -1, -2]}, "exact", "own"),
    ({"charges": [3, -1, -2]}, "auto", "own"),
    ({"charges": [3, -1, -2]}, "float", "float view"),
    ({"charges": [3.0, -1.0, -2.0]}, "exact", "exact mode requires rational-expressible input"),
    ({"charges": [3.0, -1.0, -2.0]}, "auto", "own"),
    ({"charges": [3.0, -1.0, -2.0]}, "float", "own"),
    ({"matrix": [[0, 1.5], [1.5, 0]]}, "float", "own"),
    ({"random": {"model": "couplings", "n": 4, "seed": 1}}, "float", "own"),
    ({"matrix": [[0, 0], [0, 0]]}, "float", "float view"),  # no coupling to underflow
    (_UNDERFLOWING, "exact", "own"),
    (_UNDERFLOWING, "auto", "own"),
    (_UNDERFLOWING, "float", "the couplings underflow the float range"),
    (_PAIR_SUM_BEYOND, "auto", "own"),
    (_PAIR_SUM_BEYOND, "float", "the sum of |c_ij| over pairs i < j is beyond the float range"),
])
def test_system_matrix_of_each_mode(system, mode, expected):
    parsed = parse_system(system)
    # a matrix or sampled grid is kept at load; a charge input's is built on demand
    assert (parsed.coupling is None) == (parsed.charges is not None)
    c = parsed.coupling or from_charges(parsed.charges)
    if expected == "own":  # the input's own grid: kept, or built as from_charges builds it
        m = parsed.matrix(mode)
        if parsed.coupling is not None:
            assert m is c
        np.testing.assert_array_equal(m.entries, c.entries)
        assert m.exact_entries == c.exact_entries
    elif expected == "float view":  # the same floats, without the rational grid
        view = parsed.matrix(mode)
        assert c.is_exact and not view.is_exact
        np.testing.assert_array_equal(view.entries, c.entries)
        assert not view.entries.flags.writeable
    else:
        with pytest.raises(InputError) as refusal:
            parsed.matrix(mode)
        assert str(refusal.value).startswith(expected)


@pytest.mark.parametrize("mode", ["float", "mixed"])
def test_from_matrix_names_the_first_asymmetric_pair_in_row_major_order(mode):
    # two offending pairs, (1,3) and (2,0): row-major order names (0,2)
    # first, as the entry-by-entry scan did, with the same message
    m = [[0.0, 0.5, 0.25, 0.0], [0.5, 0.0, 0.0, 0.75], [0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]]
    if mode == "mixed":
        m[0][1] = m[1][0] = Fraction(1, 2)
    with pytest.raises(InputError) as refused:
        from_matrix(m)
    assert str(refused.value) == "entries (0,2) and (2,0) differ: 0.25 vs 0.5"
    m[2][0] = 0.25  # a nonzero diagonal entry in a later row comes after the next pair
    m[3][3] = 1.0
    with pytest.raises(InputError) as refused:
        from_matrix(m)
    assert str(refused.value) == "entries (1,3) and (3,1) differ: 0.75 vs 0.5"
    m[1][1] = 2.0  # ... and one in an earlier row before it
    with pytest.raises(InputError) as refused:
        from_matrix(m)
    assert str(refused.value) == "entry (1,1) = 2.0 is nonzero"


def _entry_by_entry(rows):
    """The float grid of a float or mixed matrix, or the InputError that
    refuses it, found entry by entry: ``parse_number`` on every entry, then
    the first diagonal entry or pair in row-major order of the upper
    triangle that breaks the rule, then the sum over pairs."""
    n = len(rows)
    parsed = [[parse_number(v) for v in r] for r in rows]
    floats = [[float(v) for v in r] for r in parsed]
    scale = max(abs(x) for r in floats for x in r)
    for i in range(n):
        if parsed[i][i] != 0:
            raise InputError(f"entry ({i},{i}) = {parsed[i][i]} is nonzero")
        for j in range(i + 1, n):
            a, b = floats[i][j], floats[j][i]
            if abs(a - b) > tolerance(1e-12, a, scale):
                raise InputError(f"entries ({i},{j}) and ({j},{i}) differ: {a} vs {b}")
    grid = np.array([[floats[min(i, j)][max(i, j)] if i != j else 0.0 for j in range(n)]
                     for i in range(n)])
    if math.isinf(sum(abs(floats[i][j]) for i in range(n) for j in range(i + 1, n))):
        raise InputError("the sum of |c_ij| over pairs i < j is beyond the float range")
    return grid


def _gaussian_float_rows(n=5):
    g = np.triu(np.random.default_rng(43).standard_normal((n, n)), 1)
    return (g + g.T).tolist()


def _edit(*changes):
    """A float grid with each (i, j, value) entry set."""
    def make():
        rows = _gaussian_float_rows()
        for i, j, v in changes:
            rows[i][j] = v
        return rows
    return make


@pytest.mark.parametrize("make", [
    _edit(),
    _edit((0, 2, math.nan), (2, 0, math.nan)),
    _edit((1, 3, math.inf), (3, 1, math.inf)),
    _edit((4, 0, -math.inf)),
    _edit((0, 1, True), (1, 0, True)),
    _edit((2, 3, 3), (3, 2, 3)),
    _edit((1, 2, "1/2"), (2, 1, "1/2")),
    _edit((2, 2, 0.5)),
    _edit((1, 3, 0.25), (3, 1, 0.75)),
    _edit((0, 3, -0.0), (3, 0, 0.0), (1, 4, 0.0), (4, 1, -0.0), (2, 2, -0.0)),
    lambda: np.array(_gaussian_float_rows(), dtype=np.float32),
    lambda: [[0.0 if i == j else 1e308 for j in range(3)] for i in range(3)],
], ids=["floats", "nan", "infinity", "-infinity", "true", "int", "ratio-string",
        "nonzero-diagonal", "asymmetric", "negative-zero", "float32", "pair-sum-overflow"])
def test_from_matrix_float_grids_load_as_entry_by_entry(make):
    # the same bytes (signs included) as the entry-by-entry oracle, or the
    # same refusal with the same message
    raw = make()
    rows = raw.tolist() if isinstance(raw, np.ndarray) else raw
    try:
        want = _entry_by_entry(rows)
    except InputError as refusal:
        with pytest.raises(InputError) as refused:
            from_matrix(raw)
        assert str(refused.value) == str(refusal)
    else:
        c = from_matrix(raw)
        assert not c.is_exact
        assert c.entries.tobytes() == want.tobytes()


def test_an_all_float_grid_never_parses_an_entry(monkeypatch):
    def refuse(value):
        raise AssertionError(f"parse_number({value!r})")

    monkeypatch.setattr(coupling, "parse_number", refuse)
    rows = _gaussian_float_rows(8)
    rows[0][3] = rows[3][0] = -0.0
    c = from_matrix(rows)
    assert c.entries.tobytes() == np.array(rows).tobytes()
    with pytest.raises(AssertionError, match="parse_number"):
        from_matrix([[0.0, 1], [1, 0.0]])
