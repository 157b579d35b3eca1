import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dense_linalg
from conftest import fractions_st
from hodgeloci.duals import nullspace, rank, rref, solve
from hodgeloci.errors import DenominatorDivisibleByP
from hodgeloci.linalg import solve_many


def sparse(rows):
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def mat_vec(rows, v):
    return [sum(Fraction(x) * y for x, y in zip(r, v)) for r in rows]


def test_single_row():
    assert nullspace(sparse([[1, 1]]), 2) == [(Fraction(1), Fraction(-1))]


def test_identity_has_trivial_nullspace():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace(sparse(ident), 3) == []


def test_rank_one_matrix():
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = nullspace(sparse(rows), 3)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(rows, v) == [0, 0]


def plain_rank(rows):
    # independent oracle: naive Fraction Gaussian elimination
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        rank += 1
    return rank


def test_random_matrices_annihilation_and_dimension():
    rng = random.Random(7)
    for _ in range(120):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ncols)]
                for _ in range(nrows)]
        basis = nullspace(sparse(rows), ncols)
        rk = plain_rank(rows)
        assert rk == rank(sparse(rows), ncols)
        assert len(basis) == ncols - rk
        for v in basis:
            assert all(x == 0 for x in mat_vec(rows, v))


def test_solve_consistent_and_inconsistent():
    a = [[1, 2], [3, 4]]
    x = solve(sparse(a), 2, [5, 6])
    assert mat_vec(a, x) == [5, 6]
    bad = [[1, 1], [2, 2]]
    assert solve(sparse(bad), 2, [1, 3]) is None
    assert solve(sparse(bad), 2, [1, 2]) is not None


def test_rref_canonical():
    rows = [[2, 4], [1, 2]]
    assert rref(sparse(rows), 2) == [(Fraction(1), Fraction(2))]


def test_modp_nullspace_and_solve():
    p = 7
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = nullspace(sparse(rows), 3, p=p)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(a * b for a, b in zip(r, v)) % p == 0 for r in rows)
    x = solve(sparse([[1, 2], [3, 4]]), 2, [5, 6], p=p)
    assert [(x[0] + 2 * x[1]) % p, (3 * x[0] + 4 * x[1]) % p] == [5, 6]
    assert solve(sparse([[1, 1], [2, 2]]), 2, [1, 3], p=p) is None


def test_modp_reads_rationals_as_residues():
    # 1/2 is 4 mod 7, so x = 1 / (1/2) = 2; a truncated entry would be 0
    assert solve([{0: Fraction(1, 2)}], 1, [1], p=7) == [2]
    assert solve([{0: 1}], 1, [Fraction(1, 2)], p=7) == [4]
    with pytest.raises(DenominatorDivisibleByP):
        solve([{0: Fraction(1, 7)}], 1, [1], p=7)


class TestValidation:
    def test_rhs_length_must_match_the_rows(self):
        # zip would drop the second equation and return [1]
        with pytest.raises(ValueError, match="right-hand sides"):
            solve([{0: 1}, {0: 1}], 1, [1])
        with pytest.raises(ValueError, match="right-hand sides"):
            solve([{0: 1}], 1, [1, 2], p=7)

    def test_sparse_rhs_rows_must_exist(self):
        with pytest.raises(ValueError, match="outside range"):
            solve([{0: 1}], 1, {1: 1})

    @pytest.mark.parametrize("col", [2, -1, "0"])
    @pytest.mark.parametrize("p", [None, 7])
    def test_column_outside_range(self, col, p):
        rows = [{0: 1}, {col: 1}]
        for call in (lambda: solve(rows, 2, [0, 0], p=p), lambda: nullspace(rows, 2, p=p),
                     lambda: rref(rows, 2, p=p), lambda: rank(rows, 2, p=p)):
            with pytest.raises(ValueError, match="outside range"):
                call()

    def test_empty_system(self):
        assert solve([], 3, []) == [Fraction(0)] * 3
        assert solve([], 2, {}, p=7) == [0, 0]
        assert nullspace([], 2) == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
        assert nullspace([], 2, p=7) == [(1, 0), (0, 1)]
        assert rref([], 2) == [] and rank([], 2, p=7) == 0

    def test_inputs_are_not_modified(self):
        rows = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 1: Fraction(3)}]
        copy = [dict(r) for r in rows]
        solve(rows, 2, [1, 1])
        rref(rows, 2)
        assert rows == copy


@st.composite
def systems_st(draw):
    """Up to 7 x 7 systems over Q or GF(7): random, rank-deficient or all-zero,
    with a right-hand side that is random (often inconsistent) or in the span."""
    p = draw(st.sampled_from([None, 7]))
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = fractions_st(6, 4) if p is None else st.integers(-20, 20)
    sparse_entry = st.one_of(st.just(0), entry)
    kind = draw(st.sampled_from(["random", "rank_deficient", "zero"]))
    if kind == "zero":
        dense = [[0] * ncols for _ in range(nrows)]
    elif kind == "random":
        dense = [[draw(sparse_entry) for _ in range(ncols)] for _ in range(nrows)]
    else:
        basis = [[draw(sparse_entry) for _ in range(ncols)]
                 for _ in range(draw(st.integers(1, 3)))]
        dense = []
        for _ in range(nrows):
            coeffs = [draw(st.integers(-2, 2)) for _ in basis]
            dense.append([sum(a * b[j] for a, b in zip(coeffs, basis)) for j in range(ncols)])
    if draw(st.booleans()):
        rhs = [draw(sparse_entry) for _ in range(nrows)]
    else:
        x = [draw(entry) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in dense]
    return p, sparse(dense), ncols, rhs


def assert_matches_the_dense_oracle(p, rows, ncols, rhs, sparse_rhs=False):
    """solve, nullspace, rref and rank equal the dense oracle's, a solution
    solves the system, and every entry is an int over GF(p); over Q a
    solution entry is an int where it is integral and a Fraction otherwise,
    and every other entry is a Fraction."""
    scalar = int if p else Fraction
    b = {i: x for i, x in enumerate(rhs) if x} if sparse_rhs else rhs
    got = solve(rows, ncols, b, p=p)
    assert got == dense_linalg.solve(rows, ncols, rhs, p=p)
    if got is not None:
        dense = dense_linalg.densify(rows, ncols)
        residual = [r - b for r, b in zip(mat_vec(dense, got), rhs)]
        assert all((r % p if p else r) == 0 for r in residual)
    basis = nullspace(rows, ncols, p=p)
    assert basis == dense_linalg.nullspace(rows, ncols, p=p)
    reduced = rref(rows, ncols, p=p)
    assert reduced == dense_linalg.rref(rows, ncols, p=p)
    assert all(type(x) is scalar for vec in basis + reduced for x in vec)
    assert all(type(x) is (int if p or x.denominator == 1 else Fraction) for x in got or ())
    assert rank(rows, ncols, p=p) == dense_linalg.rank(rows, ncols, p=p) == len(reduced)


@settings(max_examples=300, deadline=None)
@given(system=systems_st(), sparse_rhs=st.booleans())
def test_sparse_elimination_matches_the_dense_oracle(system, sparse_rhs):
    assert_matches_the_dense_oracle(*system, sparse_rhs=sparse_rhs)


@st.composite
def large_systems_st(draw):
    """Sparse systems of up to 25 x 25 with numerators up to 10^12 and, over Q,
    denominators up to 10^6: random, rank-deficient (integer combinations of a
    few sparse rows) or all-zero, with a right-hand side that is random (often
    inconsistent) or in the span.  Over GF(p) the entries are integers.  The
    shape is drawn; the entries come from a drawn seed, so that a system is
    as full as its density says."""
    p = draw(st.sampled_from([None, None, 101, 2 ** 61 - 1]))
    nrows, ncols = draw(st.integers(0, 25)), draw(st.integers(0, 25))
    density = draw(st.sampled_from([0.05, 0.15, 0.4]))
    kind = draw(st.sampled_from(["random", "rank_deficient", "zero"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def entry():
        num = rng.randint(-10 ** 12, 10 ** 12)
        return num if p else Fraction(num, rng.randint(1, 10 ** 6))

    def sparse_row():
        return {j: entry() for j in range(ncols) if rng.random() < density}

    if kind == "zero":
        rows = [{} for _ in range(nrows)]
    elif kind == "random":
        rows = [sparse_row() for _ in range(nrows)]
    else:
        basis = [sparse_row() for _ in range(rng.randint(1, 4))]
        rows = []
        for _ in range(nrows):
            row = {}
            for b in basis:
                a = rng.randint(-3, 3)
                for j, x in b.items():
                    row[j] = row.get(j, 0) + a * x
            rows.append({j: x for j, x in row.items() if x})
    if draw(st.booleans()):
        rhs = [entry() if rng.random() < 0.5 else 0 for _ in range(nrows)]
    else:
        x = [entry() for _ in range(ncols)]
        rhs = [sum((a * x[j] for j, a in row.items()), 0) for row in rows]
    return p, rows, ncols, rhs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=large_systems_st())
def test_large_sparse_systems_match_the_dense_oracle(system):
    assert_matches_the_dense_oracle(*system)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(system=large_systems_st().filter(lambda s: s[0] is None))
def test_rref_and_solve_match_sympy(system):
    """An elimination written elsewhere: sympy's exact ``Matrix.rref``."""
    sympy = pytest.importorskip("sympy")
    _, rows, ncols, rhs = system
    if not (rows and ncols):
        return

    def to_sympy(x):
        x = Fraction(x)
        return sympy.Rational(x.numerator, x.denominator)

    def rows_of(mat, count):
        return [tuple(Fraction(int(x.p), int(x.q)) for x in mat.row(i)) for i in range(count)]

    dense = dense_linalg.densify(rows, ncols)
    reduced, pivots = sympy.Matrix([[to_sympy(x) for x in r] for r in dense]).rref()
    assert rref(rows, ncols) == rows_of(reduced, len(pivots))
    aug = [[to_sympy(x) for x in r + [b]] for r, b in zip(dense, rhs)]
    reduced, pivots = sympy.Matrix(aug).rref()
    want = None
    if ncols not in pivots:  # else a pivot in the augmented column: inconsistent
        want = [Fraction(0)] * ncols
        for c, row in zip(pivots, rows_of(reduced, len(pivots))):
            want[c] = row[ncols]
    assert solve(rows, ncols, rhs) == want


@st.composite
def several_rhs_st(draw):
    """A system of ``large_systems_st`` with up to five more right-hand sides,
    each in the span of the columns (consistent), random (most often
    inconsistent) or zero, in a drawn order, some of them sparse mappings."""
    p, rows, ncols, rhs = draw(large_systems_st())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def entry():
        num = rng.randint(-10 ** 9, 10 ** 9)
        return num if p else Fraction(num, rng.randint(1, 10 ** 4))

    rhss = [rhs]
    for kind in draw(st.lists(st.sampled_from(["span", "random", "zero"]), max_size=5)):
        if kind == "span":
            x = [entry() for _ in range(ncols)]
            b = [sum((a * x[j] for j, a in row.items()), 0) for row in rows]
        elif kind == "random":
            b = [entry() if rng.random() < 0.5 else 0 for _ in rows]
        else:
            b = [0] * len(rows)
        rhss.append({i: x for i, x in enumerate(b) if x} if rng.random() < 0.5 else b)
    rng.shuffle(rhss)
    return p, rows, ncols, rhss


@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=several_rhs_st())
def test_one_elimination_equals_one_solve_per_right_hand_side(system):
    p, rows, ncols, rhss = system
    got = solve_many(rows, ncols, rhss, p=p)
    assert got == [solve(rows, ncols, b, p=p) for b in rhss]
    assert got == dense_linalg.solve_many(rows, ncols, rhss, p=p)


def test_solve_many_mixes_consistent_and_inconsistent_columns():
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}, {1: Fraction(1, 2)}]
    # x + y = b0, 2x + 2y = b1, y/2 = b2: consistent exactly when b1 = 2 b0
    rhss = [[1, 2, 1], [1, 3, 1], {2: 3}, [0, 0, 0], {0: 5, 1: 10}]
    assert solve_many(rows, 2, rhss) == [[Fraction(-1), Fraction(2)], None,
                                         [Fraction(-6), Fraction(6)],
                                         [Fraction(0), Fraction(0)],
                                         [Fraction(5), Fraction(0)]]
    assert solve_many(rows, 2, rhss, p=7) == [[6, 2], None, [1, 6], [0, 0], [5, 0]]
    assert solve_many(rows, 2, []) == []


def test_integer_and_fraction_entries_give_the_same_answers():
    """Over Q an entry may be an int or a Fraction; their values are all that count."""
    ints = [{0: 2, 1: 3}, {0: 4, 2: -1}]
    fracs = [{j: Fraction(x) for j, x in row.items()} for row in ints]
    for p in (None, 5):
        assert solve(ints, 3, [1, 2], p=p) == solve(fracs, 3, [Fraction(1), Fraction(2)], p=p)
        assert nullspace(ints, 3, p=p) == nullspace(fracs, 3, p=p)
        assert rref(ints, 3, p=p) == rref(fracs, 3, p=p)
