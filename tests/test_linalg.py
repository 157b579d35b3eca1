import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dense_linalg
from conftest import fractions_st
from hodgeloci.errors import DenominatorDivisibleByP
from hodgeloci.linalg import nullspace, rank, rref, solve


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


@settings(max_examples=300, deadline=None)
@given(system=systems_st(), sparse_rhs=st.booleans())
def test_sparse_elimination_matches_the_dense_oracle(system, sparse_rhs):
    p, rows, ncols, rhs = system
    b = {i: x for i, x in enumerate(rhs) if x} if sparse_rhs else rhs
    got = solve(rows, ncols, b, p=p)
    assert got == dense_linalg.solve(rows, ncols, rhs, p=p)
    if got is not None:
        assert all(type(x) is (int if p else Fraction) for x in got)
        dense = dense_linalg.densify(rows, ncols)
        residual = [r - b for r, b in zip(mat_vec(dense, got), rhs)]
        assert all((r % p if p else r) == 0 for r in residual)
    assert nullspace(rows, ncols, p=p) == dense_linalg.nullspace(rows, ncols, p=p)
    assert rref(rows, ncols, p=p) == dense_linalg.rref(rows, ncols, p=p)
    assert rank(rows, ncols, p=p) == dense_linalg.rank(rows, ncols, p=p)
