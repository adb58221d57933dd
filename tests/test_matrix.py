import random
from itertools import combinations, permutations

import pytest

import gprs.matrix as matrix_module
from gprs.codes import GprsCode, _minor_tables
from gprs.galois import field, field_of_order
from gprs.matrix import (
    Matrix,
    MdsCheckResult,
    column_minors,
    det_enc,
    det_stack,
    first_singular_column_subset,
    mds_generator_check,
    subset_runs,
    vandermonde_det,
)


# -- independent oracle: cofactor expansion ------------------------------------


def _cofactor_det(f, grid):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    acc = 0
    sign_positive = True
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
        term = f.mul_enc(grid[0][j], _cofactor_det(f, minor))
        acc = f.add_enc(acc, term if sign_positive else f.neg_enc(term))
        sign_positive = not sign_positive
    return acc


def _vandermonde_grid(f, encs):
    """Moment matrix with rows 1, x, ..., x^(n-1) on the given points."""
    return [[f.pow_enc(e, power) for e in encs] for power in range(len(encs))]


def _permute_columns(grid, perm):
    return [[row[j] for j in perm] for row in grid]


def test_identity_determinant():
    f = field(5)
    m = Matrix(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.determinant() == f.one


def test_equal_columns_give_zero():
    f = field(5)
    m = Matrix(f, [[2, 2, 1], [3, 3, 0], [4, 4, 2]])
    assert m.determinant() == f.zero


def test_vandermonde_example_over_f5():
    f = field(5)
    pts = [f.element(e) for e in (1, 2, 3)]
    assert vandermonde_det(pts) == f.element(2)
    vm = _vandermonde_grid(f, [1, 2, 3])
    assert det_enc(f, vm) == 2
    assert _cofactor_det(f, vm) == 2


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_determinant_matches_cofactor_oracle(q):
    f = field_of_order(q)
    rng = random.Random(q)
    for n in range(1, 5):
        for _ in range(20):
            grid = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            m = Matrix(f, grid)
            assert m.determinant().encoding == _cofactor_det(f, grid)


def test_vandermonde_product_equals_determinant_exhaustive_f5():
    f = field(5)
    for n in range(1, 5):
        for pts in combinations(range(5), n):
            elems = [f.element(e) for e in pts]
            assert vandermonde_det(elems).encoding == det_enc(f, _vandermonde_grid(f, pts))


@pytest.mark.parametrize("q", [7, 9, 13])
def test_vandermonde_product_equals_determinant_random(q):
    f = field_of_order(q)
    rng = random.Random(q)
    for n in range(2, 6):
        for _ in range(15):
            pts = rng.sample(range(q), n)
            elems = [f.element(e) for e in pts]
            assert vandermonde_det(elems).encoding == det_enc(f, _vandermonde_grid(f, pts))


def test_vandermonde_repeat_and_single_point():
    f = field(7)
    assert vandermonde_det([f.element(2), f.element(5), f.element(2)]) == f.zero
    assert vandermonde_det([f.element(4)]) == f.one
    with pytest.raises(ValueError):
        vandermonde_det([])


def test_determinant_is_alternating_and_multilinear():
    f = field(7)
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(2, 5)
        grid = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        det = det_enc(f, grid)
        i, j = rng.sample(range(n), 2)
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        assert det_enc(f, _permute_columns(grid, perm)) == f.neg_enc(det)
        lam = rng.randrange(1, 7)
        scaled = [
            [f.mul_enc(v, lam) if c == i else v for c, v in enumerate(row)]
            for row in grid
        ]
        assert det_enc(f, scaled) == f.mul_enc(lam, det)


def test_determinant_sign_under_full_permutations():
    f = field(5)
    base = [[1, 2, 0], [3, 0, 1], [2, 2, 4]]
    det = det_enc(f, base)
    for perm in permutations(range(3)):
        inversions = sum(
            perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3)
        )
        expected = det if inversions % 2 == 0 else f.neg_enc(det)
        assert det_enc(f, _permute_columns(base, perm)) == expected


def test_determinant_requires_square():
    f = field(5)
    with pytest.raises(ValueError):
        Matrix(f, [[1, 2, 3], [4, 0, 1]]).determinant()


def test_matrix_validation():
    f = field(5)
    with pytest.raises(ValueError):
        Matrix(f, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(f, [[field(7).element(1)]])
    with pytest.raises(ValueError):
        Matrix(f, [])


def test_mds_check_on_projective_generator():
    f = field(5)
    g = Matrix(f, [[1, 1, 1, 0], [0, 1, 2, 1]])
    result = mds_generator_check(g, 2)
    assert result.is_mds and result.witness is None


def test_mds_check_zero_column_witness():
    f = field(5)
    g = Matrix(f, [[1, 0, 1], [0, 0, 1]])
    result = mds_generator_check(g, 2)
    assert not result.is_mds
    assert result.witness == (0, 1)
    assert 1 in result.witness


def test_mds_check_requires_k_rows():
    f = field(5)
    g = Matrix(f, [[1, 1, 1, 0], [0, 1, 2, 1]])
    with pytest.raises(ValueError):
        mds_generator_check(g, 3)


# -- batched determinants, pinned to det_enc -----------------------------------


def _sparse_grid(rng, q, n):
    """A random n x n grid, often singular: many zeros, sometimes a repeated row."""
    grid = [[rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        grid[rng.randrange(1, n)] = list(grid[0])
    return grid


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_det_stack_matches_det_enc_on_random_grids(q):
    f = field_of_order(q)
    rng = random.Random(q)
    for n in range(1, 7):
        stack = [_sparse_grid(rng, q, n) for _ in range(200)]
        dets = det_stack(f, stack).tolist()
        assert dets == [det_enc(f, grid) for grid in stack]
        assert 0 in dets and any(dets)


def _assert_minors_match_det_enc(code, monkeypatch):
    rows = code._generator_rows()
    subsets = list(combinations(range(code.length), code.k))
    expected = [det_enc(code.field, [[r[j] for j in cols] for r in rows]) for cols in subsets]
    assert _minor_tables([code])[0].tolist() == expected
    # a grid whose last row repeats another has every minor singular; taken
    # in runs of 3 subsets
    size = code.k + 1
    with monkeypatch.context() as m:
        m.setattr(matrix_module, "_RUN_BYTES", 96 * size * size)
        runs = list(column_minors(code.field, rows + (rows[0],), size))
    assert [tuple(c) for cols, _ in runs for c in cols.tolist()] == list(
        combinations(range(code.length), code.k + 1)
    )
    assert all(not dets.any() for _, dets in runs)


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_code_minor_table_matches_det_enc_on_every_code(monkeypatch, q):
    f = field_of_order(q)
    for l in range(1, q - 2):
        for k in range(2, q - l):
            slab = [GprsCode(f, excl, k) for excl in combinations(range(q), l)]
            for code in slab:
                _assert_minors_match_det_enc(code, monkeypatch)
            # the codes of a slab, one repeated, stacked into one pass in runs of 3 subsets
            with monkeypatch.context() as m:
                m.setattr(matrix_module, "_RUN_BYTES", 96 * k * k * len(slab))
                stacked = _minor_tables(slab + slab[:1]).tolist()
            assert stacked == [_minor_tables([code])[0].tolist() for code in slab + slab[:1]]


@pytest.mark.parametrize("q", [9, 11, 13])
def test_code_minor_table_matches_det_enc_on_sampled_codes(monkeypatch, q):
    f = field_of_order(q)
    rng = random.Random(q)
    for _ in range(12):
        l = rng.randrange(1, q - 2)
        code = GprsCode(f, rng.sample(range(q), l), rng.randrange(2, q - l))
        _assert_minors_match_det_enc(code, monkeypatch)


@pytest.mark.parametrize("cached", [True, False])
def test_subset_runs_match_a_combinations_walk(monkeypatch, cached):
    # slices of the cached index, or, when no index fits the cache, runs unranked
    # on their own: the m-subsets in lexicographic order, each run opening at its rank
    monkeypatch.setattr(matrix_module, "_indexes", {})
    if not cached:
        monkeypatch.setattr(matrix_module, "_INDEX_BYTES", 0)
    for N in range(1, 10):
        for m in range(1, N + 1):
            walk = list(combinations(range(N), m))
            for unit, step in ((matrix_module._RUN_BYTES, 1), (matrix_module._RUN_BYTES // 4, 4), (1, len(walk))):
                runs = list(subset_runs(N, m, unit))
                assert [a for a, _ in runs] == list(range(0, len(walk), step)), (N, m, step)
                assert [tuple(s) for _, run in runs for s in run.tolist()] == walk, (N, m, step)
    assert (9, 4) in matrix_module._indexes if cached else not matrix_module._indexes


@pytest.mark.parametrize("q", [4, 5, 7, 9])
def test_mds_check_matches_scalar_scan(q):
    # the batched check against the scalar first_singular_column_subset loop
    f = field_of_order(q)
    rng = random.Random(q)
    for _ in range(60):
        k = rng.randrange(1, 4)
        ncols = rng.randrange(k, 8)
        rows = [[rng.randrange(q) if rng.random() < 0.8 else 0 for _ in range(ncols)]
                for _ in range(k)]
        witness = first_singular_column_subset(f, rows, k)
        assert mds_generator_check(Matrix(f, rows), k) == MdsCheckResult(witness is None, witness)


# -- stacked-matrix determinant identities (small cases; the acceptance
#    suite sweeps them over every code with q <= 9) ----------------------------


def _identity_row_checks(code, a_j=None):
    from gprs.matrix import det_enc
    from gprs.polynomial import expand_shifted_power

    f = code.field
    d = code.evaluation_encodings()
    gen = [list(r) for r in code.generator.row_encodings()]
    k = code.k
    if a_j is None:
        extra = [f.pow_enc(y, k) for y in d] + [0]
    else:
        fj = expand_shifted_power(f, f.element(a_j), f.q - 2)
        extra = [f.inv_enc(f.sub_enc(y, a_j)) for y in d]
        extra.append(fj.coefficient(k - 1).encoding)
    rows = gen + [extra]
    proj_col = len(d)
    for subset in combinations(range(len(d)), k):
        sub = [[row[j] for j in subset] + [row[proj_col]] for row in rows]
        got = det_enc(f, sub)
        vdm = 1
        for s in range(k):
            for t in range(s + 1, k):
                vdm = f.mul_enc(vdm, f.sub_enc(d[subset[t]], d[subset[s]]))
        if a_j is None:
            total = 0
            for j in subset:
                total = f.add_enc(total, d[j])
            expected = f.neg_enc(f.mul_enc(total, vdm))
        else:
            prod = 1
            for j in subset:
                prod = f.mul_enc(prod, f.inv_enc(f.sub_enc(a_j, d[j])))
            coeff = f.add_enc(extra[-1], prod)
            expected = f.mul_enc(coeff, vdm)
        assert got == expected


def test_degree_row_determinant_identity_f5():
    from gprs.codes import GprsCode, _minor_tables

    f = field(5)
    for excl in combinations(range(5), 2):
        _identity_row_checks(GprsCode(f, excl, 2))


def test_inverse_row_determinant_identity_f5():
    from gprs.codes import GprsCode, _minor_tables

    f = field(5)
    for excl in combinations(range(5), 2):
        code = GprsCode(f, excl, 2)
        for a in excl:
            _identity_row_checks(code, a_j=a)
