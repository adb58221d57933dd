import random
from itertools import combinations, permutations

import pytest

from gprs.galois import field, field_of_order
from gprs.matrix import Matrix, det_enc, mds_generator_check, vandermonde_det


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
    from gprs.codes import GprsCode

    f = field(5)
    for excl in combinations(range(5), 2):
        _identity_row_checks(GprsCode(f, excl, 2))


def test_inverse_row_determinant_identity_f5():
    from gprs.codes import GprsCode

    f = field(5)
    for excl in combinations(range(5), 2):
        code = GprsCode(f, excl, 2)
        for a in excl:
            _identity_row_checks(code, a_j=a)
