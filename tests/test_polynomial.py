import random

import pytest

from gprs.codes import GrsCode
from gprs.galois import field, field_of_order, lucas_binom
from gprs.polynomial import NEG_INF, Polynomial, _interp_enc
from references import expand_shifted_power


# -- independent oracles -------------------------------------------------------


def _naive_mul_encs(f, a, b):
    # convolution product on encoding lists, no Polynomial involved
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add_enc(out[i + j], f.mul_enc(x, y))
    while out and out[-1] == 0:
        out.pop()
    return out


def _repeated_shift_power(f, a_enc, m):
    # (x - a)^m by literal repeated multiplication
    acc = [1]
    factor = [f.neg_enc(a_enc), 1]
    for _ in range(m):
        acc = _naive_mul_encs(f, acc, factor)
    return acc


def _solve_vandermonde(f, xs, ys):
    # Gaussian elimination on the moment system, independent of the
    # library's product-formula interpolation
    n = len(xs)
    aug = [[f.pow_enc(x, j) for j in range(n)] + [y] for x, y in zip(xs, ys)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = f.inv_enc(aug[col][col])
        aug[col] = [f.mul_enc(inv, v) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                scale = aug[r][col]
                aug[r] = [
                    f.sub_enc(v, f.mul_enc(scale, w)) for v, w in zip(aug[r], aug[col])
                ]
    coeffs = [aug[r][n] for r in range(n)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# -- degree sentinel -------------------------------------------------------------


def test_zero_polynomial_degree_sentinel():
    f = field(5)
    z = Polynomial.zero(f)
    assert z.is_zero
    assert z.degree == NEG_INF
    assert z.degree < 0 and z.degree < -(10**9)
    assert z.coefficient(0) == f.zero and z.coefficient(7) == f.zero


def test_trailing_zeros_stripped():
    f = field(5)
    p = Polynomial.from_encodings(f, [1, 2, 0, 0])
    assert p.degree == 1
    x = Polynomial.from_encodings(f, [0, 1])
    assert (x + (-x)).is_zero


def test_degree_of_products_adds():
    f = field(7)
    rng = random.Random(1)
    for _ in range(50):
        da, db = rng.randrange(0, 4), rng.randrange(0, 4)
        a = Polynomial.from_encodings(
            f, [rng.randrange(7) for _ in range(da)] + [rng.randrange(1, 7)]
        )
        b = Polynomial.from_encodings(
            f, [rng.randrange(7) for _ in range(db)] + [rng.randrange(1, 7)]
        )
        assert (a * b).degree == a.degree + b.degree


# -- evaluation and coefficients --------------------------------------------------


def test_eval_examples():
    f = field(5)
    p = Polynomial.from_encodings(f, [1, 0, 1])  # x^2 + 1
    assert p(f.element(2)) == f.zero
    assert Polynomial.zero(f)(f.element(3)) == f.zero
    q = Polynomial.from_encodings(f, [3, 2])  # 2x + 3
    assert q(f.element(2)) == f.element(2)


def test_eval_rejects_cross_field_point():
    p = Polynomial.from_encodings(field(5), [1, 1])
    with pytest.raises(ValueError):
        p(field(7).element(1))


def test_coefficient_examples():
    f = field(5)
    assert Polynomial.from_encodings(f, [0, 0, 1]).coefficient(1) == f.zero
    assert Polynomial.from_encodings(f, [3, 2]).coefficient(1) == f.element(2)
    cubed = _repeated_shift_power(f, 1, 3)  # (x-1)^3 oracle
    assert Polynomial.from_encodings(f, cubed).coefficient(1) == f.element(3)
    with pytest.raises(ValueError):
        Polynomial.from_encodings(f, [1]).coefficient(-1)


# -- interpolation -----------------------------------------------------------------


def test_interpolation_example_is_x_squared():
    f = field(5)
    code = GrsCode(f, [f.element(e) for e in (1, 2, 3)], 2)
    got = code.interpolant(code.word([f.element(e) for e in (1, 4, 4)]))
    assert got.coeffs == (0, 0, 1)
    oracle = _solve_vandermonde(f, [1, 2, 3], [1, 4, 4])
    assert list(got.coeffs) == oracle


def test_single_point_interpolation_is_constant():
    assert _interp_enc(field(7), [3], [5]) == [5]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_interpolation_roundtrip_random(q):
    f = field_of_order(q)
    rng = random.Random(q)
    for n in range(1, min(q, 6) + 1):
        for _ in range(10):
            nodes = rng.sample(range(q), n)
            coeffs = [rng.randrange(q) for _ in range(n)]
            poly = Polynomial.from_encodings(f, coeffs)
            values = [poly(f.element(x)).encoding for x in nodes]
            assert Polynomial(f, _interp_enc(f, nodes, values)) == poly


def test_interpolation_matches_linear_solve_oracle():
    f = field(3, 2)
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randrange(1, 6)
        nodes = rng.sample(range(9), n)
        values = [rng.randrange(9) for _ in range(n)]
        oracle = _solve_vandermonde(f, nodes, values)
        assert list(Polynomial(f, _interp_enc(f, nodes, values)).coeffs) == oracle
        if n >= 2:  # a GRS code's interpolant, over its evaluation set in encoding order
            code = GrsCode(f, nodes, 1)
            word = code.word([values[nodes.index(x)] for x in sorted(nodes)])
            assert list(code.interpolant(word).coeffs) == oracle


def test_interpolation_errors():
    # nodes are a code's evaluation set and values its word, and each refuses bad input
    f = field(5)
    e = f.element
    with pytest.raises(ValueError):
        GrsCode(f, [], 1)
    with pytest.raises(ValueError):
        GrsCode(f, [e(1), e(1)], 1)
    code = GrsCode(f, [e(1), e(2)], 1)
    with pytest.raises(ValueError):
        code.interpolant(code.word([e(2)]))
    with pytest.raises(ValueError):
        code.interpolant(code.word([e(1), field(7).element(1)]))


# -- shifted powers ------------------------------------------------------------------


def test_shifted_power_of_zero_is_monomial():
    f = field(5)
    assert expand_shifted_power(f, f.zero, 3).coeffs == (0, 0, 0, 1)


def test_shifted_power_example_f3():
    f = field(3)
    assert expand_shifted_power(f, f.one, 2).coeffs == (1, 1, 1)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_shifted_power_matches_repeated_multiplication(q):
    f = field_of_order(q)
    for a in range(q):
        for m in range(q):
            got = list(expand_shifted_power(f, f.element(a), m).coeffs)
            assert got == _repeated_shift_power(f, a, m)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_shifted_power_evaluates_like_element_power(q):
    f = field_of_order(q)
    rng = random.Random(q)
    for _ in range(30):
        a = f.element(rng.randrange(q))
        m = rng.randrange(0, 2 * q)
        p = expand_shifted_power(f, a, m)
        x = f.element(rng.randrange(q))
        assert p(x) == (x - a) ** m
        if m >= 1:
            assert p(a) == f.zero


@pytest.mark.parametrize("q", [5, 7, 9])
def test_projective_coefficient_of_near_inverse_power(q):
    # c_{k-1} of (x-a)^(q-2) must be C(q-2, k-1) * (-a)^(q-k-1)
    f = field_of_order(q)
    for a_enc in range(1, q):
        a = f.element(a_enc)
        p = expand_shifted_power(f, a, q - 2)
        for k in range(2, q - 1):
            expected = f.element(lucas_binom(q - 2, k - 1, f.p)) * (-a) ** (q - k - 1)
            assert p.coefficient(k - 1) == expected


def test_shifted_power_rejects_negative_exponent():
    f = field(5)
    with pytest.raises(ValueError):
        expand_shifted_power(f, f.one, -1)


# -- ring operations ------------------------------------------------------------------


def test_addition_subtraction_scalar_multiplication():
    f = field(7)
    a = Polynomial.from_encodings(f, [1, 2, 3])
    b = Polynomial.from_encodings(f, [6, 5])
    assert (a + b).coeffs == (0, 0, 3)
    assert (a - b).coeffs == (2, 4, 3)
    assert (a * f.element(2)).coeffs == (2, 4, 6)
    assert (f.element(2) * a) == a * f.element(2)
    assert (a * Polynomial.zero(f)).is_zero


def test_cross_field_polynomials_rejected():
    a = Polynomial.from_encodings(field(5), [1, 1])
    b = Polynomial.from_encodings(field(7), [1, 1])
    with pytest.raises(ValueError):
        a + b


def test_text_form_roundtrip():
    f = field(5)
    p = Polynomial.from_encodings(f, [3, 0, 2])
    assert p.to_text() == "3,0,2"
    assert Polynomial.from_encodings(f, [int(c) for c in p.to_text().split(",")]) == p
    assert Polynomial.zero(f).to_text() == "0"
