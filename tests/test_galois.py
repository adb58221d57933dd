import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gprs.galois as galois
from gprs.codes import GprsCode, GrsCode
from gprs.deepholes import (
    DeepHoleVerdict,
    WordFamilySpec,
    build_family_word,
    thm15_criterion,
    validate_verdict,
    word_in_shifted_family,
)
from gprs.galois import (
    FiniteField,
    field,
    field_from_spec,
    field_of_order,
    is_prime,
    lucas_binom,
    parse_field_spec,
    prime_power_decomposition,
)
from gprs.matrix import Matrix
from gprs.polynomial import Polynomial
from references import expand_shifted_power, vandermonde_det


# -- independent oracles -------------------------------------------------------


def _naive_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _monic_polys(p, deg):
    for enc in range(p**deg):
        coeffs = []
        v = enc
        for _ in range(deg):
            v, d = divmod(v, p)
            coeffs.append(d)
        yield coeffs + [1]


def _is_reducible_by_products(poly, p):
    deg = len(poly) - 1
    for d1 in range(1, deg):
        for f1 in _monic_polys(p, d1):
            for f2 in _monic_polys(p, deg - d1):
                if _naive_mul(f1, f2, p) == poly:
                    return True
    return False


def _first_irreducible_by_scan(p, s):
    for cand in _monic_polys(p, s):
        if not _is_reducible_by_products(cand, p):
            return tuple(cand)
    raise AssertionError


# -- construction --------------------------------------------------------------


def test_prime_field_has_no_modulus():
    f = field(5)
    assert (f.p, f.s, f.q) == (5, 1, 5)
    assert f.modulus is None


def test_default_modulus_gf9_is_x2_plus_1():
    assert field(3, 2).modulus == (1, 0, 1)


def test_default_modulus_gf8_is_x3_plus_x_plus_1():
    # the scan passes over x^3+1 and x^3+x, both of which factor
    assert field(2, 3).modulus == (1, 1, 0, 1)


@pytest.mark.parametrize("p,s", [(2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (2, 4)])
def test_default_modulus_matches_product_scan_oracle(p, s):
    assert field(p, s).modulus == _first_irreducible_by_scan(p, s)


def test_explicit_modulus_accepted_and_checked():
    f = field(3, 2, (2, 2, 1))  # x^2 + 2x + 2, no roots in GF(3)
    assert f.modulus == (2, 2, 1)
    with pytest.raises(ValueError):
        FiniteField(3, 2, (2, 0, 1))  # x^2 + 2 has root 1
    with pytest.raises(ValueError):
        FiniteField(3, 2, (1, 0, 0, 1))  # wrong degree
    with pytest.raises(ValueError):
        FiniteField(3, 2, (1, 0, 2))  # not monic


@pytest.mark.parametrize("bad_p", [0, 1, 4, 6, 9, 15, 2.5])
def test_nonprime_characteristic_rejected(bad_p):
    with pytest.raises(ValueError):
        FiniteField(bad_p)
    with pytest.raises(ValueError):
        field(bad_p, 2, (1, 0, 1))


def test_prime_field_rejects_modulus():
    with pytest.raises(ValueError):
        FiniteField(5, 1, (1, 1))


def test_construction_is_deterministic():
    assert FiniteField(3, 2).modulus == FiniteField(3, 2).modulus
    assert field(3, 2) == FiniteField(3, 2)


# -- element arithmetic ---------------------------------------------------------


def test_inverse_of_two_in_f5():
    f = field(5)
    assert f.element(2).inv().encoding == 3


def test_gf9_square_of_one_plus_x():
    f = field(3, 2)
    e = f.element(1 + 1 * 3)
    assert (e * e).coeffs == (0, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 13, 25, 27])
def test_additive_identity(q):
    f = field_of_order(q)
    for a in f.elements():
        assert a + f.zero == a


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 13, 25, 27])
def test_field_axioms_exhaustive(q):
    f = field_of_order(q)
    elems = f.elements()
    one, zero = f.one, f.zero
    for a in elems:
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        if not a.is_zero:
            assert a * a.inv() == one
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
    for a in elems:
        for b in elems:
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("q", [3, 5, 8, 9, 25, 27])
def test_fermat_and_frobenius_fixed_points(q):
    f = field_of_order(q)
    for a in f.elements():
        assert a**q == a
        if not a.is_zero:
            assert a ** (q - 1) == f.one


def test_pow_semantics():
    f = field(7)
    a = f.element(3)
    assert a**0 == f.one
    assert f.zero**0 == f.one
    assert f.zero**5 == f.zero
    assert a**-1 == a.inv()
    assert a ** (f.q - 1 + 4) == a**4  # reduction mod q-1 for nonzero bases
    assert f.zero ** (f.q - 1) == f.zero  # never reduced for zero
    with pytest.raises(ZeroDivisionError):
        f.zero**-2


def test_division_and_zero_division():
    f = field(5)
    assert f.element(3) / f.element(2) == f.element(4)
    with pytest.raises(ZeroDivisionError):
        f.element(3) / f.zero
    with pytest.raises(ZeroDivisionError):
        f.zero.inv()


def test_cross_field_operations_rejected():
    a = field(5).element(2)
    b = field(7).element(2)
    with pytest.raises(ValueError):
        a + b
    c = field(3, 2).element(4)
    d = field(3, 2, (2, 2, 1)).element(4)
    with pytest.raises(ValueError):
        c * d


# -- the table kernel against an independent reference --------------------------


def _reference_ops(f):
    """(add, mul) on encodings by digit-wise sums and _naive_mul mod the modulus."""
    p, s = f.p, f.s
    modulus = f.modulus

    def digits(e):
        return [e // p**i % p for i in range(s)]

    def enc(cs):
        return sum(c * p**i for i, c in enumerate(cs))

    def add(a, b):
        return enc([(x + y) % p for x, y in zip(digits(a), digits(b))])

    def mul(a, b):
        prod = _naive_mul(digits(a), digits(b), p)
        for top in range(len(prod) - 1, s - 1, -1):
            c = prod[top]
            for j, m in enumerate(modulus):
                prod[top - s + j] = (prod[top - s + j] - c * m) % p
        return enc(prod[:s])

    return add, mul


KERNEL_FIELDS = [
    (2, 1, None), (5, 1, None), (13, 1, None),
    (2, 2, None), (2, 3, None), (2, 4, None),
    (3, 2, None), (3, 2, (2, 2, 1)), (3, 3, None), (3, 4, None), (3, 5, None),
    (5, 2, None), (5, 3, None), (7, 2, None), (7, 3, None), (3, 6, None),
]


@pytest.mark.parametrize("p,s,modulus", KERNEL_FIELDS)
def test_table_kernel_matches_reference(p, s, modulus):
    f = field(p, s, modulus)
    ref_add, ref_mul = _reference_ops(f)
    q = f.q
    if q <= 81:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(10**4)]
    for a, b in pairs:
        total, prod = ref_add(a, b), ref_mul(a, b)
        assert f.add_enc(a, b) == total
        assert f.mul_enc(a, b) == prod
        assert f.sub_enc(total, b) == a
        assert ref_add(a, f.neg_enc(a)) == 0
        if b:
            assert ref_mul(b, f.inv_enc(b)) == 1
            assert f.div_enc(prod, b) == a
        assert f.add_table[a, b] == total and f.mul_table[a, b] == prod


def test_table_kernel_rejects_orders_beyond_uint16():
    with pytest.raises(ValueError):
        FiniteField(2, 17)
    with pytest.raises(ValueError):
        FiniteField(65537)


@pytest.mark.parametrize("p,s", [(7, 3), (3, 6)])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_field_axioms_property(p, s, data):
    f = field(p, s)
    a, b, c = (data.draw(st.integers(0, f.q - 1)) for _ in range(3))
    assert f.add_enc(a, b) == f.add_enc(b, a)
    assert f.mul_enc(a, b) == f.mul_enc(b, a)
    assert f.add_enc(f.add_enc(a, b), c) == f.add_enc(a, f.add_enc(b, c))
    assert f.mul_enc(f.mul_enc(a, b), c) == f.mul_enc(a, f.mul_enc(b, c))
    assert f.mul_enc(a, f.add_enc(b, c)) == f.add_enc(f.mul_enc(a, b), f.mul_enc(a, c))
    assert f.add_enc(a, 0) == a and f.mul_enc(a, 1) == a
    assert f.add_enc(a, f.neg_enc(a)) == 0
    if a:
        assert f.mul_enc(a, f.inv_enc(a)) == 1
        assert f.pow_enc(a, f.q - 1) == 1


# -- primitive elements and enumeration ----------------------------------------


def test_primitive_element_examples():
    assert field(7).primitive_element().encoding == 3
    assert field(5).primitive_element().encoding == 2
    assert field(3).primitive_element().encoding == 2


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 25, 27])
def test_primitive_element_has_full_order(q):
    f = field_of_order(q)
    g = f.primitive_element()
    powers = set()
    acc = f.one
    for _ in range(q - 1):
        powers.add(acc.encoding)
        acc = acc * g
    assert acc == f.one
    assert len(powers) == q - 1
    # smallest generator in encoding order
    for enc in range(1, g.encoding):
        e = f.element(enc)
        order, acc = 1, e
        while acc != f.one:
            acc = acc * e
            order += 1
        assert order < q - 1


def _is_prime_power(q):
    try:
        prime_power_decomposition(q)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("q", [q for q in range(2, 257) if _is_prime_power(q)] + [4096])
def test_exp_log_kernel_matches_repeated_multiplication(q):
    # a fresh field, so that GF(4096)'s tables are not kept in the shared cache
    f = FiniteField(*prime_power_decomposition(q))
    assert all(not table.flags.writeable
               for table in (f.add_table, f.mul_table, f.neg_table, f.inv_table, f.exp, f.log))
    g, acc, powers = f.exp[1 % (q - 1)], 1, []
    for _ in range(q - 1):
        powers.append(acc)
        acc = int(f.mul_table[acc, g])
    assert f.exp.tolist() == powers and acc == 1
    nonzero = np.arange(1, q)
    assert (f.log[f.exp] == np.arange(q - 1)).all() and (f.exp[f.log[nonzero]] == nonzero).all()
    assert f.log[0] == 0 and f.inv_table[0] == 0 and (f.mul_table[nonzero, f.inv_table[nonzero]] == 1).all()
    # pow_enc against a running product of mul_enc, up to past 2q; a negative power is the
    # element whose product with the positive one is 1
    rng = random.Random(q)
    exponents = sorted({0, 1, 2, q - 2, q - 1, q, q + 1, 2 * q + 1, rng.randrange(q, 2 * q + 2)})
    for a in (nonzero.tolist() if q <= 16 else rng.sample(range(1, q), 6)):
        acc, running = 1, []
        for _ in range(2 * q + 2):
            running.append(acc)
            acc = f.mul_enc(acc, a)
        for n in exponents:
            assert f.pow_enc(a, n) == running[n], (a, n)
            assert f.mul_enc(f.pow_enc(a, -n), running[n]) == 1, (a, -n)
    assert f.pow_enc(0, 0) == 1 and all(f.pow_enc(0, n) == 0 for n in exponents[1:])
    with pytest.raises(ZeroDivisionError):
        f.pow_enc(0, -1)


def test_primitive_element_requires_q_at_least_3():
    with pytest.raises(ValueError):
        field(2).primitive_element()


def test_enumerate_elements_order_and_roundtrip():
    f = field(3, 2)
    elems = f.elements()
    assert [e.encoding for e in elems] == list(range(9))
    for e in elems:
        assert f.element(sum(c * 3**i for i, c in enumerate(e.coeffs))) == e


def test_prime_coefficients_are_integers_never_truncated():
    with pytest.raises(TypeError):
        field(3, 2, (1.9, 0, 1.2))
    with pytest.raises(TypeError):
        FiniteField(3, 2, (1.9, 0, 1.2))
    assert field(3, 2, (np.int64(2), 2, 1)) == field(3, 2, (2, 2, 1))
    assert field(3, 2, (-1, 5, 4)).modulus == (2, 2, 1)


def test_encoding_is_base_p_digit_value():
    f = field(3, 2)
    assert f.element(2 + 1 * 3).coeffs == (2, 1)
    assert f.element(7).coeffs == (1, 2)


# -- helpers --------------------------------------------------------------------


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == primes
    # a plain trial division, independent of prime_power_decomposition
    reference = {n for n in range(2, 5000) if all(n % d for d in range(2, math.isqrt(n) + 1))}
    assert {n for n in range(-3, 5000) if is_prime(n)} == reference


def test_prime_power_decomposition():
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(81) == (3, 4)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power_decomposition(bad)


def test_lucas_binomial_matches_comb():
    rng = random.Random(7)
    for p in (3, 5, 7):
        for _ in range(200):
            m = rng.randrange(0, 200)
            r = rng.randrange(0, 200)
            assert lucas_binom(m, r, p) == math.comb(m, r) % p


def test_field_spec_parsing():
    assert parse_field_spec("3^2") == (3, 2)
    assert parse_field_spec("9") == (3, 2)
    assert parse_field_spec("7") == (7, 1)
    assert field_from_spec("3^2", "2,2,1").modulus == (2, 2, 1)
    assert field_from_spec("9") == field(3, 2)
    for bad in ("", "x", "3^", "3^2^2", "6", "4^2", "1^3", "7^0", "3^-1"):
        with pytest.raises(ValueError, match=re.escape(f"bad field spec {bad!r}")):
            field_from_spec(bad)


# -- the order bound ---------------------------------------------------------------------


@pytest.fixture
def no_field_work(monkeypatch):
    """Factoring, primality tests and table builds fail, so a refusal must come before them."""
    def refuse(*args):
        raise AssertionError("an oversized order was factored or its tables built")

    for name in ("prime_power_decomposition", "is_prime", "_tables"):
        monkeypatch.setattr(galois, name, refuse)


OVERSIZED = {
    "GF(2305843009213693951)": lambda: field_of_order(2**61 - 1),
    "GF(100000000000031)": lambda: field_of_order(10**14 + 31),
    "GF(4099)": lambda: field_of_order(4099),  # the smallest prime past 4096
    "GF(65521)": lambda: FiniteField(65521),
    "GF(3^100000)": lambda: FiniteField(3, 10**5),
    "GF(3^1000000000)": lambda: field(3, 10**9, (2, 0, 1)),
    "GF(2^13)": lambda: field_from_spec("2^13"),
    "GF(8191)": lambda: field_from_spec("8191"),
}


@pytest.mark.parametrize("order", sorted(OVERSIZED))
def test_oversized_orders_are_refused_before_any_work(no_field_work, order):
    with pytest.raises(ValueError, match=re.escape(order) + " is too large"):
        OVERSIZED[order]()


def test_order_bound_admits_every_order_up_to_4096(no_field_work):
    for p, s in ((2, 12), (3, 7), (4093, 1), (1, 20), (4, 1)):
        galois._check_order(p, s)  # small enough, or not a prime power for FiniteField to refuse
    for p, s in ((2, 13), (4099, 1), (4097, 1), (3, 8)):
        with pytest.raises(ValueError, match="is too large"):
            galois._check_order(p, s)


# -- where values enter the encoding currency ------------------------------------------

_F7 = field(7)
_CODE = GprsCode(_F7, [0, 3], 2)  # excluded points 0 and 3, D = {1, 2, 4, 5, 6}
_E = _F7.element


def _interpolant(nodes, values):
    """Lagrange interpolation as the library does it: a code's interpolant over its evaluation set."""
    code = GrsCode(_F7, nodes, 1)
    return code.interpolant(code.word(values))

# Each entry puts one caller value v into a field-value slot; v = 3 is valid in all.
VALUE_ENTRIES = {
    "FiniteField.encodings": lambda v: _F7.encodings([1, v]),
    "FiniteField.element": lambda v: _F7.element(v),
    "code.word": lambda v: _CODE.word([v, 0, 0, 0, 0, 0]),
    "GprsCode": lambda v: GprsCode(_F7, [0, v], 2).evaluation_encodings(),
    "GrsCode": lambda v: GrsCode(_F7, [0, 1, v], 1).evaluation_encodings(),
    "Polynomial": lambda v: Polynomial(_F7, [1, v]),
    "Polynomial.from_encodings": lambda v: Polynomial.from_encodings(_F7, [1, v]),
    "Polynomial.__call__": lambda v: Polynomial(_F7, [1, 1])(v),
    "Matrix": lambda v: Matrix(_F7, [[1, v], [0, 1]]),
    "lagrange_interpolate nodes": lambda v: _interpolant([_E(1), v], [_E(1), _E(2)]),
    "lagrange_interpolate values": lambda v: _interpolant([_E(1), _E(2)], [_E(1), v]),
    "lagrange_interpolate first node": lambda v: _interpolant([v, _E(1)], [_E(1), _E(2)]),
    "vandermonde_det": lambda v: vandermonde_det([_E(1), v]),
    "vandermonde_det first point": lambda v: vandermonde_det([v, _E(1)]),
    "expand_shifted_power": lambda v: expand_shifted_power(_F7, v, 3),
    "build_family_word lam": lambda v: build_family_word(
        _CODE, WordFamilySpec("shifted_qminus2", v, 1, a_j=0)
    ),
    "build_family_word nu": lambda v: build_family_word(
        _CODE, WordFamilySpec("deg_k", 1, v)
    ),
    "build_family_word a_j": lambda v: build_family_word(
        _CODE, WordFamilySpec("shifted_qminus2", 1, 1, a_j=v)
    ),
    "thm15_criterion a_j": lambda v: thm15_criterion(_CODE, v),
    "word_in_shifted_family a_j": lambda v: word_in_shifted_family(
        _CODE, _CODE.word([0] * 6), v
    ),
    "validate_verdict a_j": lambda v: validate_verdict(
        _CODE, DeepHoleVerdict(False, "thm15", (1, 2)), a_j=v
    ),
}


@pytest.mark.parametrize("entry", sorted(VALUE_ENTRIES))
@pytest.mark.parametrize(
    "value,error",
    [
        (field(5).element(3), ValueError),
        (7, ValueError),
        (3.7, TypeError),  # never truncated to 3
        (np.int64(3), None),
    ],
    ids=["other_field", "out_of_range", "float", "np_int64"],
)
def test_field_values_enter_through_encodings(entry, value, error):
    call = VALUE_ENTRIES[entry]
    if error is None:
        assert call(value) == call(3)
    else:
        with pytest.raises(error):
            call(value)


def test_all_encoding_inputs_name_no_field():
    with pytest.raises(ValueError, match="names the field"):
        vandermonde_det([1, 2])


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 81, 125, 128, 243, 343,
                               729, 2187, 4096])
def test_negation_vector_is_the_row_of_minus_one(q):
    # neg_table is row p - 1 of mul_table; pinned to the zero of each addition-table row
    f = FiniteField(*prime_power_decomposition(q))
    elements = np.arange(q)
    assert f.neg_table.dtype == np.intp and not f.neg_table.flags.writeable
    assert (f.add_table[elements, f.neg_table] == 0).all()
    assert (f.neg_table == np.argmax(f.add_table == 0, axis=1)).all()
    assert [f.neg_enc(a) for a in range(min(q, 64))] == f.neg_table[:64].tolist()
