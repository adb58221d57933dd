"""Univariate polynomials over a finite field.

Coefficients are stored degree-ascending with no trailing zeros; the zero
polynomial has an empty coefficient vector and degree -inf (a genuine
sentinel smaller than every integer, so degree comparisons never need a
special case).
"""

from __future__ import annotations

from .galois import FieldElement, FiniteField, _field_of, lucas_binom

NEG_INF = float("-inf")


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs=()):
        """Coefficients c_0, c_1, ... as elements of ``field`` or their encodings."""
        cs = field.encodings(coeffs)
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        self.field = field
        self.coeffs = cs[:end]

    @classmethod
    def from_encodings(cls, field: FiniteField, encodings) -> "Polynomial":
        """Alias of ``Polynomial(field, encodings)``, kept for outside callers."""
        return cls(field, encodings)

    @classmethod
    def zero(cls, field: FiniteField) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def x_power(cls, field: FiniteField, n: int, scale=None) -> "Polynomial":
        """The monomial x^n, optionally scaled by an element or its encoding."""
        return cls(field, [0] * n + [1 if scale is None else scale])

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> FieldElement:
        """c_i, the coefficient of x^i (zero beyond the degree)."""
        if i < 0:
            raise ValueError("coefficient index must be nonnegative")
        enc = self.coeffs[i] if i < len(self.coeffs) else 0
        return self.field.element(enc)

    def to_encodings(self) -> tuple[int, ...]:
        return self.coeffs

    def __call__(self, x) -> FieldElement:
        (enc,) = self.field.encodings((x,))
        return FieldElement(self.field, _eval_enc(self.field, self.coeffs, enc))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(f.add_enc(a, b))
        return Polynomial(f, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial(f, [f.neg_enc(c) for c in self.coeffs])

    def __mul__(self, other):
        f = self.field
        if isinstance(other, FieldElement):
            (scale,) = f.encodings((other,))
            return Polynomial(f, [f.mul_enc(c, scale) for c in self.coeffs])
        self._check(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = f.add_enc(out[i + j], f.mul_enc(a, b))
        return Polynomial(f, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.field != self.field:
            raise ValueError("polynomials over different fields cannot mix")

    def to_text(self) -> str:
        """CLI form "c0,c1,...,cd" in canonical encodings ("0" when zero)."""
        return ",".join(str(c) for c in self.coeffs) if self.coeffs else "0"

    def __repr__(self):
        return f"Polynomial({self.field!r}, [{self.to_text()}])"


def lagrange_interpolate(nodes, values) -> Polynomial:
    """The unique polynomial of degree < len(nodes) through the given points.

    Computed by the explicit product formula
    sum_i y_i * prod_{j != i} (x - x_j) / (x_i - x_j). Nodes and values may be
    encodings; the field is that of the first FieldElement among them.
    """
    nodes = list(nodes)
    values = list(values)
    if not nodes:
        raise ValueError("interpolation needs at least one node")
    if len(nodes) != len(values):
        raise ValueError("node and value counts differ")
    f = _field_of(nodes + values)
    xs = f.encodings(nodes)
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be pairwise distinct")
    return Polynomial(f, _interp_enc(f, xs, f.encodings(values)))


def expand_shifted_power(field: FiniteField, a, m: int) -> Polynomial:
    """Full expansion of (x - a)^m via the binomial theorem.

    Coefficient of x^i is C(m, i) * (-a)^(m-i), with the binomial reduced
    into the prime subfield by base-p digits.
    """
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    (enc,) = field.encodings((a,))
    return Polynomial(field, _shifted_power_enc(field, enc, m))


# -- encoding-level kernels (shared with gprs.codes and gprs.deepholes) --


def _shifted_power_enc(field: FiniteField, a: int, m: int) -> list[int]:
    neg_a = field.neg_enc(a)
    out = []
    for i in range(m + 1):
        binom = lucas_binom(m, i, field.p)
        out.append(field.mul_enc(binom, field.pow_enc(neg_a, m - i)) if binom else 0)
    return out


def _eval_enc(field: FiniteField, coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = field.add_enc(field.mul_enc(acc, x), c)
    return acc


def _interp_enc(field: FiniteField, xs, ys) -> list[int]:
    # master polynomial M(x) = prod (x - x_j), then per-node deflation
    n = len(xs)
    master = [1]
    for x in xs:
        nx = field.neg_enc(x)
        master = [0] + master
        for i in range(len(master) - 1):
            master[i] = field.add_enc(master[i], field.mul_enc(nx, master[i + 1]))
    out = [0] * n
    for xi, yi in zip(xs, ys):
        if yi == 0:
            continue
        # numerator M(x) / (x - xi) by synthetic division
        quot = [0] * n
        carry = master[n]
        for i in range(n - 1, -1, -1):
            quot[i] = carry
            carry = field.add_enc(master[i], field.mul_enc(carry, xi))
        denom = _eval_enc(field, quot, xi)
        scale = field.div_enc(yi, denom)
        for i in range(n):
            if quot[i]:
                out[i] = field.add_enc(out[i], field.mul_enc(scale, quot[i]))
    return out

