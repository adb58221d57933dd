"""Exact arithmetic in finite fields GF(p^s) with canonical integer encodings.

An element of GF(p^s) is stored as its coefficient vector over GF(p) in the
power basis of the reduction modulus, degree-ascending. The canonical integer
encoding of an element is sum(coeffs[i] * p**i), a bijection onto 0..q-1 that
gives the total order used everywhere downstream (evaluation sets, witness
reporting, tie-breaking). Fields and elements are immutable; all operations
are pure.

One arithmetic kernel serves every field, prime or not. ``FiniteField``
builds dense q x q uint16 addition and multiplication tables once, at
construction, vectorised in numpy from the base-p digits (see ``_tables``),
the negation (row p - 1, as -a = (-1) * a) and discrete exp and log vectors
from the second (``_exp_log``), so that a product of nonzero elements is a
sum of logs mod q - 1: inversion is exp[-log] and ``pow_enc`` exp[n log a].
The scalar operations (``add_enc``, ``mul_enc``, ...) are plain lookups in
``array('H')`` row copies of the tables and list copies of the vectors;
batched callers index the read-only numpy arrays ``add_table``,
``mul_table``, ``neg_table``, ``inv_table``, ``exp`` and ``log`` directly.
Each q x q table costs 4 * q^2 bytes (numpy array plus row copies), about
19 MB at q = 2187. An order above ``_MAX_ORDER`` = 4096, whose two tables
would pass 128 MiB, is refused before anything is factored, powered or
allocated (``_check_order``).

Values enter the encoding currency in one place, ``FiniteField.encodings``.
It takes elements of the field and integers 0..q-1 (through
``operator.index``, so numpy integers pass); an element of another field or
an out-of-range integer raises ValueError, and a float, string or None
raises TypeError. Every library entry that takes field values (word
coordinates, excluded and evaluation points, polynomial coefficients, matrix
entries, a_j and the family scales) goes through it, and everything behind
it works on encodings.

Even characteristic is constructible but considered experimental: the
deep-hole criteria in :mod:`gprs.deepholes` refuse p = 2, only the exhaustive
oracles run there.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array

import numpy as np

_MAX_ORDER = 1 << 12  # the largest q: its two tables take 8 * q^2 bytes, 128 MiB


def _check_order(p, s) -> None:
    """Refuse GF(p^s) for p^s > ``_MAX_ORDER``, naming the order p^s, before p is factored or
    p^s computed. Other values pass through to the checks of their callers."""
    if not (isinstance(p, int) and isinstance(s, int) and p > 1 and s > 0):
        return
    # p >= 2 and s >= 13 give p^s > 4096, so p^s is only computed when it is small
    if p > _MAX_ORDER or s >= _MAX_ORDER.bit_length() or p**s > _MAX_ORDER:
        order = p if s == 1 else f"{p}^{s}"
        raise ValueError(f"GF({order}) is too large: orders above {_MAX_ORDER} are refused, "
                         f"as a field's tables take 8*q^2 bytes")


def is_prime(n: int) -> bool:
    try:
        return prime_power_decomposition(n) == (n, 1)
    except (TypeError, ValueError):
        return False


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, s) with q = p**s and p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = q
    for f in range(2, math.isqrt(q) + 1):
        if q % f == 0:
            p = f
            break
    s = 0
    rest = q
    while rest % p == 0:
        rest //= p
        s += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, s


def lucas_binom(m: int, r: int, p: int) -> int:
    """Binomial coefficient C(m, r) modulo the prime p, by base-p digits."""
    if r < 0 or r > m:
        return 0
    out = 1
    while m or r:
        mi, ri = m % p, r % p
        if ri > mi:
            return 0
        out = out * math.comb(mi, ri) % p
        m //= p
        r //= p
    return out


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        value, d = divmod(value, p)
        out.append(d)
    return out


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    # remainder of num by monic den, coefficients ascending
    rem = list(num)
    dd = len(den) - 1
    while len(rem) > dd:
        lead = rem[-1] % p
        if lead:
            shift = len(rem) - 1 - dd
            for i, c in enumerate(den):
                rem[shift + i] = (rem[shift + i] - lead * c) % p
        rem.pop()
    while rem and rem[-1] % p == 0:
        rem.pop()
    return [c % p for c in rem]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    # coeffs monic, ascending; exhaustive trial division by all monic
    # divisors of degree 1..deg//2
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            den = _digits(enc, p, d) + [1]
            if not _poly_mod(coeffs, den, p):
                return False
    return True


def _prime_coeffs(coeffs, p: int) -> tuple[int, ...]:
    """Integer coefficients reduced mod p; a float or other non-integer raises TypeError."""
    return tuple(operator.index(c) % p for c in coeffs)


def _default_modulus(p: int, s: int) -> tuple[int, ...]:
    # smallest monic irreducible of degree s in canonical encoding order
    for enc in range(p**s):
        cand = _digits(enc, p, s) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise ValueError(f"no irreducible polynomial of degree {s} over GF({p})")


def _tables(p: int, s: int, x_s: int) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication tables of GF(p^s) as q x q uint16 arrays.

    ``x_s`` is the encoding of x^s reduced by the modulus (0 for s = 1).
    Every step is one numpy operation over at most q^2 entries.
    """
    q = p**s
    enc = np.arange(q)
    # a + b: the lowest digits add in GF(p), the higher ones in the table of
    # the next smaller power of p
    digit = np.arange(p, dtype=np.uint32)
    prime_add = (np.add.outer(digit, digit) % p).astype(np.uint16)
    add = prime_add
    for i in range(2, s + 1):
        e = np.arange(p**i)
        add = prime_add[np.ix_(e % p, e % p)] + p * add[np.ix_(e // p, e // p)]
    # c * b for c in GF(p), by repeated addition
    scaled = np.zeros((p, q), dtype=np.uint16)
    for c in range(1, p):
        scaled[c] = add[scaled[c - 1], enc]
    # x * b: shift the digits of b up one place, fold the top digit back as top * x^s
    top = p ** (s - 1)
    times_x = add[enc % top * p, scaled[enc // top, x_s]]
    # a * b = a_0 * b + x * ((a // p) * b), one digit of a at a time
    mul = np.empty((q, q), dtype=np.uint16)
    mul[:p] = scaled
    for i in range(1, s):
        rows = np.arange(p**i, p ** (i + 1))
        mul[rows] = add[scaled[rows % p], times_x[mul[rows // p]]]
    return add, mul


def _exp_log(mul: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp[e] = g^e for e < q - 1, g the smallest element of order q - 1 under the table ``mul``,
    and log its inverse on F_q^*, with log[0] = 0. The powers of 64 candidates at a time come by
    doubling, g^(m + e) = g^m * g^e, and g has order q - 1 where g^e = 1 for no 0 < e < q - 1."""
    q = len(mul)
    for start in range(1, q, 64):
        g = np.arange(start, min(start + 64, q))
        exp, m = np.ones((len(g), q - 1), dtype=np.intp), 1
        while m < q - 1:
            exp[:, m : 2 * m] = mul[mul[exp[:, m - 1], g][:, None], exp[:, : min(m, q - 1 - m)]]
            m *= 2
        if (full := (exp[:, 1:] != 1).all(axis=1)).any():
            exp, log = exp[full.argmax()].copy(), np.zeros(q, dtype=np.intp)
            log[exp] = np.arange(q - 1)
            return exp, log
    raise AssertionError("multiplicative group of a finite field is cyclic")


class FiniteField:
    """The finite field GF(p^s), deterministically constructed.

    When no reduction modulus is supplied for s > 1, the modulus is the
    monic irreducible of degree s whose coefficient vector has the smallest
    canonical encoding. All constructions with equal (p, s, modulus) compare
    and hash equal.
    """

    def __init__(self, p: int, s: int = 1, modulus=None):
        _check_order(p, s)
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"characteristic {p!r} is not prime")
        if not isinstance(s, int) or s < 1:
            raise ValueError(f"extension degree {s!r} must be a positive integer")
        self.p = p
        self.s = s
        self.q = p**s
        if s == 1:
            if modulus is not None:
                raise ValueError("prime fields take no reduction modulus")
            self.modulus = None
        else:
            if modulus is None:
                self.modulus = _default_modulus(p, s)
            else:
                mod = _prime_coeffs(modulus, p)
                if len(mod) != s + 1 or mod[-1] != 1:
                    raise ValueError(f"modulus must be monic of degree {s}")
                if not _is_irreducible(list(mod), p):
                    raise ValueError(f"modulus {list(mod)} is reducible over GF({p})")
                self.modulus = mod
        # x^s reduced by the modulus: -(m_0 + m_1 x + ... + m_{s-1} x^(s-1))
        x_s = 0
        if self.modulus is not None:
            x_s = sum(-c % p * p**i for i, c in enumerate(self.modulus[:-1]))
        add, mul = _tables(p, s, x_s)
        exp, log = _exp_log(mul)
        # -a = (-1) * a, and -1 encodes as p - 1; inv[0] is 0, and inv_enc rejects zero
        neg, inv = mul[p - 1].astype(np.intp), exp[-log % (self.q - 1)]
        inv[0] = 0
        for table in (add, mul, neg, inv, exp, log):
            table.flags.writeable = False
        self.add_table, self.mul_table, self.neg_table, self.inv_table = add, mul, neg, inv
        self.exp, self.log = exp, log
        self._add = [array("H", row.tobytes()) for row in add]
        self._mul = [array("H", row.tobytes()) for row in mul]
        self._neg, self._inv, self._exp, self._log = neg.tolist(), inv.tolist(), exp.tolist(), log.tolist()

    # -- identity and representation ------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus)

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        return f"GF({self.p})" if self.s == 1 else f"GF({self.p}^{self.s})"

    @property
    def has_odd_characteristic(self) -> bool:
        return self.p != 2

    def spec_string(self) -> str:
        """Field in the textual form accepted by the CLI, e.g. "3^2"."""
        return str(self.p) if self.s == 1 else f"{self.p}^{self.s}"

    # -- element constructors --------------------------------------------

    def encodings(self, items) -> tuple[int, ...]:
        """Canonical encodings of elements of this field or integers 0..q-1.

        Raises ValueError for an element of another field or an integer
        outside 0..q-1, and TypeError for a value that is neither.
        """
        out = []
        for item in items:
            if isinstance(item, FieldElement):
                if item.field is not self and item.field != self:
                    raise ValueError(f"element of {item.field!r} used in {self!r}")
                out.append(item.encoding)
            else:
                enc = operator.index(item)
                if not 0 <= enc < self.q:
                    raise ValueError(f"encoding {enc} outside 0..{self.q - 1}")
                out.append(enc)
        return tuple(out)

    def element(self, encoding) -> "FieldElement":
        return FieldElement(self, *self.encodings((encoding,)))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> list["FieldElement"]:
        """All field elements in ascending canonical-encoding order."""
        return [FieldElement(self, e) for e in range(self.q)]

    def coeffs_of(self, encoding: int) -> tuple[int, ...]:
        return tuple(_digits(encoding, self.p, self.s))

    # -- encoding-level arithmetic ----------------------------------------
    # These are the hot-path primitives; FieldElement operators wrap them.

    def add_enc(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg_enc(self, a: int) -> int:
        return self._neg[a]

    def sub_enc(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul_enc(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv_enc(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._inv[a]

    def div_enc(self, a: int, b: int) -> int:
        return self.mul_enc(a, self.inv_enc(b))

    def pow_enc(self, a: int, n: int) -> int:
        # exponent reduced mod q-1 only for nonzero bases
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("zero raised to a negative power")
            return 1 if n == 0 else 0
        return self._exp[self._log[a] * n % (self.q - 1)]

    # -- derived structure -------------------------------------------------

    def primitive_element(self) -> "FieldElement":
        """Smallest element (in encoding order) of multiplicative order q-1: exp[1] (``_exp_log``)."""
        if self.q < 3:
            raise ValueError("primitive element requires q >= 3")
        return FieldElement(self, self._exp[1])


class FieldElement:
    """Immutable element of a FiniteField, identified by canonical encoding."""

    __slots__ = ("field", "encoding")

    def __init__(self, field: FiniteField, encoding: int):
        self.field = field
        self.encoding = encoding

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs_of(self.encoding)

    @property
    def is_zero(self) -> bool:
        return self.encoding == 0

    def _same_field(self, other) -> "FieldElement":
        if other.field != self.field:
            raise ValueError(
                f"elements of {self.field!r} and {other.field!r} cannot mix"
            )
        return other

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        other = self._same_field(other)
        return FieldElement(self.field, self.field.add_enc(self.encoding, other.encoding))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        other = self._same_field(other)
        return FieldElement(self.field, self.field.sub_enc(self.encoding, other.encoding))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        other = self._same_field(other)
        return FieldElement(self.field, self.field.mul_enc(self.encoding, other.encoding))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        other = self._same_field(other)
        return FieldElement(self.field, self.field.div_enc(self.encoding, other.encoding))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_enc(self.encoding))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        return FieldElement(self.field, self.field.pow_enc(self.encoding, n))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_enc(self.encoding))

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.encoding == other.encoding

    def __hash__(self):
        return hash((self.field, self.encoding))

    def __int__(self):
        return self.encoding

    def __repr__(self):
        return f"{self.field!r}:{self.encoding}"


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, s: int, modulus) -> FiniteField:
    return FiniteField(p, s, modulus)


def field(p: int, s: int = 1, modulus=None) -> FiniteField:
    """Shared-instance field constructor (tables get reused across callers)."""
    _check_order(p, s)
    # FiniteField rejects a p that is not prime before it reads the modulus
    key = None if modulus is None or not is_prime(p) else _prime_coeffs(modulus, p)
    return _cached_field(p, s, key)


def field_of_order(q: int, modulus=None) -> FiniteField:
    _check_order(q, 1)
    p, s = prime_power_decomposition(q)
    return field(p, s, modulus)


def parse_field_spec(text: str) -> tuple[int, int]:
    """Parse "p" or "p^s" into (p, s), with p prime and s >= 1."""
    parts = text.strip().split("^")
    try:
        if len(parts) == 1:
            q = int(parts[0])
            _check_order(q, 1)
            return prime_power_decomposition(q)
        if len(parts) == 2:
            p, s = int(parts[0]), int(parts[1])
            _check_order(p, s)
            if s < 1 or not is_prime(p):
                raise ValueError("p must be prime and s >= 1")
            return p, s
    except ValueError as exc:
        raise ValueError(f"bad field spec {text!r}: {exc}") from None
    raise ValueError(f"bad field spec {text!r}")


def field_from_spec(text: str, modulus_text: str | None = None) -> FiniteField:
    """Build a field from its CLI form, e.g. ("3^2", "1,0,1")."""
    p, s = parse_field_spec(text)
    modulus = None
    if modulus_text:
        modulus = [int(c) for c in modulus_text.split(",")]
    return field(p, s, modulus)
