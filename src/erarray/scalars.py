"""Exact coefficient arithmetic: rationals, polynomials in z, and their fraction field.

Every value in the library bottoms out here.  A ``Scalar`` is an element of
Q(z), kept in canonical form (numerator and denominator coprime, denominator
monic), so equality is a structural comparison and no floating point is ever
involved.  Its numerator and denominator are ``PolyZ`` values: a rational
content times a primitive integer polynomial, whose arithmetic runs on
Python ints.

The polynomial gcd is heuristic (GCDHEU) and returns the cofactors it
proved, so ``_cofactors`` is the one place where a gcd is followed by a
division, and only when the heuristic falls back to Euclid.  ``Scalar``
sums and products follow Henrici's rules and keep every gcd on the small
operands.  The one exact division is a long division that takes no gcd
(``_exact_quotient``): ``PolyZ.exact_div`` runs on it, and a ``Scalar``
quotient of polynomials tries it first.  The unit is canonical too:
``_poly``, which builds every ``PolyZ`` from canonical parts, gives the
one ``POLY_ONE`` object for 1, so a monic constant, a cofactor of 1 and
``ONE.num`` are that object.  It is the identity of the ``PolyZ``
product, so a product of units is ``POLY_ONE`` itself and callers
multiply by it without a guard.  The constructor ``Scalar(num, den)`` is
the quotient num / den, so canonical form is reached by one route.

The way into Q(z) is owned here too: ``_as_scalar`` coerces every input
value the other modules accept, and ``_clear_denominators`` takes Scalars
over the lcm of their denominators for the routes that run in Q[z].  The
integer form of z-free series in ``series`` runs on plain ints over one
denominator, and ``_rational_scalars`` makes its way back.

Every integer-polynomial product goes through ``_multiply``: the
classical double loop when the shorter operand has at most
``_SCHOOLBOOK_MAX`` terms, Kronecker substitution above that.  Its fused
form ``_sum_of_products`` adds short products into one sum without
building them (most often a linear alpha_k or beta_k times an entry of
the Chebyshev tableau, which ``orthopoly._walk`` holds on ints).
``_pack`` evaluates an integer polynomial at z = 2^w and ``_unpack`` reads
the signed base-2^w digits back; their callers are ``_kronecker``, the
heuristic gcd and its ``_divides``, and ``orthopoly.moments_from_jacobi``,
whose whole Stieltjes tableau runs on packed ints over the integer
polynomials that ``_clear_contents`` gives.

Two exact kernels sit on top, for values in Q(z): ``dot``, the fused sum
of products that the binomial transform and the products, quotients,
exponentials and compositions of series over Q(z) run on, with the group
law of arrays over Q(z); and ``solve_lower``, the
one forward substitution, which the production data of arrays and the
reversion of series over Q(z), ``production_direct`` and triangular
inverses call.  ``riordan`` calls ``solve_lower`` itself only in
``production_direct``; its other operations, and series composition and
reversion, reach both kernels through those of ``series``.  z-free series
and arrays call neither, except through ``production_direct``, which runs
on Scalars whatever its input.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, for d > 0, as ``str`` of the Fraction reads it."""
    g = gcd(n, d)
    if g != d:
        return f"{n // g}/{d // g}"
    return str(n // d)


def _format_terms(pairs) -> str:
    """Render (coefficient text, degree) pairs, descending degree, canonical
    form; each text is a nonzero rational as ``_ratio`` writes it."""
    chunks = []
    for coeff, deg in pairs:
        negative = coeff[0] == "-"
        mag = coeff[1:] if negative else coeff
        if deg == 0:
            body = mag
        else:
            var = "z" if deg == 1 else f"z^{deg}"
            body = var if mag == "1" else f"{mag}*{var}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks)


class PolyZ:
    """Polynomial in z over Q: a rational content times a primitive integer
    polynomial.

    ``_prim`` holds the ascending integer coefficients, with gcd 1 and a
    positive leading coefficient; the content is ``_num/_den`` in lowest
    terms with ``_den > 0``.  Zero is content 0/1 times the empty tuple.
    The form is canonical, so equality and hashing are structural, and the
    coefficient loops run on Python ints only.
    """

    __slots__ = ("_num", "_den", "_prim")

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        canon = _normal([c.numerator * (den // c.denominator) for c in cs], 1, den)
        self._num, self._den, self._prim = canon._num, canon._den, canon._prim

    @classmethod
    def const(cls, value) -> PolyZ:
        return _const(_as_fraction(value))

    @classmethod
    def from_integers(cls, ints, den: int = 1) -> PolyZ:
        """The polynomial (ints[0] + ints[1] z + ...) / den, for den > 0."""
        return _normal(list(ints), 1, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Ascending rational coefficients; empty for zero, last one nonzero."""
        n, d = self._num, self._den
        return tuple(Fraction(n * c, d) for c in self._prim)

    @property
    def degree(self) -> int:
        return len(self._prim) - 1

    @property
    def is_zero(self) -> bool:
        return not self._prim

    @property
    def leading(self) -> Fraction:
        if not self._prim:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num * self._prim[-1], self._den)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._prim):
            return Fraction(self._num * self._prim[k], self._den)
        return Fraction(0)

    def _coerce(self, other):
        if isinstance(other, PolyZ):
            return other
        if isinstance(other, (int, Fraction)):
            return _const(other)
        return None

    def __add__(self, other):
        if not isinstance(other, PolyZ):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._prim, other._prim
        if not b:
            return self
        if not a:
            return other
        # Over the common denominator the sum is (ma*a + mb*b)/den.
        ad, bd = self._den, other._den
        g = gcd(ad, bd)
        den = ad // g * bd
        ma, mb = self._num * (bd // g), other._num * (ad // g)
        # The common factor of ma and mb stays in the content.
        h = gcd(ma, mb)
        ma, mb = ma // h, mb // h
        if len(a) < len(b):
            a, b, ma, mb = b, a, mb, ma
        out = [ma * c for c in a]
        for i, c in enumerate(b):
            out[i] += mb * c
        return _normal(out, h, den)

    __radd__ = __add__

    def __neg__(self) -> PolyZ:
        return _poly(-self._num, self._den, self._prim)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, PolyZ):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        # The one POLY_ONE object is the identity, so a product of units is
        # POLY_ONE itself.
        if self is POLY_ONE:
            return other
        if other is POLY_ONE:
            return self
        a, b = self._prim, other._prim
        if not a or not b:
            return POLY_ZERO
        an, ad, bn, bd = self._num, self._den, other._num, other._den
        g, h = gcd(an, bd), gcd(bn, ad)
        # Gauss's lemma: a product of primitive polynomials is primitive.
        # The primitive part of a constant is (1,).
        if len(a) == 1:
            prim = b
        elif len(b) == 1:
            prim = a
        else:
            prim = _multiply(a, b)
        return _poly((an // g) * (bn // h), (ad // h) * (bd // g), prim)

    __rmul__ = __mul__

    def scale(self, factor) -> PolyZ:
        f = _as_fraction(factor)
        return self._times(f.numerator, f.denominator)

    def _times(self, n: int, d: int) -> PolyZ:
        """The polynomial times n/d, for ints n and d != 0."""
        if not n or not self._prim:
            return POLY_ZERO
        n, d = self._num * n, self._den * d
        if d < 0:
            n, d = -n, -d
        g = gcd(n, d)
        return _poly(n // g, d // g, self._prim)

    def __pow__(self, exponent: int) -> PolyZ:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power needs a nonnegative integer")
        result = POLY_ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __divmod__(self, other: PolyZ):
        """Quotient and remainder over Q, by pseudo-division over Z.

        The primitive parts are divided as integer polynomials, and the
        remainder is multiplied up whenever lc(other) fails to divide its
        current leading coefficient.  It serves ``%``, as in
        ``_euclid_gcd``; an exact division takes ``exact_div``.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self._prim, other._prim
        dd = len(b) - 1
        if len(a) - 1 < dd:
            return POLY_ZERO, self
        rem = list(a)
        quo = [0] * (len(a) - dd)
        lead = b[-1]
        scale = 1
        for k in range(len(a) - 1 - dd, -1, -1):
            c = rem[k + dd]
            if not c:
                continue
            q, r = divmod(c, lead)
            if r:
                m = lead // gcd(c, lead)
                scale *= m
                rem = [x * m for x in rem]
                quo = [x * m for x in quo]
                q = c * m // lead
            quo[k] = q
            for j, bc in enumerate(b):
                rem[k + j] -= q * bc
        # scale*a = quo*b + rem, with self = (sn/sd) a and other = (on/od) b.
        sn, sd, on, od = self._num, self._den, other._num, other._den
        qn, qd = sn * od, sd * on * scale
        if qd < 0:
            qn, qd = -qn, -qd
        del rem[dd:]
        return _normal(quo, qn, qd), _normal(rem, sn, sd * scale)

    def __mod__(self, other: PolyZ) -> PolyZ:
        return divmod(self, other)[1]

    def exact_div(self, other: PolyZ) -> PolyZ:
        """self/other when other divides self in Q[z], by
        ``_exact_quotient``, the route of ``Scalar`` division too."""
        if not other._prim:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._prim:
            return POLY_ZERO
        quo = _exact_quotient(self, other)
        if quo is None:
            raise ArithmeticError("inexact polynomial division")
        return quo

    def monic(self) -> PolyZ:
        if self.is_zero:
            return self
        return _poly(1, self._prim[-1], self._prim)

    @staticmethod
    def gcd(a: PolyZ, b: PolyZ) -> PolyZ:
        """Monic gcd, by the heuristic gcd of the primitive parts
        (``_cofactors``).

        When every evaluation point of ``_heuristic_gcd`` fails, the gcd
        comes from primitive Euclid (``_euclid_gcd``).
        """
        if not a._prim:
            return b.monic()
        if not b._prim:
            return a.monic()
        return _cofactors(a, b)[2]

    def evaluate(self, v) -> Fraction:
        v = _as_fraction(v)
        vn, vd = v.numerator, v.denominator
        prim = self._prim
        if not prim:
            return Fraction(0)
        # Horner on vd^deg * p(vn/vd), all in integers.
        acc, power = prim[-1], 1
        for c in reversed(prim[:-1]):
            power *= vd
            acc = acc * vn + c * power
        return Fraction(self._num * acc, self._den * power)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self._prim == other._prim and self._num == other._num
                and self._den == other._den)

    def __hash__(self):
        return hash(("PolyZ", self._num, self._den, self._prim))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        n, d, prim = self._num, self._den, self._prim
        if len(prim) <= 1:
            # A constant's content is the value, already in lowest terms.
            if d == 1:
                return str(n)
            return f"{n}/{d}"
        return _format_terms((_ratio(n * c, d), k)
                             for k, c in reversed(list(enumerate(prim))) if c)

    def __repr__(self):
        return f"PolyZ({self})"


def _poly(num: int, den: int, prim: tuple) -> PolyZ:
    """A PolyZ from parts that are already canonical; the unit is the one
    ``POLY_ONE`` object."""
    if len(prim) == 1 and num == den == 1:
        return POLY_ONE
    out = object.__new__(PolyZ)
    out._num, out._den, out._prim = num, den, prim
    return out


def _const(value) -> PolyZ:
    """The constant polynomial of an int or Fraction."""
    if not value:
        return POLY_ZERO
    return _poly(value.numerator, value.denominator, _UNIT)


def _normal(ints: list, num: int, den: int) -> PolyZ:
    """The PolyZ (num/den) * ints, for den > 0; ``ints`` is consumed."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints or not num:
        return POLY_ZERO
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [c // g for c in ints]
        num *= g
    h = gcd(num, den)
    return _poly(num // h, den // h, tuple(ints))


#: The longest shorter operand that ``_multiply`` takes by the classical
#: double loop; above it Kronecker packing is faster on coefficients of up
#: to a few dozen bits (measured in BENCH_schoolbook_cut.json).
_SCHOOLBOOK_MAX = 5


def _multiply(a: tuple, b: tuple) -> tuple:
    """Product of two nonzero integer polynomials, the one product kernel.

    When the shorter operand has at most ``_SCHOOLBOOK_MAX`` terms the
    classical double loop (``_schoolbook``) is faster than packing: its
    len(a) len(b) products are of the coefficients themselves, and it
    shifts no long integer (Knuth, TAOCP vol. 2, 4.3.3, on the classical
    method for short operands).  Longer operands go to ``_kronecker``.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) > _SCHOOLBOOK_MAX:
        return _kronecker(a, b)
    return _schoolbook(a, b)


def _sum_of_products(pairs) -> list:
    """sum a*b over pairs of integer polynomials, as a list of ints (an
    empty operand is zero, and the list may end in zeros): the fused kernel
    of one entry of a tableau held on ints.

    A product whose shorter operand has at most ``_SCHOOLBOOK_MAX`` terms
    is added into the sum by the double loop, so no product is built; a
    longer one comes from ``_multiply``, by Kronecker substitution.
    """
    out = []
    for a, b in pairs:
        if not a or not b:
            continue
        if len(a) > len(b):
            a, b = b, a
        size = len(a) + len(b) - 1
        if len(out) < size:
            out += [0] * (size - len(out))
        if len(a) > _SCHOOLBOOK_MAX:
            for i, c in enumerate(_multiply(a, b)):
                out[i] += c
            continue
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b, i):
                    out[j] += c * d
    return out


def _schoolbook(a, b) -> tuple:
    """Product of two nonzero integer polynomials by the classical double
    loop, one row per coefficient of ``a``, the shorter."""
    c = a[0]
    out = [c * d for d in b] + [0] * (len(a) - 1)
    for i in range(1, len(a)):
        c = a[i]
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return tuple(out)


def _kronecker(a: tuple, b: tuple) -> tuple:
    """Product of two integer polynomials by Kronecker substitution.

    Each is evaluated at z = 2^w, the two ints are multiplied once, and the
    product is read back by ``_unpack``.  The slot width bounds every
    product coefficient by 2^(w-1) in absolute value, so the digits are the
    coefficients.
    """
    w = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
         + min(len(a), len(b)).bit_length() + 1)
    pa = _pack(a, w)
    return tuple(_unpack(pa * (pa if a is b else _pack(b, w)), w))


def _pack(a, w: int) -> int:
    """The integer polynomial ``a`` evaluated at z = 2^w."""
    v = 0
    for c in reversed(a):
        v = (v << w) + c
    return v


def _unpack(v: int, w: int) -> list:
    """The digits of ``v`` in base 2^w, each in [-2^(w-1), 2^(w-1)), lowest
    first: a slot read at 2^(w-1) or above is a negative digit, which
    borrows 1 from the slots above it.

    A nonzero v needs w >= 2: at w = 1 the range [-1, 0) has no digit for
    1, so a positive v would borrow back to itself forever.
    """
    if w < 2 and v:
        raise ValueError(f"slot width {w} is below 2")
    mask, half = (1 << w) - 1, 1 << (w - 1)
    out = []
    while v:
        c = v & mask
        v >>= w
        if c >= half:
            c -= mask + 1
            v += 1
        out.append(c)
    return out


#: Evaluation points the heuristic gcd tries (the first and up to six
#: growing ones) before it falls back to primitive Euclid.
_HEURISTIC_POINTS = 7


def _heuristic_gcd(a: tuple, b: tuple):
    """(h, a/h, b/h) for h the primitive gcd of two primitive integer
    polynomials, or None.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): at an
    integer xi >= 2 min(|a|, |b|) + 2 (max norms), the symmetric xi-adic
    digits of the integer gcd of a(xi) and b(xi) form a candidate whose
    primitive part, if it divides both a and b, is their gcd.  Here xi is a
    power of two, so evaluation packs and the digits unpack as in
    ``_kronecker``, and it is wide enough for both inputs and, as a rule,
    their cofactors: then ``_divides`` proves each division from the slot
    bounds alone, and the cofactors are the digits it proved.  A candidate
    that fails the proof makes xi grow; None comes back after
    ``_HEURISTIC_POINTS`` points.  A unit gcd is the ``_UNIT`` object.
    """
    if len(a) == 1 or len(b) == 1:
        return _UNIT, a, b
    # 2^w > 2 max(|a|, |b|) + 2, with a few bits to spare for the
    # cofactors; no root of a or b is that large, so neither value is 0.
    w = (max(max(map(abs, a)), max(map(abs, b))).bit_length()
         + max(len(a), len(b)).bit_length() + 3)
    for _ in range(_HEURISTIC_POINTS):
        va, vb = _pack(a, w), _pack(b, w)
        g = gcd(va, vb)
        # b(xi) | a(xi) makes b itself the candidate (and vice versa), and
        # it divides itself.
        if g == vb:
            qa = _divides(b, a, va // g, w)
            if qa is not None:
                return b, qa, _UNIT
        elif g == va:
            qb = _divides(a, b, vb // g, w)
            if qb is not None:
                return a, _UNIT, qb
        else:
            h = _unpack(g, w)
            c = gcd(*h)
            if c != 1:
                h = [x // c for x in h]
            if len(h) == 1:
                return _UNIT, a, b
            hv = _pack(h, w)
            qa = _divides(h, a, va // hv, w)
            if qa is not None:
                qb = _divides(h, b, vb // hv, w)
                if qb is not None:
                    return tuple(h), qa, qb
        w += w // 4 + 2
    return None


def _divides(h, a: tuple, cofactor: int, w: int):
    """The quotient a/h if h divides a, else None, given cofactor =
    a(2^w)/h(2^w), an integer, and a width w with every coefficient of a
    below 2^(w-1) in absolute value.

    The digits q of ``cofactor`` satisfy h(2^w) q(2^w) = a(2^w).  When the
    coefficients of h*q lie below 2^(w-1) as well, both sides are read off
    the same digits, so h*q = a and q is the quotient; the bound
    |(h*q)_k| <= min(len h, len q) |h| |q| proves it without a product.
    Otherwise one product decides.
    """
    q = _unpack(cofactor, w)
    if len(q) + len(h) - 1 != len(a):
        return None
    q = tuple(q)
    if (max(map(abs, h)).bit_length() + max(map(abs, q)).bit_length()
            + min(len(h), len(q)).bit_length() < w):
        return q
    return q if _multiply(h, q) == a else None


def _exact_quotient(a: PolyZ, b: PolyZ) -> PolyZ | None:
    """a/b when b divides a != 0 in Q[z], else None: the one exact division.

    The primitive parts have positive leading coefficients, so by Gauss's
    lemma an exact quotient of theirs is a primitive integer polynomial q
    with a positive leading coefficient: the long division divides exactly
    by lc(b) at every step.  It gives up before the first step when b(0)
    does not divide a(0), since a(0) = b(0) q(0); at the first step that
    does not divide exactly; and when the remainder left below deg b is
    not zero.  The quotient's content is (an bd)/(ad bn), reduced by one
    integer gcd, for contents an/ad of a and bn/bd of b, so no polynomial
    gcd is taken.
    """
    p, d = a._prim, b._prim
    low = len(d) - 1
    top = len(p) - 1 - low
    if top < 0 or (p[0] % d[0] if d[0] else p[0]):
        return None
    lead = d[-1]
    rem = list(p)
    quo = [0] * (top + 1)
    for k in range(top, -1, -1):
        c, r = divmod(rem[k + low], lead)
        if r:
            return None
        if c:
            quo[k] = c
            for j in range(low):
                rem[k + j] -= c * d[j]
    if any(rem[:low]):
        return None
    n, den = a._num * b._den, a._den * b._num
    if den < 0:
        n, den = -n, -den
    g = gcd(n, den)
    return _poly(n // g, den // g, tuple(quo))


def _cofactors(a: PolyZ, b: PolyZ) -> tuple[PolyZ, PolyZ, PolyZ]:
    """(a/h, b/h, h) for nonzero a and b, with h their monic gcd.

    The quotients are the cofactors ``_heuristic_gcd`` proved; only when
    every evaluation point fails do primitive Euclid and two exact
    divisions give them.  This is the one place where a gcd is followed by
    a division.  A unit gcd gives a and b themselves and ``POLY_ONE``.
    """
    found = _heuristic_gcd(a._prim, b._prim)
    if found is None:
        h = _euclid_gcd(a, b)
        if not h.degree:
            return a, b, POLY_ONE
        return a.exact_div(h), b.exact_div(h), h
    h, qa, qb = found
    if h is _UNIT:
        return a, b, POLY_ONE
    # a = (n/d) h qa with h primitive, so a over the monic h/lead is
    # (n lead/d) qa; qa is primitive with a positive leading coefficient.
    lead = h[-1]
    out = []
    for p, q in ((a, qa), (b, qb)):
        n, d = p._num * lead, p._den
        g = gcd(n, d)
        out.append(_poly(n // g, d // g, q))
    return out[0], out[1], _poly(1, lead, h)


def _clear_denominators(xs) -> tuple[PolyZ, tuple[PolyZ, ...]]:
    """(d, numerators x * d) for the sequence of Scalars xs, d the lcm of
    their denominators.

    d is ``POLY_ONE`` itself, and the numerators are the xs' own, when every
    x is a polynomial; otherwise d is divided once by each distinct
    denominator.
    """
    d = POLY_ONE
    for x in xs:
        if x.den is not POLY_ONE:
            d = d * _cofactors(d, x.den)[1]
    if d is POLY_ONE:
        return d, tuple(x.num for x in xs)
    quotients = {POLY_ONE: d}
    out = []
    for x in xs:
        q = quotients.get(x.den)
        if q is None:
            q = quotients[x.den] = d.exact_div(x.den)
        out.append(x.num * q)
    return d, tuple(out)


def _clear_contents(polys) -> tuple[int, list[list[int]]]:
    """(e, [e p as ascending ints]) for PolyZ values p, e > 0 the lcm of
    the denominators of their contents: the least integer that takes every
    p into Z[z]."""
    e = lcm(*(p._den for p in polys))
    return e, [[c * (p._num * (e // p._den)) for c in p._prim] for p in polys]


def _rational_scalars(ns, d: int) -> list[Scalar]:
    """The Scalars n/d for ints n over one d > 0: one gcd each, none when
    d = 1, and no call per value."""
    new = object.__new__
    out = []
    for n in ns:
        if not n:
            out.append(ZERO)
            continue
        if n == d:
            p = POLY_ONE
        else:
            g = gcd(n, d) if d != 1 else 1
            p = new(PolyZ)
            p._num, p._den, p._prim = n // g, d // g, _UNIT
        s = new(Scalar)
        s.num, s.den = p, POLY_ONE
        out.append(s)
    return out


def _integer(s: Scalar) -> int | None:
    """The value of ``s`` as an int, or None when it is not an integer."""
    p = s.num
    if s.den is not POLY_ONE or len(p._prim) > 1 or p._den != 1:
        return None
    return p._num


def _euclid_gcd(a: PolyZ, b: PolyZ) -> PolyZ:
    """Monic gcd by primitive Euclid: every remainder is kept primitive."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


_UNIT = (1,)

POLY_ONE = object.__new__(PolyZ)
POLY_ONE._num, POLY_ONE._den, POLY_ONE._prim = 1, 1, _UNIT
POLY_ZERO = _poly(0, 1, ())
POLY_Z = _poly(1, 1, (0, 1))


class Scalar:
    """Element of the fraction field Q(z), always in reduced canonical form.

    The denominator is monic and coprime to the numerator; a polynomial
    (in particular a pure rational) has the one ``POLY_ONE`` object as its
    denominator, so ``is_polynomial`` is an identity test.  Values are
    immutable.

    Its numerator is the one ``POLY_ONE`` when the value is 1.  The
    constructor ``Scalar(num, den)`` is the quotient of the polynomials
    num and den by ``/``.  Arithmetic keeps the operands' canonical form
    (Henrici; Knuth, TAOCP vol. 2, 4.5.1): a sum over coprime
    denominators is already canonical and otherwise cancels only against
    g = gcd of the denominators, and a product cross-cancels each
    numerator with the other denominator.  A quotient of two polynomials,
    the divisor not a constant, is first tried as an exact division
    (``_exact_quotient``), which takes no gcd; only when it fails is the
    numerator cross-cancelled with the divisor.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=None):
        num = self._as_poly(num)
        den = POLY_ONE if den is None else self._as_poly(den)
        if den is not POLY_ONE:
            q = _polynomial(num) / _polynomial(den)
            num, den = q.num, q.den
        self.num: PolyZ = num
        self.den: PolyZ = den

    @staticmethod
    def _as_poly(value) -> PolyZ:
        if isinstance(value, PolyZ):
            # A public PolyZ([1]) is a unit of its own; a Scalar holds POLY_ONE.
            return POLY_ONE if value._prim == _UNIT and value._num == value._den else value
        if isinstance(value, (int, Fraction)):
            return _const(value)
        raise TypeError(f"cannot build Scalar from {type(value).__name__}")

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction, PolyZ)):
            return cls(other)
        return None

    @property
    def is_zero(self) -> bool:
        return not self.num._prim

    @property
    def is_polynomial(self) -> bool:
        return self.den is POLY_ONE

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; raises when z actually occurs."""
        if not self.is_polynomial or self.num.degree > 0:
            raise ValueError(f"scalar {self} is not a plain rational")
        return self.num.coefficient(0)

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.den is POLY_ONE and other.den is POLY_ONE:
            return _polynomial(self.num + other.num)
        return _sum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return _canonical(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, int):
                # An integer scales the numerator's content.
                return _canonical(self.num._times(other, 1), self.den) if other else ZERO
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.den is POLY_ONE and other.den is POLY_ONE:
            return _polynomial(self.num * other.num)
        if not self.num._prim or not other.num._prim:
            return ZERO
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            if not other:
                raise ZeroDivisionError("scalar division by zero")
            return _canonical(self.num._times(1, other), self.den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        o = other.num
        if other.den is POLY_ONE and len(o._prim) == 1:
            # A rational constant only scales the numerator's content; the
            # denominator stays monic and coprime to it.
            return _canonical(self.num._times(o._den, o._num), self.den)
        if not self.num._prim:
            return ZERO
        if self.den is POLY_ONE and other.den is POLY_ONE:
            q = _exact_quotient(self.num, o)
            if q is not None:
                return _polynomial(q)
        return _product(self.num, self.den, *_inverse(other))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int) -> Scalar:
        if not isinstance(exponent, int):
            raise ValueError("scalar power needs an integer exponent")
        num, den = self.num, self.den
        if exponent < 0:
            if self.is_zero:
                raise ZeroDivisionError("scalar division by zero")
            num, den = _inverse(self)
            exponent = -exponent
        # Powers of coprime polynomials are coprime, and of a monic one monic.
        return _canonical(num**exponent, den**exponent)

    def eval_z(self, v) -> Fraction:
        """Specialize z to a rational value; the denominator must not vanish."""
        v = _as_fraction(v)
        dv = self.den.evaluate(v)
        if dv == 0:
            raise ZeroDivisionError(f"pole at z = {v}")
        return self.num.evaluate(v) / dv

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("Scalar", self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"Scalar({self})"


def _as_scalar(value, what: str = "a scalar") -> Scalar:
    """``value`` as a Scalar; a TypeError names ``what`` it was meant to be."""
    if isinstance(value, Scalar):
        return value
    s = Scalar._coerce(value)
    if s is None:
        raise TypeError(f"cannot use {type(value).__name__} as {what}")
    return s


def _canonical(num: PolyZ, den: PolyZ) -> Scalar:
    """The Scalar num/den from parts that are already in canonical form."""
    out = object.__new__(Scalar)
    out.num, out.den = num, den
    return out


def _polynomial(num: PolyZ) -> Scalar:
    """The Scalar num/1; a polynomial needs no canonicalisation."""
    return _canonical(num, POLY_ONE)


def _inverse(s: Scalar) -> tuple[PolyZ, PolyZ]:
    """The coprime numerator and monic denominator of 1/s, for s != 0."""
    n = s.num
    prim = n._prim
    num = s.den._times(n._den, n._num * prim[-1])
    return num, _poly(1, prim[-1], prim)


# Henrici's rules (Knuth, TAOCP vol. 2, 4.5.1) for canonical fractions: each
# gcd is taken of the small operands, and no full product is canonicalised.

def _sum(an: PolyZ, ad: PolyZ, bn: PolyZ, bd: PolyZ) -> Scalar:
    """an/ad + bn/bd, for canonical fractions not both polynomials.

    With g = gcd(ad, bd) the sum is t / ((ad/g) bd), t = an (bd/g) +
    bn (ad/g).  For g = 1 that is canonical; otherwise only gcd(t, g) can
    cancel.
    """
    if ad is POLY_ONE:
        return _canonical(an * bd + bn, bd)
    if bd is POLY_ONE:
        return _canonical(an + bn * ad, ad)
    ra, rb, g = _cofactors(ad, bd)
    t = an * rb + bn * ra
    if g is POLY_ONE:
        return _canonical(t, ad * bd)
    if not t._prim:
        return ZERO
    t, g, _ = _cofactors(t, g)
    return _canonical(t, ra * rb * g)


def _product(an: PolyZ, ad: PolyZ, bn: PolyZ, bd: PolyZ) -> Scalar:
    """(an/ad)(bn/bd), for canonical fractions with nonzero numerators:
    an is cross-cancelled with bd and bn with ad."""
    if ad is not POLY_ONE:
        bn, ad, _ = _cofactors(bn, ad)
    if bd is not POLY_ONE:
        an, bd, _ = _cofactors(an, bd)
    return _canonical(an * bn, ad * bd)


def dot(pairs) -> Scalar:
    """The exact sum of x*y over an iterable of (x, y) Scalar pairs.

    Products of two polynomials are fused: their integer coefficients are
    added over a running common denominator (the constant products into one
    int, the others into one vector), and the sum is normalised once at the
    end, so no Scalar is built per term.  A pair with a rational-function
    factor is multiplied and added as Scalars, by Henrici's rules
    (``_product`` and ``_sum``).  Pairs with a zero factor are skipped.
    """
    one = POLY_ONE
    den, const, vec = 1, 0, []
    rest = None
    for x, y in pairs:
        xn, yn = x.num, y.num
        xp, yp = xn._prim, yn._prim
        if not xp or not yp:
            continue
        if x.den is not one or y.den is not one:
            rest = x * y if rest is None else rest + x * y
            continue
        d = xn._den * yn._den
        if den % d:
            m = d // gcd(den, d)
            const *= m
            vec = [c * m for c in vec]
            den *= m
        c = xn._num * yn._num * (den // d)
        # The primitive part of a constant is (1,).
        if len(xp) == 1:
            if len(yp) == 1:
                const += c
                continue
            prim = yp
        elif len(yp) == 1:
            prim = xp
        else:
            prim = _multiply(xp, yp)
        if len(prim) > len(vec):
            vec += [0] * (len(prim) - len(vec))
        for i, v in enumerate(prim):
            vec[i] += c * v
    if vec:
        vec[0] += const
        total = _polynomial(_normal(vec, 1, den))
    elif const:
        g = gcd(const, den)
        total = _polynomial(_poly(const // g, den // g, _UNIT))
    else:
        total = ZERO
    return total if rest is None else total + rest


def solve_lower(rows, rhs) -> list[tuple[Scalar, ...]]:
    """x_0 .. x_{len(rhs)-1} with sum_{j<=m} rows[m][j] x_j = rhs[m], exactly.

    Forward substitution against a lower-triangular matrix; entries above
    the diagonal are not read.  rhs[m] holds one entry per right-hand side
    and so does x_m.  Each row forms -rows[m][j]/rows[m][m] once for its
    nonzero subdiagonal entries, then each entry of x_m is one ``dot``.
    """
    x: list[tuple[Scalar, ...]] = []
    for m, b in enumerate(rhs):
        row = rows[m]
        if row[m].is_zero:
            raise ZeroDivisionError(f"singular diagonal entry at ({m}, {m})")
        inv = ONE / row[m]
        terms = [(x[j], -row[j] * inv) for j in range(m) if not row[j].is_zero]
        x.append(tuple(dot([(bk, inv)] + [(xj[k], c) for xj, c in terms])
                       for k, bk in enumerate(b)))
    return x


ZERO = Scalar(0)
ONE = Scalar(1)
Z = Scalar(POLY_Z)
