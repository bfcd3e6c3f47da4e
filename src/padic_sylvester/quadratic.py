"""Exact arithmetic in a real quadratic field with a chosen p-adic embedding.

A QuadElement is x + y*sqrt(D) together with two embedding choices fixed at
construction: which real square root of D the real embedding uses, and which
residue mod p the p-adic square root reduces to.

The public functions here are thin wrappers over three integer kernels on
(n + y*sqrt(D)) / m with n, y and m in Z[1/p] (`_surd_triple`): its p-adic
order o, read off the orders of n and y and of the norm n**2 - D*y**2
(`_surd_ord`, which takes an optional lower bound for o, the floor: the
Sylvester driver and verify both pass the growth bound k + 2*ord(previous
tail), so the norm's power of p comes out with one exact division and is
not searched for from scratch); its unit part p**-o * (n + y*sqrt(D)) / m as
a ratio num/den of p-adic integer units, given a root of D lifted far enough
(`_surd_ratio`);
and the floor of a real surd (x + w*sqrt(D)) / g (`_surd_floor`), from
sqrt(D) taken only to the bits the quotient by g needs: a certified interval
settles the floor, and an exact integer square root of w*w*D runs only
where it cannot. A digit window is then digits._window(p, num, den, w),
the one window of the library, and the window of 1/z is that of den/num.
The quadratic Sylvester step (`_sylvester_terms`, which expansion.py's step
loop calls) works on such a triple with the same kernels, so no Fraction or
QuadElement arithmetic runs in its loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .digits import (DigitExpansion, _lift_inv_sqrt, _mod, _read_digits, _simple_root, _window,
                     hensel_sqrt)
from .errors import DivByZero, EmbeddingMismatch, EvenPrime, PrecisionExhausted
from .valuation import PLocal, POS_INF, Prime, _strip, ord_p

# Hard cap on the width, in base-p digits, of one digit window of a
# quadratic element; wider requests raise PrecisionExhausted.
PRECISION_CAP = 1 << 16
# Trial division stops here, so a radicand with a wide prime factor costs
# ~2**19 divisions, not its square root.
_TRIAL_BOUND = 1 << 20


def _square_free(n: int) -> tuple[int, int]:
    """Write n = s*s * D; returns (s, D). Trial division below _TRIAL_BOUND
    takes out the squares of those factors, and the cofactor left above it
    stays in D: D is squarefree unless n has a square factor above it."""
    s, free = 1, 1
    m = n
    f = 2
    while f * f <= m and f < _TRIAL_BOUND:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                free *= f
        f += 1 if f == 2 else 2
    return s, free * m


def _is_rational_square(d: Fraction) -> bool:
    if d < 0:
        return False
    rn = isqrt(d.numerator)
    rd = isqrt(d.denominator)
    return rn * rn == d.numerator and rd * rd == d.denominator


class QuadElement:
    """x + y*sqrt(D), D >= 2 not a square and squarefree up to _square_free's
    bound, with fixed embedding data.

    real_sign is +1 or -1 and selects which real root of D the embedding
    psi sends sqrt(D) to; residue is the chosen value of sqrt(D) mod p.
    Elements are immutable; combining elements whose (D, real_sign, p,
    residue) differ raises EmbeddingMismatch.
    """

    __slots__ = ("x", "y", "D", "real_sign", "p", "residue")

    def __init__(self, x, y, D: int, real_sign: int, p: Prime, residue: int):
        self.x = Fraction(x)
        self.y = Fraction(y)
        self.D = int(D)
        self.real_sign = 1 if real_sign >= 0 else -1
        self.p = p
        self.residue = int(residue) % p

    @classmethod
    def make(cls, x, y, d, real_sign, p: Prime, residue: int) -> "QuadElement":
        """Build x + y*sqrt(d) for rational d > 0, normalizing the field to
        Q(sqrt(D)) with D from _square_free and rewriting y and the residue.

        real_sign may be +1/-1 or the strings "+"/"-". residue must satisfy
        residue**2 = d (mod p); it pins the p-adic square root of d.
        """
        if p == 2:
            raise EvenPrime("p = 2 quadratic embeddings are not supported")
        x, y, d = Fraction(x), Fraction(y), Fraction(d)
        if isinstance(real_sign, str):
            if real_sign not in ("+", "-"):
                raise ValueError(f"real_sign must be '+' or '-', got {real_sign!r}")
            real_sign = 1 if real_sign == "+" else -1
        if d <= 0:
            raise ValueError("d must be positive")
        if _is_rational_square(d):
            raise ValueError(f"{d} is a rational square; the field would be Q")
        if ord_p(p, d) != 0:
            raise ValueError(f"ord_{int(p)}({d}) must be 0")
        u, v = d.numerator, d.denominator
        residue = int(residue) % p
        if (residue * residue * v - u) % p != 0:
            raise ValueError(f"{residue}**2 is not {d} mod {int(p)}")
        s, D = _square_free(u * v)
        # sqrt(d) = (s/v) * sqrt(D), so rescale the coefficient and residue.
        y = y * Fraction(s, v)
        res_D = residue * v % p * pow(s, -1, p) % p
        return cls(x, y, D, real_sign, p, res_D)

    def _context(self):
        return (self.D, self.real_sign, self.p, self.residue)

    def _check(self, other: "QuadElement") -> None:
        if self._context() != other._context():
            raise EmbeddingMismatch(
                f"cannot combine elements over sqrt({self.D}) and sqrt({other.D}) "
                "with different embedding data"
            )

    def _wrap(self, x, y) -> "QuadElement":
        return QuadElement(x, y, self.D, self.real_sign, self.p, self.residue)

    def _coerce(self, other):
        if isinstance(other, QuadElement):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self._wrap(Fraction(other), Fraction(0))
        if isinstance(other, PLocal):
            return self._wrap(other.to_fraction(), Fraction(0))
        return None

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def ord(self):
        """p-adic order of the image, POS_INF for zero, as PLocal.ord()."""
        return POS_INF if self.is_zero() else quad_ord(self)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(self.x + other.x, self.y + other.y)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return self._wrap(-self.x, -self.y)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(self.x - other.x, self.y - other.y)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(
            self.x * other.x + self.y * other.y * self.D,
            self.x * other.y + self.y * other.x,
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self) -> "QuadElement":
        """Exact reciprocal via conjugation: 1/(x+y*sqrt(D)) = (x-y*sqrt(D))/(x^2-y^2 D)."""
        if self.is_zero():
            raise DivByZero("reciprocal of zero quadratic element")
        n = self.x * self.x - self.y * self.y * self.D
        return self._wrap(self.x / n, -self.y / n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__mul__(other.inv())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.y == 0 and self.x == other
        if not isinstance(other, QuadElement):
            return NotImplemented
        return self._context() == other._context() and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y) + self._context())

    def __str__(self) -> str:
        return f"{self.x} + {self.y}*sqrt({self.D})"

    def __repr__(self) -> str:
        sign = "+" if self.real_sign > 0 else "-"
        return (
            f"QuadElement({self.x}, {self.y}, D={self.D}, real_sign={sign}, "
            f"p={int(self.p)}, residue={self.residue})"
        )


def real_compare(u: QuadElement, q) -> int:
    """Sign of psi(u) - q, decided exactly: -1, 0 or +1.

    Zero occurs only for rational elements equal to q. Otherwise psi(u) - q
    is irrational, never an integer, so its sign is that of its floor >= 0.
    """
    q = Fraction(q)
    if u.y == 0:
        return (u.x > q) - (u.x < q)
    return 1 if real_floor(u - q) >= 0 else -1


# Bits of sqrt(D) that _surd_floor takes beyond those the quotient by g
# needs: an interval too wide to settle the floor then has odds near 2**-31.
_FLOOR_GUARD = 32


def _surd_floor(x: int, w: int, g: int, D: int) -> int:
    """floor((x + w*sqrt(D)) / g) for integers x, w and g > 0, D not a square.

    The quotient by g needs only about bits(w) - bits(g) bits of w*sqrt(D)
    past its point, so sqrt(D) is taken to N = bits(w) - bits(g) + guard
    bits, N >= 0: s = isqrt(D << 2N) has s <= sqrt(D)*2**N < s + 1, and
    floor(|w|*sqrt(D)) lies between lo = (|w|*s) >> N and
    hi = (|w|*s + |w|) >> N (for w < 0, floor(w*sqrt(D)) between -hi-1 and
    -lo-1, as w*sqrt(D) is irrational). When x + lo and x + hi have one
    quotient by g, that is the floor. Otherwise, and when N would reach
    bits(w) (a narrow g, where the short root saves nothing), it is read off
    the exact isqrt(w*w*D). The result never depends on the guard.
    """
    a = abs(w)
    n = max(0, a.bit_length() - g.bit_length() + _FLOOR_GUARD)
    if n < a.bit_length():
        ws = a * isqrt(D << 2 * n)  # a*sqrt(D)*2**n lies in (ws, ws + a)
        lo, hi = ws >> n, (ws + a) >> n
        if w < 0:
            lo, hi = -hi - 1, -lo - 1
        f, r = divmod(x + lo, g)
        if r + hi - lo < g:
            return f
    t = w * w * D
    # w*sqrt(D) is irrational, so floor(sqrt(t)) never needs the exact case.
    f = isqrt(t) if w >= 0 else -isqrt(t) - 1
    return (x + f) // g


def real_floor(u: QuadElement) -> int:
    """Exact floor of psi(u), via integer square roots."""
    w = u.y * u.real_sign
    return _surd_floor(
        u.x.numerator * w.denominator,
        w.numerator * u.x.denominator,
        u.x.denominator * w.denominator,
        u.D,
    )


def real_ceil(u: QuadElement) -> int:
    """Least integer n with n >= psi(u) (the standard ceiling)."""
    return -real_floor(-u)


def _surd_triple(u: QuadElement) -> tuple[PLocal, PLocal, PLocal]:
    """(n, y, m) with u = (n + y*sqrt(D)) / m: the numerators of u's
    coefficients over their least common denominator m, in Z[1/p]."""
    x, y = u.x, u.y
    m = x.denominator // gcd(x.denominator, y.denominator) * y.denominator
    return (
        PLocal(u.p, x.numerator * (m // x.denominator)),
        PLocal(u.p, y.numerator * (m // y.denominator)),
        PLocal(u.p, m),
    )


def _surd_ord(
    n: PLocal, y: PLocal, m: PLocal, D: int, residue: int, floor: "int | None" = None
) -> tuple[int, PLocal]:
    """(o, norm): the p-adic order o of z = (n + y*sqrt(D)) / m, for n and y
    in Z[1/p] not both zero and sqrt(D) = residue (mod p), and the norm
    n**2 - D*y**2 it is read off. floor, if given, is a lower bound for o;
    the result never depends on it.

    The ultrametric settles every case except equal orders e. There p is
    odd, so n + y*sqrt(D) and its conjugate add up to 2n, of order exactly e:
    at most one of the two has order above e, and their orders add up to the
    norm's. The digit at p**e decides which. The norm is then the integer
    n.unit**2 - D*y.unit**2 times p**(2e), of order o + m.exp + e >=
    e + max(e, floor + m.exp) when n + y*sqrt(D) is the one that cancels, so
    one exact division by the power of p the floor promises leaves only a
    short strip (valuation._strip).
    """
    e = n.ord()
    if e != y.ord():
        return min(e, y.ord()) - m.exp, n * n - D * (y * y)
    p = n.p
    v, u = _strip(p, n.unit * n.unit - D * (y.unit * y.unit),
                  0 if floor is None else max(e, floor + m.exp) - e)
    norm = PLocal(p, u, 2 * e + v)
    if (n.unit + y.unit * residue) % p:
        return e - m.exp, norm
    return norm.exp - e - m.exp, norm


def _surd_ratio(
    n: PLocal, y: PLocal, m: PLocal, o: int, norm: PLocal, root: int
) -> tuple[int, int]:
    """(num, den), integers prime to p with num/den the unit part of
    z = (n + y*sqrt(D)) / m, given o = ord(z) and the norm (_surd_ord) and
    root = sqrt(D) modulo the window's power of p.

    With mu the least order of n and y, (n +- y*sqrt(D)) / p**mu is p-integral
    and its image is read off root. If n + y*sqrt(D) has order mu, that image
    is its unit. If it cancels further, the conjugate has order mu (the orders
    add up to the norm's), and n + y*sqrt(D) = norm / (n - y*sqrt(D)).
    """
    p = m.p
    mu = min(n.ord(), y.ord())

    def image(sign):
        x = n.unit * p ** (n.exp - mu) if n else 0
        return x + sign * y.unit * p ** (y.exp - mu) * root if y else x

    if o + m.exp == mu:
        return image(1), m.unit
    return norm.unit, m.unit * image(-1)


def _check_width(width: int) -> None:
    if width > PRECISION_CAP:
        raise PrecisionExhausted(
            f"digit window of {width} exceeds the {PRECISION_CAP}-digit cap"
        )


def _sylvester_terms(u: QuadElement, k: int):
    """term(n, y, m, o, norm): the Sylvester term of one run's step on u at
    the tail z = (n + y*sqrt(D)) / m over Z[1/p], of order o and norm
    n**2 - D*y**2 (_surd_ord). It corrects t = <1/z>_k into
    q = t + ceil((1 - t*psi(z)) / (p**k * psi(z))) * p**k. t is the window
    of z's unit ratio num/den inverted, one inverse modulo p**w, w = k + o,
    with sqrt(D) lifted from the previous step's root (as 1/sqrt(D), whose
    Newton step needs no inverse); the ceiling is one floor of a real surd.
    A check that a claimed term is the ceiling's, q >= 1/psi(z) > q - p**k,
    belongs beside it."""
    p, D, residue, sign = u.p, u.D, u.residue, u.real_sign
    root, inv_root, prec = 0, 0, 0  # sqrt(D) and 1/sqrt(D) mod p**prec

    def term(n, y, m, o, norm):
        nonlocal root, inv_root, prec
        w = k + o
        modulus = p**w
        if y:
            # The cap applies to the window of 1/z's coefficients, as
            # quad_frac_part_k(z.inv(), k) opens it.
            _check_width(k - (m.exp + min(n.ord(), y.ord()) - norm.exp))
            if not prec:
                inv_root, prec = pow(_simple_root(p, D, residue), -1, p), 1
            inv_root = _lift_inv_sqrt(p, D, inv_root, prec, w, modulus)
            prec = max(prec, w)
            root = _mod(D * inv_root, modulus)
        num, den = _surd_ratio(n, y, m, o, norm, root)
        t = _window(p, den, num, w, modulus)
        # The ceiling of psi((1/z - t) / p**k), with 1/z = m*(n - y*sqrt(D))/norm
        # and t*p**-o the window's value, is that of
        # (mn - t*norm - sign*my*sqrt(D)) / (norm*p**k).
        mn_e, tn_e, my_e, g_e = m.exp + n.exp, norm.exp - o, m.exp + y.exp, norm.exp + k
        e = min(mn_e, tn_e, my_e, g_e)
        x = m.unit * n.unit * p ** (mn_e - e) - t * norm.unit * p ** (tn_e - e)
        wy = -sign * m.unit * y.unit * p ** (my_e - e)
        g = norm.unit * p ** (g_e - e)
        if g < 0:
            x, wy, g = -x, -wy, -g
        c = -_surd_floor(-x, -wy, g, D)
        return PLocal(p, t + c * modulus, -o)

    return term


def _quad_window(u: QuadElement, k: "int | None", count: int = 0) -> tuple[int, int]:
    """(o, window) for nonzero u: o = quad_ord(u), and the integer whose
    base-p digits are those of u's image from index o up to k, or the first
    `count` of them when k is None; an empty window is 0.

    Coefficients of equal order need a simple root of D mod p to be read. A
    nonempty window is capped as if it opened at the least order of u's
    coefficients, wider than PRECISION_CAP raising PrecisionExhausted, and
    sqrt(D) is lifted to its own width.
    """
    n, y, m = _surd_triple(u)
    if n.ord() == y.ord():
        _simple_root(u.p, u.D, u.residue)
    o, norm = _surd_ord(n, y, m, u.D, u.residue)
    end = o + count if k is None else k
    if end <= o:
        return o, 0
    _check_width(end - (min(n.ord(), y.ord()) - m.exp))
    width = end - o
    root = hensel_sqrt(u.p, u.D, u.residue, width)
    return o, _window(u.p, *_surd_ratio(n, y, m, o, norm, root), width)


def quad_ord(u: QuadElement) -> int:
    """p-adic order of the image of u, exact, with no working precision.

    The coefficients' orders decide it unless they are equal; then the
    norm x**2 - D*y**2 does (see _surd_ord).
    """
    if u.is_zero():
        raise DivByZero("order of the zero element")
    return _quad_window(u, None)[0]


def quad_frac_part_k(u: QuadElement, k: int) -> PLocal:
    """Digit sum of the p-adic image of u through index k-1, as an element of Z[1/p].

    Agrees with digits.frac_part_k when u is rational. An empty digit window
    (quad_ord(u) >= k) gives zero; a nonempty one is capped and lifts sqrt(D)
    as in quad_digits, for a rational u too.
    """
    if u.is_zero():
        raise DivByZero("fractional part of the zero element")
    o, window = _quad_window(u, k)
    return PLocal(u.p, window, o)


def quad_digits(u: QuadElement, count: int) -> DigitExpansion:
    """First `count` base-p digits of the image of u, starting at quad_ord(u)."""
    if count <= 0:
        raise ValueError("count must be positive")
    if u.is_zero():
        return DigitExpansion(u.p, 0, ())
    o, window = _quad_window(u, None, count)
    return DigitExpansion(u.p, o, _read_digits(u.p, window, count))
