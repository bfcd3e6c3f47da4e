"""Exact arithmetic in a real quadratic field with a chosen p-adic embedding.

A QuadElement is x + y*sqrt(D) together with two embedding choices fixed at
construction: which real square root of D the real embedding uses, and which
residue mod p the p-adic square root reduces to.

The public functions here are thin wrappers over three integer kernels on
(n + y*sqrt(D)) / m with n, y and m in Z[1/p] (`_surd_triple`): its p-adic
order, read off the orders of n and y and of the norm n**2 - D*y**2
(`_surd_ord`); its image modulo a power of p, given a root of D lifted that
far (`_surd_image`); and the floor of a real surd (x + w*sqrt(D)) / g, with
one integer square root (`_surd_floor`). The quadratic Sylvester driver in
expansion.py steps such a triple and calls the same kernels, so no Fraction
or QuadElement arithmetic runs in its loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .digits import DigitExpansion, _simple_root, frac_part_k, hensel_sqrt
from .errors import DivByZero, EmbeddingMismatch, EvenPrime, PrecisionExhausted
from .valuation import PLocal, POS_INF, Prime, ord_p

# Hard cap on the width, in base-p digits, of one digit window of a
# quadratic element; wider requests raise PrecisionExhausted.
PRECISION_CAP = 1 << 16


def _square_free(n: int) -> tuple[int, int]:
    """Write n = s*s * D with D squarefree; returns (s, D). Trial division."""
    s, free = 1, 1
    m = n
    f = 2
    while f * f <= m:
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
    """x + y*sqrt(D), D a squarefree integer >= 2, with fixed embedding data.

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
        Q(sqrt(D)) with D squarefree and rewriting y and the residue.

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


def _sign(f: Fraction) -> int:
    return (f > 0) - (f < 0)


def real_compare(u: QuadElement, q) -> int:
    """Sign of psi(u) - q, decided exactly: -1, 0 or +1.

    Zero occurs only for rational elements equal to q; otherwise the sign is
    settled by comparing squares of the rational and radical parts.
    """
    q = Fraction(q)
    t = u.x - q
    w = u.y * u.real_sign
    if w == 0:
        return _sign(t)
    if t == 0:
        return _sign(w)
    if t > 0 and w > 0:
        return 1
    if t < 0 and w < 0:
        return -1
    lhs = t * t
    rhs = w * w * u.D
    # Equality would make sqrt(D) rational, impossible for squarefree D >= 2.
    if lhs == rhs:
        raise RuntimeError(f"sqrt({u.D}) compared equal to a rational")
    if t > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def _surd_floor(x: int, w: int, g: int, D: int) -> int:
    """floor((x + w*sqrt(D)) / g) for integers x, w and g > 0, D not a square."""
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


def _surd_ord(n: PLocal, y: PLocal, D: int, residue: int) -> tuple[int, PLocal]:
    """(o, norm): the p-adic order o of n + y*sqrt(D), for n and y in Z[1/p]
    not both zero and sqrt(D) = residue (mod p), and the norm
    n**2 - D*y**2 it is read off.

    The ultrametric settles every case except equal orders e. There p is
    odd, so n + y*sqrt(D) and its conjugate add up to 2n, of order exactly e:
    at most one of the two has order above e, and their orders add up to the
    norm's. The digit at p**e decides which.
    """
    norm = n * n - D * (y * y)
    e = n.ord()
    if e != y.ord():
        return min(e, y.ord()), norm
    if (n.unit + y.unit * residue) % n.p:
        return e, norm
    return norm.exp - e, norm


def _surd_image(n: PLocal, y: PLocal, root: int, shift: int, modulus: int) -> int:
    """Image of (n + y*sqrt(D)) / p**shift modulo `modulus`, a power of p,
    with root = sqrt(D) mod modulus. shift must keep both terms p-integral."""
    p = n.p
    image = n.unit * p ** (n.exp - shift) if n else 0
    if y:
        image += y.unit * p ** (y.exp - shift) * root
    return image % modulus


def _check_width(width: int) -> None:
    if width > PRECISION_CAP:
        raise PrecisionExhausted(
            f"digit window of {width} exceeds the {PRECISION_CAP}-digit cap"
        )


def _image_mod(u: QuadElement, end: int) -> tuple[int, int]:
    """(mu, image): the least order mu of u's coefficients and the p-adic
    image of u * p**(-mu) modulo p**(end - mu), i.e. u's digits from mu up to
    index end.

    Scaling by p**(-mu) keeps both coefficients p-integral, which the image
    order may not: cancellation can push quad_ord(u) above mu. sqrt(D) is
    lifted to the same width; widths beyond PRECISION_CAP raise
    PrecisionExhausted.
    """
    n, y, m = _surd_triple(u)
    shift = min(n.ord(), y.ord())
    mu = shift - m.exp
    width = end - mu
    _check_width(width)
    modulus = u.p**width
    root = hensel_sqrt(u.p, u.D, u.residue, width)
    image = _surd_image(n, y, root, shift, modulus)
    return mu, image * pow(m.unit, -1, modulus) % modulus


def quad_ord(u: QuadElement) -> int:
    """p-adic order of the image of u, exact, with no working precision.

    The coefficients' orders decide it unless they are equal; then the
    norm x**2 - D*y**2 does (see _surd_ord).
    """
    if u.is_zero():
        raise DivByZero("order of the zero element")
    n, y, m = _surd_triple(u)
    if n.ord() == y.ord():
        _simple_root(u.p, u.D, u.residue)
    return _surd_ord(n, y, u.D, u.residue)[0] - m.exp


def quad_frac_part_k(u: QuadElement, k: int) -> PLocal:
    """Digit sum of the p-adic image of u through index k-1, as an element of Z[1/p].

    Agrees with digits.frac_part_k when u is rational. An empty digit window
    (quad_ord(u) >= k) gives zero.
    """
    if u.is_zero():
        raise DivByZero("fractional part of the zero element")
    if u.y == 0:
        return frac_part_k(u.p, k, u.x)
    o = quad_ord(u)
    if o >= k:
        return PLocal.zero(u.p)
    # Digits of u in [mu, o) are zero, so the image carries exactly the [o, k) window.
    mu, image = _image_mod(u, k)
    return PLocal(u.p, image, mu)


def quad_digits(u: QuadElement, count: int) -> DigitExpansion:
    """First `count` base-p digits of the image of u, starting at quad_ord(u)."""
    if count <= 0:
        raise ValueError("count must be positive")
    if u.is_zero():
        return DigitExpansion(u.p, 0, ())
    o = quad_ord(u)
    mu, n = _image_mod(u, o + count)
    n //= u.p ** (o - mu)
    digits = []
    for _ in range(count):
        n, c = divmod(n, u.p)
        digits.append(c)
    return DigitExpansion(u.p, o, tuple(digits))
