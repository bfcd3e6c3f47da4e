"""Base-p digit windows of p-adic units and square-root lifting mod p**m.

Every digit window in the library is one call of `_window`: for p-adic
units num and den, the first w base-p digits of num/den are those of the
single integer num * den**-1 mod p**w. The one inverse is `_inv_mod`, a
Newton iteration over halving widths, and `_read_digits` reads the digits
off by divmod by p; a wide reduction is `_mod`. A rational
r = (num/den) * p**start (`valuation._split`) opens its window at start; a
quadratic element opens its window through `quadratic._surd_ratio`. No
floating point is used.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import EvenPrime, NotAResidue
from .valuation import PLocal, Prime, _split, ord_p


class DigitExpansion(NamedTuple):
    """A finite window of base-p digits c_n, n = start, start+1, ...

    The first digit is nonzero unless the expanded value is zero, in which
    case the window is empty.
    """

    p: Prime
    start: int
    digits: tuple[int, ...]

    def value(self) -> Fraction:
        """Sum of c_n * p**n over the window."""
        total = Fraction(0)
        q = Fraction(self.p) ** self.start
        for c in self.digits:
            total += c * q
            q *= self.p
        return total

    def __str__(self) -> str:
        body = ",".join(str(c) for c in self.digits)
        return f"[{body}] from p^{self.start}"


def digits_of(p: Prime, r, count: int) -> DigitExpansion:
    """First `count` base-p digits of a rational, starting at n = ord_p(r).

    The reconstruction Sum c_n p**n agrees with r modulo p**(start+count).
    A zero input yields the empty window.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    r = Fraction(r)
    if r == 0:
        return DigitExpansion(p, 0, ())
    start, num, den = _split(p, r)
    return DigitExpansion(p, start, _read_digits(p, _window(p, num, den, count), count))


def frac_part_k(p: Prime, k: int, r) -> PLocal:
    """The digit sum Sum c_n p**n for n from ord_p(r) through k-1.

    This is the mod-p**k projection into Z[1/p]: the result lies in
    [0, p**k) as a real number and r minus the result has order >= k.
    k may be any integer; an empty window gives zero. A nonempty window
    starts with a nonzero digit, so the result's exponent is ord_p(r).
    """
    r = Fraction(r)
    if r == 0:
        return PLocal.zero(p)
    start, num, den = _split(p, r)
    if start >= k:
        return PLocal.zero(p)
    return PLocal(p, _window(p, num, den, k - start), start)


def frac_part(p: Prime, r) -> PLocal:
    """Fractional part: digits from ord_p(r) through 0, i.e. the k = 1 window."""
    return frac_part_k(p, 1, r)


def _window(p: Prime, num: int, den: int, width: int, modulus: "int | None" = None) -> int:
    """num * den**-1 mod p**width, for den prime to p and width >= 1: the
    first `width` base-p digits of the p-adic unit num/den as one integer.
    modulus, if given, is p**width, which a caller that already holds it
    passes down. num is reduced mod p**width before the product, so a num
    wider than the window costs one division, not a wide product."""
    if modulus is None:
        modulus = p**width
    return _mod(_mod(num, modulus) * _inv_mod(p, den, width, modulus), modulus)


def _mod(x: int, m: int) -> int:
    """x mod m for m > 0, as x % m: CPython 3.12 and later divide wide
    operands recursively (_pylong) in divmod, while % stays schoolbook."""
    return divmod(x, m)[1]


def _read_digits(p: Prime, n: int, count: int) -> tuple[int, ...]:
    """The lowest `count` base-p digits of n >= 0, least significant first."""
    digits = []
    for _ in range(count):
        n, c = divmod(n, p)
        digits.append(c)
    return tuple(digits)


def _residue(d, modulus: int) -> int:
    d = Fraction(d)
    return d.numerator * pow(d.denominator, -1, modulus) % modulus


def sqrt_mod_p(p: Prime, d) -> int:
    """Some square root of d modulo an odd prime p (Tonelli-Shanks).

    Raises NotAResidue when d is a quadratic non-residue mod p, and
    EvenPrime for p = 2.
    """
    if p == 2:
        raise EvenPrime("square roots mod 2 are not supported")
    a = _residue(d, p)
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise NotAResidue(f"{d} is not a square mod {int(p)}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks for p = 1 mod 4
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    x = pow(a, (s + 1) // 2, p)
    b = pow(a, s, p)
    g = pow(n, s, p)
    rr = e
    while True:
        t, m = b, 0
        while t != 1:
            t = t * t % p
            m += 1
        if m == 0:
            return x
        gs = pow(g, 1 << (rr - m - 1), p)
        g = gs * gs % p
        x = x * gs % p
        b = b * g % p
        rr = m


def _simple_root(p: Prime, d, r0: int) -> int:
    """r0 mod p, checked to be a simple root of x**2 = d (mod p) for odd p."""
    if p == 2:
        raise EvenPrime("Hensel square-root lifting requires odd p")
    if ord_p(p, d) != 0:
        raise ValueError(f"ord_{int(p)}({d}) must be 0")
    r0 = int(r0) % p
    # d is a unit, so this also rules out the non-simple root 0.
    if (r0 * r0 - _residue(d, p)) % p != 0:
        raise NotAResidue(f"{r0}**2 is not {d} mod {int(p)}")
    return r0


def hensel_sqrt(p: Prime, d, r0: int, m: int) -> int:
    """Newton-lift the simple root r0 of x**2 = d (mod p) to modulus p**m.

    Returns the unique s in [0, p**m) with s**2 = d (mod p**m) and
    s = r0 (mod p). Requires odd p, ord_p(d) = 0 and r0**2 = d (mod p).
    The lift runs on 1/s, whose Newton step takes no inverse, and ends with
    s = d * (1/s).
    """
    s = _simple_root(p, d, r0)
    if m <= 0:
        raise ValueError("precision m must be positive")
    d = Fraction(d)
    modulus = p**m
    dm = _window(p, d.numerator, d.denominator, m, modulus)
    return _mod(dm * _lift_inv_sqrt(p, dm, pow(s, -1, p), 1, m, modulus), modulus)


def _lift_inv_sqrt(p: Prime, d: int, r: int, prec: int, m: int, modulus: int) -> int:
    """Lift r, with d*r*r = 1 (mod p**prec), to modulus = p**m by the Newton
    step r <- r*(3 - d*r*r)/2. Each step doubles the precision, up to m, and
    takes two products: unlike a step on the root itself, no inverse."""
    while prec < m:
        prec = min(2 * prec, m)
        mod = p**prec if prec < m else modulus
        h = _mod(r * _mod(1 - d * r * r, mod), mod)
        # Halve h modulo the odd modulus.
        r = (r + (h if h % 2 == 0 else h + mod) // 2) % mod
    return r


# Moduli of at most this many bits are inverted by pow(a, -1, modulus), the
# extended Euclid in C; wider ones by Newton's method (_inv_mod).
_NEWTON_FROM_BITS = 64


def _inv_mod(p: Prime, a: int, m: int, modulus: int) -> int:
    """a**-1 modulo modulus = p**m, for a prime to p.

    Above _NEWTON_FROM_BITS bits, the inverse x modulo p**h, h = ceil(m/2),
    of a cut to h digits lifts to p**m by one Newton step x <- x*(2 - a*x):
    each level's products are only as wide as the level, and the levels
    halve down to one digit or to a modulus that pow(a, -1, modulus)
    inverts. On p = 7 (CPython 3.11) that is ~1.4x faster than Newton on
    the full-width a doubling up from one digit (2.6x at 1025 digits, where
    the doubling overshoots) and ~15x faster than pow(a, -1, p**m) at 1000
    to 2048 digits; below ~64 bits pow is the faster.
    """
    if modulus.bit_length() <= _NEWTON_FROM_BITS or m == 1:
        return pow(a, -1, modulus)
    a = _mod(a, modulus)
    h = (m + 1) // 2
    x = _inv_mod(p, a, h, p**h)
    return _mod(x * (2 - a * x), modulus)
