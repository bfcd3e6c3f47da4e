"""Exact p-adic valuation arithmetic on rationals and the subring Z[1/p].

Arithmetic is on integers and `fractions.Fraction`. The order of zero,
POS_INF, is CPython's float infinity and is never computed with. `_split` is
the one strip pair: r = (num/den) * p**start, by `_strip` on each side.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

from .errors import DivByZero, NotInRing, NotPrime, ZeroInput

# The primes up to 41 as witnesses make Miller-Rabin deterministic below
# _MR_BOUND (Sorenson and Webster, 2015); Prime rejects larger bases.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    if n < 43 * 43:  # a composite this small has a prime factor of at most 41
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """A prime base; primality is verified once at construction."""

    def __new__(cls, p) -> "Prime":
        p = int(p)
        if p >= _MR_BOUND:
            raise NotPrime(f"{p} is too large: primality is proven only below {_MR_BOUND}")
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        return super().__new__(cls, p)

    def __repr__(self) -> str:
        return f"Prime({int(self)})"


class _PositiveInfinity(float):
    """Order of zero: CPython's float infinity, printed as +Infinity."""

    __slots__ = ()

    def __new__(cls) -> "_PositiveInfinity":
        return super().__new__(cls, "inf")

    def __repr__(self) -> str:
        return "+Infinity"

    def __reduce__(self) -> str:
        # pickle and deepcopy give back the module's one instance.
        return "POS_INF"


POS_INF = _PositiveInfinity()


# Below this exponent p**e is one cheap builtin call, and a ladder builds it
# directly, leaving its state as it was.
_LADDER_FROM = 64


def _powers(p: int):
    """power(e) = p**e for the growing exponents of one run, each built from
    the last one.

    The growth bound ord(z_{i+1}) >= k + 2*ord(z_i) makes each step's
    exponent k + ord(z_i) at least twice the one before, so p**e is the last
    power squared times p**(e - 2*last): one squaring, where p**e from
    nothing squares its way up from p. The last exponent asked for again
    costs nothing; any other exponent below twice it is built from nothing.
    An exponent below _LADDER_FROM is built from nothing and leaves the
    ladder as it was. e must be nonnegative. Each run makes its own ladder.
    """
    last, last_power = 0, 1

    def power(e: int) -> int:
        nonlocal last, last_power
        if e < _LADDER_FROM:
            return p**e
        if e != last:
            if 2 * last <= e:
                last_power = last_power * last_power * p ** (e - 2 * last)
            else:
                last_power = p**e
            last = e
        return last_power

    return power


def _strip(p: int, n: int, floor: int = 0, power=None) -> tuple[int, int]:
    """(v, u) with n = u * p**v and p not dividing u; n must be nonzero.

    Divides by p, p**2, p**4, ... while they divide, then walks back down
    the same powers, so order v costs O(log v) big divisions (the
    binary-splitting valuation of Brent and Zimmermann, Modern Computer
    Arithmetic, section 1.7).

    floor is a guess at a lower bound for v. If p**floor divides n, one
    exact division takes it out and only the quotient is stripped; otherwise
    the walk runs as without it, so the result never depends on floor. A
    p**floor wider than n (bits(p) >= 2) cannot divide it and is never built.
    power, a run's ladder (_powers), builds p**floor when given.
    """
    if n % p:
        return 0, n
    if 0 < floor and floor * (p.bit_length() - 1) <= n.bit_length():
        q, rem = divmod(n, p**floor if power is None else power(floor))
        if not rem:
            v, u = _strip(p, q)
            return v + floor, u
    v = 0
    powers = [p]
    q, rem = divmod(n, p)
    while rem == 0:
        n = q
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
        q, rem = divmod(n, powers[-1])
    # The order left in n is now below 2**(len(powers) - 1), so each smaller
    # power divides at most once.
    for i in range(len(powers) - 2, -1, -1):
        q, rem = divmod(n, powers[i])
        if rem == 0:
            n = q
            v += 1 << i
    return v, n


def _split(p: Prime, r: Fraction) -> tuple[int, int, int]:
    """(start, num, den) with r = (num/den) * p**start, p dividing neither
    num nor den; r must be nonzero."""
    v_num, num = _strip(p, r.numerator)
    v_den, den = _strip(p, r.denominator)
    return v_num - v_den, num, den


def ord_p(p: Prime, r) -> "int | _PositiveInfinity":
    """p-adic order: the nu with r = (a/b) * p**nu, p dividing neither a nor b.

    Returns POS_INF for r = 0 so that min/max and >= comparisons against the
    zero case work without special-casing.
    """
    r = Fraction(r)
    if r == 0:
        return POS_INF
    return _split(p, r)[0]


def unit_part(p: Prime, r) -> Fraction:
    """The order-zero cofactor r_hat with r = r_hat * p**ord_p(p, r)."""
    r = Fraction(r)
    if r == 0:
        raise ZeroInput("zero has no unit part")
    return Fraction(*_split(p, r)[1:])


def p_abs(p: Prime, r) -> Fraction:
    """p-adic absolute value p**(-ord_p(r)); 0 maps to 0."""
    r = Fraction(r)
    if r == 0:
        return Fraction(0)
    return Fraction(p) ** (-ord_p(p, r))


@total_ordering
class PLocal:
    """An element unit * p**exp of Z[1/p] in canonical form.

    Canonical means p does not divide unit, and zero is stored as
    (unit=0, exp=0). Instances are immutable after construction and safe to
    share across threads.
    """

    __slots__ = ("p", "unit", "exp")

    def __init__(self, p: Prime, unit: int, exp: int = 0):
        unit = int(unit)
        exp = int(exp)
        if unit == 0:
            exp = 0
        else:
            v, unit = _strip(p, unit)
            exp += v
        self.p = p
        self.unit = unit
        self.exp = exp

    @classmethod
    def zero(cls, p: Prime) -> "PLocal":
        return cls(p, 0, 0)

    @classmethod
    def from_fraction(cls, p: Prime, r) -> "PLocal":
        """Exact conversion from a rational; raises NotInRing if the reduced
        denominator is not a power of p. A PLocal over p is returned as is."""
        if isinstance(r, PLocal):
            if r.p != p:
                raise ValueError(f"operand has prime {r.p}, expected {p}")
            return r
        r = Fraction(r)
        if r == 0:
            return cls(p, 0, 0)
        e, den = _strip(p, r.denominator)
        if den != 1:
            raise NotInRing(f"{r} is not in Z[1/{int(p)}]")
        return cls(p, r.numerator, -e)

    def to_fraction(self) -> Fraction:
        # unit is prime to p, so only the denominator form pays a gcd.
        if self.exp >= 0:
            return Fraction(self.unit * self.p ** self.exp)
        return Fraction(self.unit, self.p ** -self.exp)

    def is_zero(self) -> bool:
        return self.unit == 0

    def __bool__(self) -> bool:
        return self.unit != 0

    def ord(self) -> "int | _PositiveInfinity":
        return POS_INF if self.unit == 0 else self.exp

    def _coerce(self, other):
        if isinstance(other, PLocal):
            if other.p != self.p:
                raise ValueError(f"mixed primes {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return PLocal(self.p, other, 0)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.unit == 0:
            return other
        if other.unit == 0:
            return self
        e = min(self.exp, other.exp)
        u = self.unit * self.p ** (self.exp - e) + other.unit * self.p ** (other.exp - e)
        return PLocal(self.p, u, e)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return PLocal(self.p, -self.unit, self.exp)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PLocal(self.p, self.unit * other.unit, self.exp + other.exp)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.unit == 0:
            raise DivByZero("division by zero in Z[1/p]")
        if self.unit == 0:
            return PLocal.zero(self.p)
        if self.unit % other.unit != 0:
            raise NotInRing(
                f"{self} / {other} leaves Z[1/{int(self.p)}]"
            )
        return PLocal(self.p, self.unit // other.unit, self.exp - other.exp)

    def _cmp_value(self, other):
        if isinstance(other, PLocal):
            return self._coerce(other).to_fraction()
        if isinstance(other, (int, Fraction)):
            return other
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, PLocal):
            return self.p == other.p and self.unit == other.unit and self.exp == other.exp
        v = self._cmp_value(other)
        if v is None:
            return NotImplemented
        return self.to_fraction() == v

    def __hash__(self) -> int:
        return hash(self.to_fraction())

    def __lt__(self, other) -> bool:
        v = self._cmp_value(other)
        if v is None:
            return NotImplemented
        return self.to_fraction() < v

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.unit)
        return f"{self.unit}*{int(self.p)}^{self.exp}"

    def __repr__(self) -> str:
        return f"PLocal(p={int(self.p)}, unit={self.unit}, exp={self.exp})"


def _tail_text(x) -> str:
    """str(x), for a claimed or replayed value in a problem text (an int, a
    Fraction, a PLocal or a QuadElement); past the int/str digit limit the
    bit lengths of its numerators and denominators, or of a PLocal's unit,
    stand in."""
    try:
        return str(x)
    except ValueError:
        def bits(x):
            return f"{x.numerator.bit_length()}-bit/{x.denominator.bit_length()}-bit"

        if isinstance(x, PLocal):
            unit = f"{x.unit.bit_length()}-bit"
            return unit if x.exp == 0 else f"{unit}*{int(x.p)}^{_tail_text(x.exp)}"
        if isinstance(x, (Fraction, int)):
            return bits(x)
        return f"({bits(x.x)}) + ({bits(x.y)})*sqrt({x.D})"
