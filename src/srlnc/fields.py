"""Exact arithmetic in prime fields GF(p)."""

from __future__ import annotations


class FieldMismatch(ValueError):
    """Raised when elements of two different fields are combined."""


# Strong-probable-prime tests to the first 13 prime bases decide primality
# exactly below this bound, the least composite that passes all of them.
# (The first 12 bases alone stop at 318665857834031151167461.)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3317044064679887385961981.

    Larger n raise ValueError rather than get a probabilistic answer.
    """
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {n}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_greater_than(n: int) -> int:
    """Least prime strictly greater than n, for n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    m = n + 1
    while not is_prime(m):
        m += 1
    return m


class FieldSpec:
    """GF(p) for prime p; orders whose primality `is_prime` cannot decide
    are rejected with ValueError.

    Arithmetic methods work on plain ints and reduce mod p, so matrix
    code can stay allocation-light.  `fe` wraps a value into an `Fe`
    carrying its field.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field order must be prime, got {p}")
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        # Fermat; p is prime.
        return pow(a, self.p - 2, self.p)

    def fe(self, value: int) -> "Fe":
        return Fe(value, self)

    def elements(self) -> range:
        return range(self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


class Fe:
    """A single field element bound to its FieldSpec."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: FieldSpec):
        self.value = value % field.p
        self.field = field

    def _same(self, other: "Fe") -> None:
        if not isinstance(other, Fe):
            raise TypeError(f"expected Fe, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "Fe") -> "Fe":
        self._same(other)
        return Fe(self.value + other.value, self.field)

    def __sub__(self, other: "Fe") -> "Fe":
        self._same(other)
        return Fe(self.value - other.value, self.field)

    def __mul__(self, other: "Fe") -> "Fe":
        self._same(other)
        return Fe(self.value * other.value, self.field)

    def __neg__(self) -> "Fe":
        return Fe(-self.value, self.field)

    def inv(self) -> "Fe":
        return Fe(self.field.inv(self.value), self.field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fe)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.value, self.field.p))

    def __repr__(self) -> str:
        return f"Fe({self.value}, {self.field!r})"


def add(a: Fe, b: Fe) -> Fe:
    return a + b


def mul(a: Fe, b: Fe) -> Fe:
    return a * b


def neg(a: Fe) -> Fe:
    return -a


def inv(a: Fe) -> Fe:
    return a.inv()
