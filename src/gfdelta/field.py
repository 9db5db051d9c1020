"""Exact arithmetic in GF(p) and GF(p^m) with a fixed polynomial basis.

Extension elements are length-m coordinate vectors over GF(p) in the basis
1, a, ..., a^(m-1), where a is a root of a monic irreducible modulus.

A field of order at most LOG_TABLE_LIMIT, prime or extension, interns its
q elements when it is constructed, and every element it hands out is one of
them. Each carries its discrete log over a primitive element; products,
quotients, powers and inverses are lookups in one doubled list of elements
by log, sums go through a Zech-log table, and negation shifts the log by
log(-1). In every field a difference is the sum with the negation. Each
element's coordinates are also a code that sums: its row, the coordinates
packed into one int of 8-byte lanes, adds lane by lane, so a sum of rows
reduces mod p once per coordinate. The packing is `SlotCodec`, the
package's one codec of unsigned ints in the fixed-width slots of one int
(Kronecker substitution); polynomial evaluation and the planted targets'
secret stage use it too. Larger
extension fields multiply by convolution and invert by Fermat, a^(q-2);
larger prime fields use integer arithmetic. Above the limit `_coords_pow`
is the one power, square-and-multiply under the field's coordinate
product, and a negative exponent powers the inverse. The convolution is
the only polynomial product: the tables are built on it, and Rabin's
irreducibility test runs on it and on `eliminate`, the one elimination
step, in the quotient ring the modulus defines.

There is one spec object per field: `PrimeFieldSpec` and `ExtFieldSpec`
register each field they build under its normalised arguments (the modulus
reduced mod p), a repeat construction is one lookup with no primality or
irreducibility test, and specs compare and hash by identity. A spec
reduces to its class and normalised arguments (`__reduce__`), so `copy`,
`deepcopy` and a pickle round trip hand back the registered object. Specs
and elements are immutable and safe to share between threads; registration
inserts with `dict.setdefault`, so racing threads get one object.
"""

from __future__ import annotations

import re
from struct import Struct, calcsize
from sys import byteorder
from typing import Iterable, Iterator, Sequence


class FieldError(ValueError):
    """Bad field construction, or an operation across mismatched fields. A
    fault in parsed text may give its `position` there, which the message
    names as `poly.ParseError` does; `reason` is the message without it."""

    def __init__(self, reason: str, position: int | None = None):
        where = "" if position is None else f" (at position {position})"
        super().__init__(reason + where)
        self.reason = reason
        self.position = position


def _integer(text: str, position: int | None = None, error=FieldError) -> int:
    """The int that the decimal digits `text` name, standing at `position`
    of the text being parsed. Python converts at most
    `sys.get_int_max_str_digits()` digits (4,300 by default) and raises its
    own ValueError past that; this raises `error(reason, position)` instead,
    a FieldError unless the caller's parser has its own error, so a number
    too long is reported where it stands, as any other fault in the text."""
    try:
        return int(text)
    except ValueError:
        raise error(f"integer of {len(text)} digits is too long", position) from None


def _file_integer(text: str, name: str, error) -> int:
    """`int(text)` for a file's integer `name`, such as "target seed";
    `error` naming it when `int` refuses the text: no integer, or more
    digits than Python converts (`sys.get_int_max_str_digits()`, 4,300 by
    default)."""
    try:
        return int(text)
    except ValueError:
        raise error(f"{name} is not an integer within Python's digit limit") from None


# Fields of at most this order intern their elements with discrete-log tables.
LOG_TABLE_LIMIT = 1 << 12


class SlotCodec:
    """Kronecker substitution: `count` unsigned ints, each at most `bound`,
    as one int, value k in slot k of a fixed width. Packed lists add and
    scale slot by slot while every slot stays at most `bound`, so one
    big-integer multiply-add does the work of a loop over the slots, and
    `unpack` reads them all back at once.

    A slot is the narrowest native unsigned item of 2, 4 or 8 bytes ('H',
    'I', 'Q') that holds `bound`, packed by a `struct.Struct` of `count`
    such items (an `array` built from the list cost about five times as
    much) and read back through `memoryview.cast`; a larger bound takes
    slots of ceil(bits / 8) bytes, packed with `to_bytes` and read with
    `int.from_bytes` over fixed slices. Both sides use the machine's byte
    order, `sys.byteorder`."""

    __slots__ = ("code", "width", "size", "_struct")

    def __init__(self, count: int, bound: int):
        self.code = next((c for c in "HIQ" if bound >> 8 * calcsize(c) == 0), None)
        if self.code is not None:
            self.width = calcsize(self.code)
            self._struct = Struct(f"{count}{self.code}")
        else:
            self.width = (bound.bit_length() + 7) // 8
        self.size = self.width * count

    def pack(self, rows: Iterable[Sequence[int]]) -> list[int]:
        """Each row of `count` values packed into one int."""
        if self.code is not None:
            pack = self._struct.pack
            return [int.from_bytes(pack(*row), byteorder) for row in rows]
        width = self.width
        return [
            int.from_bytes(
                b"".join(v.to_bytes(width, byteorder) for v in row), byteorder
            )
            for row in rows
        ]

    def unpack(self, packed: int) -> Sequence[int]:
        data = packed.to_bytes(self.size, byteorder)
        if self.code is not None:
            return memoryview(data).cast(self.code)
        width = self.width
        return [
            int.from_bytes(data[i : i + width], byteorder)
            for i in range(0, len(data), width)
        ]


# ---------------------------------------------------------------------------
# primality

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below
    3,317,044,064,679,887,385,961,981, the least strong pseudoprime to the
    13 witnesses 2..41 (about 3.3e24, past every one-word p)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p) -> None:
    """Refuse a field characteristic that is not a prime in one machine word."""
    if not isinstance(p, int) or not is_prime(p):
        raise FieldError(f"{p!r} is not prime")
    if p.bit_length() > 63:
        raise FieldError("p must fit in one machine word")


def _coords_pow(mul, one: tuple, a: tuple, e: int) -> tuple:
    """a^e for e >= 0 by square-and-multiply under the coordinate product mul."""
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, a)
        a = mul(a, a)
        e >>= 1
    return acc


# the one spec of each field, keyed by its normalised arguments: p for
# GF(p), (p, m, modulus reduced mod p) for GF(p^m)
_SPECS: dict = {}


def _small_prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# linear algebra over GF(p) on plain integer rows


def eliminate(
    basis: list[list[int]],
    pivots: list[int],
    row: Sequence[int],
    p: int,
    width: int,
) -> list[int] | None:
    """One step of incremental Gaussian elimination modulo the prime p.

    `basis` holds pivot rows in insertion order and `pivots` their pivot
    columns, all in the first `width` columns. Each pivot row is reduced
    mod p, 0 before its pivot column, 1 at it, and 0 at the pivot column of
    every earlier pivot row. The step reduces `row` against the pivot rows
    in that order and reduces it mod p once, at the end: each pivot row
    subtracts less than p^2 from an entry, so no entry moves by more than
    width * p^2 before that. If a coefficient is left in the first `width`
    columns, the row is normalised at the first such column and appended,
    with that column, and the step returns None. Otherwise it returns the
    row's residue mod p, whose first `width` entries are 0. `row` itself is
    not changed.
    """
    for pivot_row, col in zip(basis, pivots):
        c = row[col] % p
        if c:
            row = [a - c * b for a, b in zip(row, pivot_row)]
    for col in range(width):
        if row[col] % p:
            break
    else:
        return [v % p for v in row]
    inv = pow(row[col], -1, p)
    basis.append([v * inv % p for v in row])
    pivots.append(col)
    return None


def row_reduce(
    rows: Sequence[Sequence[int]], p: int, width: int | None = None
) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of integer rows modulo the prime p.

    Pivots are sought only in the first `width` columns (all by default), so
    augmented columns ride along. Every row goes through `eliminate` in
    turn, and `back_pass` then clears each pivot column above its row.
    Returns the reduced rows, pivot rows first in pivot order and then the
    residues of the other rows, and the pivot columns; the rank is their
    count. When every residue is zero the augmented columns lie in the
    span of the first `width`, and the result is the unique reduced form.
    When some residue is not (an inconsistent system), the augmented
    entries of the residues and of the pivot rows depend on the order of
    elimination; no caller reads them.
    """
    if width is None:
        width = len(rows[0]) if rows else 0
    basis: list[list[int]] = []
    pivots: list[int] = []
    residues = []
    for row in rows:
        residue = eliminate(basis, pivots, row, p, width)
        if residue is not None:
            residues.append(residue)
    reduced, pivots = back_pass(basis, pivots, p)
    return reduced + residues, pivots


def back_pass(
    basis: Sequence[list[int]], pivots: Sequence[int], p: int
) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon form of an `eliminate` basis: its rows in
    pivot order, each pivot column cleared above its row and every entry
    reduced mod p. Returns the rows and their pivot columns; `basis` is
    not changed."""
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    reduced = [basis[i] for i in order]
    pivots = [pivots[i] for i in order]
    for k in reversed(range(len(reduced))):
        pivot_row = reduced[k] = [v % p for v in reduced[k]]
        col = pivots[k]
        for j in range(k):
            c = reduced[j][col] % p
            if c:
                reduced[j] = [a - c * b for a, b in zip(reduced[j], pivot_row)]
    return reduced, pivots


# ---------------------------------------------------------------------------
# field specs


class FieldSpec:
    """Common interface of prime and extension field specs.

    A field of order q <= LOG_TABLE_LIMIT builds its q elements as interned
    objects at construction. Each carries its discrete log over a primitive
    element g: g^i has log i and zero has log 2(q-1). `_elems` lists
    g^0..g^(q-2) twice, then 2(q-1)+1 zeros, so a product is `_elems[i + j]`
    and any sum of logs involving zero reads zero. A sum is g^i (1 + g^(j-i)),
    `_elems[i + _zech[j - i]]`, through the Zech table of log(1 + g^d); a
    negation shifts the log by log(-1). `_rows` lists each element's packed
    coordinate row by log in the same layout as `_elems`, so the row of a
    product is `_rows[i + j]`, and `_sum_rows` turns a sum of rows back into
    an element. `element`, `from_index` and every arithmetic result return the
    interned object, looked up by coordinates in `_tables`; that is None in
    larger fields, which compute on coordinates.
    """

    p: int
    m: int
    order: int
    _tables: dict | None = None

    def element(self, value) -> "FieldElement":
        """Coerce an int (embedded constant), coordinate sequence, or element."""
        if isinstance(value, FieldElement):
            if value.spec is not self:
                raise FieldError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return self._box((value % self.p,) + (0,) * (self.m - 1))
        coords = tuple(int(c) % self.p for c in value)
        if len(coords) != self.m:
            raise FieldError(f"expected {self.m} coordinates, got {len(coords)}")
        return self._box(coords)

    def _box(self, coords: tuple) -> "FieldElement":
        """The element with these reduced coordinates: the interned one in a
        table field, else a new plain one."""
        tables = self._tables
        if tables is None:
            return FieldElement(self, coords)
        return tables[coords]

    @property
    def zero(self) -> "FieldElement":
        return self._zero

    @property
    def one(self) -> "FieldElement":
        return self._one

    def from_index(self, idx: int) -> "FieldElement":
        """Element number idx in the canonical enumeration, 0 <= idx < order."""
        if not 0 <= idx < self.order:
            raise FieldError(f"index {idx} out of range for GF({self.order})")
        coords = []
        for _ in range(self.m):
            coords.append(idx % self.p)
            idx //= self.p
        return self._box(tuple(coords))

    def index_of(self, el: "FieldElement") -> int:
        idx = 0
        for c in reversed(el.coeffs):
            idx = idx * self.p + c
        return idx

    def elements(self) -> Iterator["FieldElement"]:
        for idx in range(self.order):
            yield self.from_index(idx)

    def random_element(self, rng, nonzero: bool = False) -> "FieldElement":
        lo = 1 if nonzero else 0
        return self.from_index(rng.randrange(lo, self.order))

    # tables ---------------------------------------------------------------

    def _build_tables(self) -> None:
        """Set `zero` and `one` and, up to order LOG_TABLE_LIMIT, intern the
        q elements: the tables, `_elems`, `_zech`, `_minus` and `_rows`. The
        powers of g come from `_convolve`."""
        zero = (0,) * self.m
        one = (1,) + zero[1:]
        self._zero, self._one = FieldElement(self, zero), FieldElement(self, one)
        if self.order > LOG_TABLE_LIMIT:
            return
        n = self.order - 1
        g = self._primitive_coords()
        powers = []
        x = one
        for _ in range(n):
            powers.append(x)
            x = self._convolve(x, g)
        units = [FieldElement(self, x, i) for i, x in enumerate(powers)]
        index = {el.coeffs: el for el in units}
        index[zero] = FieldElement(self, zero, 2 * n)
        p = self.p
        # log(1 + g^d) for 0 <= d < n, 2n where 1 + g^d = 0
        zech = [index[((x[0] + 1) % p,) + x[1:]].log for x in powers]
        # indexed by j - i for logs i, j: in (-n, n) both are nonzero and
        # negative indexing reads d mod n; n + 1..2n is a zero addend (add 0
        # to i), and -2n..-n - 1 a zero augend (add j - 2n to 2n)
        zech += [0] * (n + 1) + list(range(-2 * n, -n + 1)) + zech[1:]
        self._elems = units * 2 + [index[zero]] * (2 * n + 1)
        self._zech = zech
        # 8-byte lanes: a sum of rows is exact below 2^64 / p summands
        self._row_codec = SlotCodec(self.m, (1 << 64) - 1)
        rows = self._row_codec.pack(powers)
        self._rows = rows * 2 + [0] * (2 * n + 1)
        self._minus = index[(p - 1,) + zero[1:]].log
        self._tables = index
        self._zero, self._one = index[zero], units[0]

    def _sum_rows(self, total: int) -> "FieldElement":
        """The element whose coordinates are the lanes of `total`, a sum of
        `_rows` entries, each reduced mod p."""
        p = self.p
        return self._box(tuple([c % p for c in self._row_codec.unpack(total)]))

    def _primitive_coords(self) -> tuple:
        """The first element in canonical order with multiplicative order q-1."""
        n = self.order - 1
        one = self._one.coeffs
        cofactors = [n // r for r in _small_prime_factors(n)]
        candidates = (self.from_index(idx).coeffs for idx in range(1, self.order))
        return next(
            g
            for g in candidates
            if all(_coords_pow(self._convolve, one, g, k) != one for k in cofactors)
        )

    # coordinate kernels, for fields above the limit ------------------------

    def _convolve(self, a: tuple, b: tuple) -> tuple:
        """The product of coordinate vectors: convolve, then reduce by the
        modulus (a degree-1 modulus, as in GF(p), never reduces)."""
        p, m = self.p, self.m
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        mod = self._mod_asc
        for i in range(2 * m - 2, m - 1, -1):
            c = conv[i] % p
            if c:
                for j in range(m):
                    conv[i - m + j] -= c * mod[j]
            conv[i] = 0
        return tuple(c % p for c in conv[:m])

    def _mul_coords(self, a: tuple, b: tuple) -> tuple:
        return self._convolve(a, b)

    def _inv_coords(self, a: tuple) -> tuple:
        """Fermat: a^(q-2) for a nonzero a."""
        return _coords_pow(self._mul_coords, self._one.coeffs, a, self.order - 2)

    def format_element(self, el: "FieldElement") -> str:
        """Render in the basis generator syntax: '2*a+1', 'a^2', '7', '0'."""
        if self.m == 1:
            return str(el.coeffs[0])
        parts = []
        for i in range(self.m - 1, -1, -1):
            c = el.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                a = "a" if i == 1 else f"a^{i}"
                parts.append(a if c == 1 else f"{c}*{a}")
        return "+".join(parts) if parts else "0"


class PrimeFieldSpec(FieldSpec):
    """GF(p) for a word-sized prime p; above LOG_TABLE_LIMIT, plain integer
    arithmetic."""

    # GF(p) as GF(p)[x]/(x); `_convolve` never reduces by it
    _mod_asc = (0, 1)

    def __new__(cls, p: int):
        spec = _SPECS.get(p) if type(p) is int else None
        if spec is None:
            _check_prime(p)
            spec = object.__new__(cls)
            spec.p = spec.order = p
            spec.m = 1
            spec._build_tables()
            spec = _SPECS.setdefault(p, spec)
        return spec

    def __reduce__(self):
        return PrimeFieldSpec, (self.p,)

    @property
    def text(self) -> str:
        return str(self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def _mul_coords(self, a, b):
        return (a[0] * b[0] % self.p,)

    def _inv_coords(self, a):
        return (pow(a[0], -1, self.p),)


class ExtFieldSpec(FieldSpec):
    """GF(p^m) with a monic irreducible modulus; coordinates in basis 1..a^(m-1).

    The modulus is given most-significant coefficient first, matching the
    textual form 'p^m/c_m,...,c_0' (so (1, 2, 2) over p=3 is x^2+2x+2).

    Up to order LOG_TABLE_LIMIT the elements are interned at construction
    with their discrete logs over a primitive element, found by its order
    (the basis generator a need not be primitive), and arithmetic is table
    lookups (see `FieldSpec`). Each element's coordinates are also a code
    that sums: packed rows add lane by lane, so a sum of products costs
    one lookup and one addition per product and one reduction mod p per
    coordinate.
    Above the limit, products convolve and reduce by the modulus, and
    inverses are the power a^(q-2) under that product. The modulus is
    checked by Rabin's test in GF(p)[x]/(modulus), on the same product.
    """

    def __new__(cls, p: int, m: int, modulus: Sequence[int]):
        # a lookup of plain ints cannot raise, and finds only a valid field
        if type(p) is int is type(m) and p > 1 and isinstance(modulus, (tuple, list)):
            mod = tuple([c % p if type(c) is int else None for c in modulus])
            spec = _SPECS.get((p, m, mod))
            if spec is not None:
                return spec
        _check_prime(p)
        if m < 1:
            raise FieldError("extension degree must be >= 1")
        # Rabin's test costs about m^3 log p (5 s at GF(3^256)); a prime p is
        # at least 2^(bit_length - 1), which bounds m before p^m is formed
        if m * (p.bit_length() - 1) > 64 or p**m > 1 << 64:
            raise FieldError(f"GF({p}^{m}) has more than 2^64 elements")
        mod_desc = tuple([int(c) % p for c in modulus])
        if len(mod_desc) != m + 1:
            raise FieldError(f"modulus must have degree {m}")
        if mod_desc[0] != 1:
            raise FieldError("modulus must be monic")
        spec = object.__new__(cls)
        spec.p = p
        spec.m = m
        spec._mod_asc = tuple(reversed(mod_desc))
        if not spec._is_irreducible():
            raise FieldError(f"modulus {mod_desc} is reducible over GF({p})")
        spec.order = p**m
        spec.modulus = mod_desc
        spec._build_tables()
        return _SPECS.setdefault((p, m, mod_desc), spec)

    def __reduce__(self):
        return ExtFieldSpec, (self.p, self.m, self.modulus)

    @property
    def text(self) -> str:
        return f"{self.p}^{self.m}/" + ",".join(str(c) for c in self.modulus)

    @property
    def generator(self) -> "FieldElement":
        """The basis generator a (the class of x modulo the modulus)."""
        if self.m == 1:
            # degenerate: a is the residue -c0 of the degree-1 modulus
            return self.element(-self.modulus[1])
        coords = [0] * self.m
        coords[1] = 1
        return self._box(tuple(coords))

    def __repr__(self):
        return f"GF({self.p}^{self.m})"

    def _is_irreducible(self) -> bool:
        """Rabin's test (SIAM J. Comput. 9, 1980) in GF(p)[x]/(modulus).

        A monic f of degree m is irreducible iff x^(p^m) = x mod f and, for
        each prime q | m, h = x^(p^(m/q)) - x is a unit mod f: multiplying
        by h is invertible, so h times the basis 1, x, ..., x^(m-1) has
        rank m: each product joins the `eliminate` basis, and the first that
        does not ends the test.
        """
        p, m = self.p, self.m
        if m == 1:
            return True
        basis = [tuple(int(i == j) for j in range(m)) for i in range(m)]
        one, x = basis[0], basis[1]
        if _coords_pow(self._convolve, one, x, p**m) != x:
            return False
        for q in _small_prime_factors(m):
            xq = _coords_pow(self._convolve, one, x, p ** (m // q))
            h = tuple(c - d for c, d in zip(xq, x))
            rows: list[list[int]] = []
            pivots: list[int] = []
            for e in basis:
                if eliminate(rows, pivots, self._convolve(h, e), p, m) is not None:
                    return False
        return True


# ---------------------------------------------------------------------------
# elements


class FieldElement:
    """Immutable element of GF(p) or GF(p^m), stored as basis coordinates.

    `log` is the discrete log of an interned element (see `FieldSpec`),
    which is every element of a table field, and None on an element of a
    field above the table limit, which computes on coordinates. A
    difference is the sum with the negation. An int operand is first made
    an element of this element's spec; an element of another spec object,
    which is another field, is refused. Equality reads the coordinates and
    the spec; the hash reads the coordinates only, since equal elements
    have equal coordinates, so a table keyed by points hashes no spec.
    """

    __slots__ = ("spec", "coeffs", "log")

    def __init__(self, spec: FieldSpec, coeffs: tuple, log: int | None = None):
        self.spec = spec
        self.coeffs = coeffs
        self.log = log

    def _coerce(self, other):
        """other as an element of this spec (interned in a table field)."""
        if isinstance(other, FieldElement):
            if other.spec is not self.spec:
                raise FieldError("operands belong to different fields")
            return other
        return self.spec.element(other) if isinstance(other, int) else NotImplemented

    def __add__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        i, j = self.log, other.log
        if i is None:
            p = spec.p
            return FieldElement(
                spec, tuple([(x + y) % p for x, y in zip(self.coeffs, other.coeffs)])
            )
        return spec._elems[i + spec._zech[j - i]]

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        spec = self.spec
        if self.log is None:
            p = spec.p
            return FieldElement(spec, tuple([(-x) % p for x in self.coeffs]))
        return spec._elems[self.log + spec._minus]

    def __mul__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        i = self.log
        if i is None:
            return FieldElement(spec, spec._mul_coords(self.coeffs, other.coeffs))
        return spec._elems[i + other.log]

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if not any(self.coeffs):
            if e < 0:
                raise FieldError("inversion of zero")
            return self.spec.one if e == 0 else self
        spec = self.spec
        i = self.log
        if i is None:
            if e < 0:
                return self.inverse() ** -e
            coords = _coords_pow(spec._mul_coords, spec.one.coeffs, self.coeffs, e)
            return FieldElement(spec, coords)
        return spec._elems[i * e % (spec.order - 1)]

    def inverse(self) -> "FieldElement":
        if not any(self.coeffs):
            raise FieldError("inversion of zero")
        spec = self.spec
        i = self.log
        if i is None:
            return FieldElement(spec, spec._inv_coords(self.coeffs))
        return spec._elems[spec.order - 1 - i]

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.spec.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.coeffs == other.coeffs and other.spec is self.spec

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __int__(self):
        if self.spec.m != 1:
            raise FieldError("only prime-field elements convert to int")
        return self.coeffs[0]

    def __str__(self):
        return self.spec.format_element(self)

    def __repr__(self):
        return self.spec.format_element(self)


def basis_elements(spec: FieldSpec) -> list[FieldElement]:
    """The polynomial basis 1, a, ..., a^(m-1); just [1] for prime fields."""
    out = []
    for i in range(spec.m):
        coords = [0] * spec.m
        coords[i] = 1
        out.append(spec.element(coords))
    return out


# ---------------------------------------------------------------------------
# construction helpers and the textual spec form

# shipped default moduli, most-significant coefficient first
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),  # x^2+x+1
    (2, 3): (1, 0, 1, 1),  # x^3+x+1
    (3, 2): (1, 2, 2),  # x^2+2x+2, primitive root a with a^2 = a+1
    (3, 3): (1, 0, 2, 1),  # x^3+2x+1
}


def prime_field(p: int) -> PrimeFieldSpec:
    return PrimeFieldSpec(p)


def ext_field(p: int, m: int, modulus: Sequence[int] | None = None) -> ExtFieldSpec:
    """GF(p^m); uses the shipped default modulus when none is supplied."""
    if modulus is None:
        try:
            modulus = DEFAULT_MODULI[(p, m)]
        except KeyError:
            raise FieldError(
                f"no default modulus shipped for GF({p}^{m}); supply one"
            ) from None
    return ExtFieldSpec(p, m, modulus)


_SPEC_RE = re.compile(r"^(\d+)\^(\d+)/((?:\d+,)*\d+)$")
_DIGITS_RE = re.compile(r"\d+")


def parse_field_spec(text: str) -> FieldSpec:
    """Parse 'p' or 'p^m/c_m,...,c_0' (modulus most-significant first)."""
    lead = len(text) - len(text.lstrip())
    text = text.strip()
    if re.fullmatch(r"\d+", text):
        return prime_field(_integer(text, lead))
    match = _SPEC_RE.match(text)
    if not match:
        raise FieldError(f"cannot parse field spec {text!r}")
    p, m, *modulus = (
        _integer(c.group(), lead + c.start()) for c in _DIGITS_RE.finditer(text)
    )
    if len(modulus) != m + 1:
        raise FieldError(f"field spec {text!r}: modulus must list {m + 1} coefficients")
    return ExtFieldSpec(p, m, modulus)


_ATERM_RE = re.compile(r"^(?:(\d+)\*?)?(a)?(?:\^(\d+))?$")


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse an element literal: an integer, or a polynomial in 'a' like
    '2*a^3+a+1'. Whitespace is ignored; a fault's position is in `text`."""
    s = "".join(text.split())
    # the position in text of each character of s
    spots = [i for i, c in enumerate(text) if not c.isspace()]
    if not s:
        raise FieldError("empty element literal")
    # split into signed summands
    out = spec.zero
    pos = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        pos = 1
    start = pos
    chunks = []
    while pos <= len(s):
        if pos == len(s) or s[pos] in "+-":
            chunks.append((sign, start, s[start:pos]))
            if pos < len(s):
                sign = -1 if s[pos] == "-" else 1
            start = pos + 1
        pos += 1
    for sgn, start, chunk in chunks:
        m = _ATERM_RE.match(chunk)
        if not m or (m.group(3) and not m.group(2)) or not chunk:
            raise FieldError(f"bad element literal {s!r}")
        coeff = _integer(m.group(1), spots[start + m.start(1)]) if m.group(1) else 1
        if m.group(2):
            if spec.m == 1:
                raise FieldError(
                    f"basis symbol 'a' is not a GF({spec.p}) coefficient"
                )
            power = _integer(m.group(3), spots[start + m.start(3)]) if m.group(3) else 1
            gen = spec.generator  # type: ignore[attr-defined]
            term = spec.element(coeff) * gen**power
        else:
            term = spec.element(coeff)
        out = out + term if sgn > 0 else out - term
    return out

