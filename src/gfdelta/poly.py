"""Sparse multivariate polynomials over GF(p) or GF(p^m) in reduced
function form.

Exponents are kept canonical under x^q = x (q the field order): every
positive exponent e is folded to ((e-1) mod (q-1)) + 1, so two polynomials
are equal exactly when they define the same function. Terms are stored in a
map from exponent tuples to nonzero coefficients; iteration and formatting
use a graded lexicographic order for determinism.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence

from .combinat import digit_sum
from .field import FieldElement, FieldSpec, FieldError, parse_element

Monomial = tuple[int, ...]


class PolyError(ValueError):
    pass


class ParseError(PolyError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _fold(e: int, order: int) -> int:
    if e < order:
        return e
    return (e - 1) % (order - 1) + 1


class MultiPoly:
    """Immutable sparse polynomial; arithmetic allocates fresh results."""

    __slots__ = ("spec", "n", "_terms", "_hash")

    def __init__(self, spec: FieldSpec, n: int, terms):
        if n < 0:
            raise PolyError("variable count must be >= 0")
        canon: dict[Monomial, FieldElement] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            coeff = spec.element(coeff)
            if len(mono) != n:
                raise PolyError(f"monomial {mono} does not have {n} exponents")
            if any(e < 0 for e in mono):
                raise PolyError(f"negative exponent in {mono}")
            mono = tuple(_fold(e, spec.order) for e in mono)
            if mono in canon:
                coeff = canon[mono] + coeff
            if coeff:
                canon[mono] = coeff
            else:
                canon.pop(mono, None)
        self.spec = spec
        self.n = n
        self._terms = canon
        self._hash = None

    @classmethod
    def _raw(cls, spec, n, canon: dict) -> "MultiPoly":
        obj = object.__new__(cls)
        obj.spec = spec
        obj.n = n
        obj._terms = canon
        obj._hash = None
        return obj

    # constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, spec, n) -> "MultiPoly":
        return cls._raw(spec, n, {})

    @classmethod
    def constant(cls, spec, n, value) -> "MultiPoly":
        c = spec.element(value)
        return cls._raw(spec, n, {(0,) * n: c} if c else {})

    @classmethod
    def term(cls, spec, n, coeff, exponents: Sequence[int]) -> "MultiPoly":
        return cls(spec, n, {tuple(exponents): spec.element(coeff)})

    @classmethod
    def variable(cls, spec, n, index: int) -> "MultiPoly":
        if not 0 <= index < n:
            raise PolyError(f"variable index {index} out of range")
        mono = [0] * n
        mono[index] = 1
        return cls._raw(spec, n, {tuple(mono): spec.one})

    # inspection -----------------------------------------------------------

    def terms(self) -> list[tuple[Monomial, FieldElement]]:
        """Terms in descending graded lexicographic order."""
        return sorted(
            self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )

    def coefficient(self, mono: Monomial) -> FieldElement:
        return self._terms.get(tuple(mono), self.spec.zero)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.spec, self.n, frozenset(self._terms.items()))
            )
        return self._hash

    def __repr__(self):
        return format_poly(self)

    # arithmetic -----------------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if self.spec != other.spec or self.n != other.n:
            raise PolyError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = MultiPoly.constant(self.spec, self.n, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return MultiPoly._raw(self.spec, self.n, out)

    def __neg__(self):
        return MultiPoly._raw(
            self.spec, self.n, {m: -c for m, c in self._terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = MultiPoly.constant(self.spec, self.n, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "MultiPoly":
        c = self.spec.element(c)
        if not c:
            return MultiPoly.zero(self.spec, self.n)
        return MultiPoly._raw(
            self.spec, self.n, {m: coeff * c for m, coeff in self._terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        order = self.spec.order
        out: dict[Monomial, FieldElement] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(_fold(a + b, order) for a, b in zip(m1, m2))
                c = c1 * c2
                acc = out.get(mono)
                acc = c if acc is None else acc + c
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return MultiPoly._raw(self.spec, self.n, out)

    __rmul__ = __mul__

    # evaluation -----------------------------------------------------------

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        if len(point) != self.n:
            raise PolyError(f"point has {len(point)} coordinates, expected {self.n}")
        point = [self.spec.element(v) for v in point]
        powers: list[dict[int, FieldElement]] = [{} for _ in range(self.n)]
        total = self.spec.zero
        for mono, coeff in self._terms.items():
            acc = coeff
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                cache = powers[i]
                v = cache.get(e)
                if v is None:
                    v = cache[e] = point[i] ** e
                acc = acc * v
            total = total + acc
        return total

    def substitute(self, assignment: Mapping[int, FieldElement]) -> "MultiPoly":
        """Fix some variables to constants; the result keeps all n slots."""
        assignment = {i: self.spec.element(v) for i, v in assignment.items()}
        out: dict[Monomial, FieldElement] = {}
        for mono, coeff in self._terms.items():
            acc = coeff
            new_mono = list(mono)
            for i, value in assignment.items():
                e = mono[i]
                if e:
                    acc = acc * value**e
                    new_mono[i] = 0
                if not acc:
                    break
            if not acc:
                continue
            key = tuple(new_mono)
            prev = out.get(key)
            prev = acc if prev is None else prev + acc
            if prev:
                out[key] = prev
            else:
                out.pop(key, None)
        return MultiPoly._raw(self.spec, self.n, out)

    # structure ------------------------------------------------------------

    def factor_term(self, t: Monomial) -> "TermFactorization":
        """Split self = t * quotient + remainder with no remainder term
        divisible by t."""
        t = tuple(t)
        if len(t) != self.n:
            raise PolyError("term width mismatch")
        if not any(t):
            raise PolyError("factor term must be nonconstant")
        quotient: dict[Monomial, FieldElement] = {}
        remainder: dict[Monomial, FieldElement] = {}
        for mono, coeff in self._terms.items():
            if all(e >= te for e, te in zip(mono, t)):
                quotient[tuple(e - te for e, te in zip(mono, t))] = coeff
            else:
                remainder[mono] = coeff
        return TermFactorization(
            t,
            MultiPoly._raw(self.spec, self.n, quotient),
            MultiPoly._raw(self.spec, self.n, remainder),
        )

    def degrees(self) -> "PolyDegrees":
        p = self.spec.p
        if not self._terms:
            return PolyDegrees(0, (0,) * self.n, (0,) * self.n)
        total = max(sum(m) for m in self._terms)
        per_var = tuple(
            max(m[i] for m in self._terms) for i in range(self.n)
        )
        dsum = tuple(
            max(digit_sum(m[i], p) for m in self._terms) for i in range(self.n)
        )
        return PolyDegrees(total, per_var, dsum)


@dataclass(frozen=True)
class PolyDegrees:
    total: int
    per_variable: tuple[int, ...]
    digit_sum: tuple[int, ...]


@dataclass(frozen=True)
class TermFactorization:
    t: Monomial
    quotient: MultiPoly
    remainder: MultiPoly


# ---------------------------------------------------------------------------
# parsing and formatting
#
# grammar: terms joined by + or -; a term is *-joined factors, each factor an
# integer, a parenthesised element in the basis symbol 'a', or a power xK^E.

_TOKEN_RE = re.compile(r"\s*(\d+|x\d+|\(|\)|\^|\*|\+|-|a)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    end = len(text)
    while pos < end:
        while pos < end and text[pos].isspace():
            pos += 1
        if pos >= end:
            break
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((match.group(1), match.start(1)))
        pos = match.end()
    return tokens


def parse_poly(text: str, spec: FieldSpec, n: int | None = None) -> MultiPoly:
    """Parse polynomial text like 'x1^5*x2 + (2*a+1)*x3 - 7'."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    terms: list[tuple[dict[int, int], FieldElement]] = []
    idx = 0
    max_var = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    while idx < len(tokens):
        sign = 1
        while peek() in ("+", "-"):
            tok, _ = take()
            if tok == "-":
                sign = -sign
        if peek() is None:
            raise ParseError("dangling sign", tokens[-1][1])
        coeff = spec.one if sign > 0 else -spec.one
        exps: dict[int, int] = {}
        while True:
            tok, at = take()
            if tok.isdigit():
                coeff = coeff * spec.element(int(tok))
            elif tok == "(":
                depth = 1
                inner = []
                start = at
                while depth:
                    if idx >= len(tokens):
                        raise ParseError("unbalanced parenthesis", start)
                    t2, _ = take()
                    if t2 == "(":
                        depth += 1
                    elif t2 == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    if depth:
                        inner.append(t2)
                try:
                    value = parse_element("".join(inner), spec)
                except FieldError as exc:
                    raise ParseError(str(exc), start) from None
                coeff = coeff * value
            elif tok.startswith("x"):
                var = int(tok[1:])
                if var < 1:
                    raise ParseError("variables are numbered from x1", at)
                exp = 1
                if peek() == "^":
                    take()
                    etok, eat = take() if idx <= len(tokens) - 1 else (None, at)
                    if etok is None or not etok.isdigit():
                        raise ParseError("expected integer exponent after ^", eat)
                    exp = int(etok)
                exps[var - 1] = exps.get(var - 1, 0) + exp
                max_var = max(max_var, var)
            elif tok == "a":
                raise ParseError(
                    "basis symbol must appear inside parentheses", at
                )
            else:
                raise ParseError(f"unexpected token {tok!r}", at)
            if peek() == "*":
                take()
                if peek() is None:
                    raise ParseError("dangling '*'", tokens[-1][1])
                continue
            break
        terms.append((exps, coeff))
        if peek() not in (None, "+", "-"):
            tok, at = tokens[idx]
            raise ParseError(f"expected '+' or '-' before {tok!r}", at)

    if n is None:
        n = max_var
    elif max_var > n:
        raise ParseError(f"variable x{max_var} exceeds declared count {n}", 0)
    built: list[tuple[Monomial, FieldElement]] = []
    for exps, coeff in terms:
        mono = [0] * n
        for var, e in exps.items():
            mono[var] = e
        built.append((tuple(mono), coeff))
    return MultiPoly(spec, n, built)


def _format_coefficient(c: FieldElement) -> tuple[str, bool]:
    """Render a coefficient; the flag says whether it needs parentheses
    when multiplying a monomial."""
    text = str(c)
    needs = c.spec.m > 1 and any(c.coeffs[1:])
    return text, needs


def monomial_text(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        parts.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


_FACTOR_RE = re.compile(r"x([1-9]\d*)(?:\^([1-9]\d*))?")


def parse_monomial(text: str, n: int | None = None) -> Monomial:
    """Parse term text such as 'x1^2*x3', the inverse of `monomial_text`;
    '1' is the empty term and repeated variables multiply. Without n the
    term is as wide as its largest variable."""
    exps: dict[int, int] = {}
    if text != "1":
        for factor in text.split("*"):
            match = _FACTOR_RE.fullmatch(factor)
            if not match:
                raise PolyError(f"bad factor {factor!r} in term {text!r}")
            var = int(match.group(1)) - 1
            exps[var] = exps.get(var, 0) + int(match.group(2) or 1)
    needed = max(exps, default=-1) + 1
    if n is None:
        n = needed
    elif needed > n:
        raise PolyError(f"term {text!r} has a variable beyond x{n}")
    mono = [0] * n
    for var, e in exps.items():
        mono[var] = e
    return tuple(mono)


def format_poly(f: MultiPoly) -> str:
    if f.is_zero():
        return "0"
    chunks = []
    for mono, coeff in f.terms():
        text, needs = _format_coefficient(coeff)
        if not any(mono):
            chunks.append(f"({text})" if needs else text)
            continue
        mtext = monomial_text(mono)
        if coeff == f.spec.one:
            chunks.append(mtext)
        elif needs:
            chunks.append(f"({text})*{mtext}")
        else:
            chunks.append(f"{text}*{mtext}")
    return " + ".join(chunks)


# ---------------------------------------------------------------------------
# generators and interpolation


def random_poly(
    spec: FieldSpec,
    n: int,
    max_total_degree: int,
    term_count: int,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> MultiPoly:
    """Seed-deterministic random polynomial within the degree bound."""
    if n < 1 or max_total_degree < 0 or term_count < 0:
        raise PolyError("bounds must be positive")
    if rng is None:
        rng = random.Random(seed)
    cap = spec.order - 1
    terms: dict[Monomial, FieldElement] = {}
    for _ in range(term_count):
        total = rng.randint(0, max_total_degree)
        mono = [0] * n
        for _ in range(total):
            choices = [i for i in range(n) if mono[i] < cap]
            if not choices:
                break
            mono[rng.choice(choices)] += 1
        terms[tuple(mono)] = spec.random_element(rng, nonzero=True)
    return MultiPoly(spec, n, terms)


def all_points(spec: FieldSpec, n: int) -> Iterator[tuple[FieldElement, ...]]:
    return itertools.product(list(spec.elements()), repeat=n)


@lru_cache(maxsize=32)
def _inverse_vandermonde(spec: FieldSpec) -> list[list[FieldElement]]:
    pts = list(spec.elements())
    q = len(pts)
    rows = [[pt**j for j in range(q)] + [spec.one if i == j else spec.zero for j in range(q)]
            for i, pt in enumerate(pts)]
    # Gauss-Jordan over the field
    for col in range(q):
        pivot = next(r for r in range(col, q) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [v * inv for v in rows[col]]
        for r in range(q):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [row[q:] for row in rows]


def interpolate(spec: FieldSpec, n: int, values) -> MultiPoly:
    """Unique canonical polynomial matching a full function table.

    `values` is a mapping from point tuples to elements, or a callable on
    point tuples. Offered only while order**n stays desk-scale (<= 2^16).
    """
    q = spec.order
    if q**n > 1 << 16:
        raise PolyError("interpolation domain exceeds the desk-scale cap")
    pts = list(spec.elements())
    lookup: Callable
    if callable(values):
        lookup = values
    else:
        table = dict(values)
        lookup = table.__getitem__
    # tensor of values indexed by point indices, flattened row-major
    data = [spec.element(lookup(pt)) for pt in itertools.product(pts, repeat=n)]
    vinv = _inverse_vandermonde(spec)
    for axis in range(n):
        block = q ** (n - 1 - axis)
        new = [spec.zero] * len(data)
        for base in range(0, len(data), block * q):
            for off in range(block):
                col = [data[base + k * block + off] for k in range(q)]
                for j in range(q):
                    acc = spec.zero
                    row = vinv[j]
                    for k in range(q):
                        if col[k]:
                            acc = acc + row[k] * col[k]
                    new[base + j * block + off] = acc
        data = new
    terms: dict[Monomial, FieldElement] = {}
    for flat, coeff in enumerate(data):
        if not coeff:
            continue
        mono = []
        rem = flat
        for axis in range(n):
            power = q ** (n - 1 - axis)
            mono.append(rem // power)
            rem %= power
        terms[tuple(mono)] = coeff
    return MultiPoly(spec, n, terms)
