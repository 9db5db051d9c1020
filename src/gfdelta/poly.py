"""Sparse multivariate polynomials over GF(p) or GF(p^m) in reduced
function form.

Exponents are kept canonical under x^q = x (q the field order): every
positive exponent e is folded to ((e-1) mod (q-1)) + 1, so two polynomials
are equal exactly when they define the same function. The constructor
checks a monomial by its smallest and largest exponent and folds it only
when an exponent reaches q. Terms are stored in a map from exponent tuples
to nonzero coefficients, and only `_merge` writes terms into such a map,
before the polynomial that owns it is made: equal monomials sum, and a sum
that vanishes drops its monomial. Iteration and formatting use a graded
lexicographic order for determinism.

Over a field with log tables, `MultiPoly.evaluate` works on a packed form
of the polynomial, built on the first call and kept: the coefficients'
logs and each variable's exponents, one fixed-width slot per term in one
int each (`field.SlotCodec`, Kronecker substitution). An evaluation is a
big-integer multiply-add per variable, one read of the slots and one sum
of packed coordinate rows. The term map never changes after the
polynomial is made, so the packed form never goes stale. Above the table
limit evaluation multiplies each term out factor by factor, as
`substitute` does. A difference of polynomials, as of field elements, is
the sum with the negation.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .combinat import digit_sum
from .field import (
    FieldElement,
    FieldError,
    FieldSpec,
    SlotCodec,
    _integer,
    parse_element,
)

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


def _merge(
    out: dict[Monomial, FieldElement], terms: Iterable[tuple[Monomial, FieldElement]]
) -> dict[Monomial, FieldElement]:
    """Add each (monomial, coefficient) pair into the canonical map `out`
    and return it: equal monomials sum, and a zero sum drops its monomial."""
    get = out.get
    for mono, coeff in terms:
        prev = get(mono)
        if prev is not None:
            coeff = prev + coeff
        if coeff:
            out[mono] = coeff
        else:
            out.pop(mono, None)
    return out


class MultiPoly:
    """Immutable sparse polynomial; arithmetic allocates fresh results."""

    __slots__ = ("spec", "n", "_terms", "_hash", "_pack")

    def __init__(self, spec: FieldSpec, n: int, terms):
        if n < 0:
            raise PolyError("variable count must be >= 0")
        items = terms.items() if isinstance(terms, Mapping) else terms
        element, order = spec.element, spec.order

        def folded():
            for mono, coeff in items:
                coeff = element(coeff)
                if len(mono) != n:
                    raise PolyError(f"monomial {mono} does not have {n} exponents")
                if n:
                    if min(mono) < 0:
                        raise PolyError(f"negative exponent in {mono}")
                    if max(mono) >= order:
                        mono = [_fold(e, order) for e in mono]
                yield tuple(mono), coeff

        self.spec = spec
        self.n = n
        self._terms = _merge({}, folded())
        self._hash = None
        self._pack = None

    @classmethod
    def _raw(cls, spec, n, canon: dict) -> "MultiPoly":
        """The polynomial whose term map is `canon`, already canonical, taken
        without a copy. The map belongs to the polynomial from then on:
        nothing may write to it, since `evaluate` keeps a packed form of the
        terms in `_pack`. Every constructor builds a fresh map for its
        result and hands it over here or through `__init__`."""
        obj = object.__new__(cls)
        obj.spec = spec
        obj.n = n
        obj._terms = canon
        obj._hash = None
        obj._pack = None
        return obj

    # constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, spec, n) -> "MultiPoly":
        return cls._raw(spec, n, {})

    @classmethod
    def constant(cls, spec, n, value) -> "MultiPoly":
        return cls(spec, n, [((0,) * n, value)])

    def widen(self, n: int) -> "MultiPoly":
        """The same polynomial over max(n, self.n) variables."""
        if n <= self.n:
            return self
        pad = (0,) * (n - self.n)
        return MultiPoly._raw(
            self.spec, n, {mono + pad: c for mono, c in self._terms.items()}
        )

    # inspection -----------------------------------------------------------

    def terms(self) -> list[tuple[Monomial, FieldElement]]:
        """Terms in descending graded lexicographic order."""
        return sorted(
            self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )

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
            self.spec is other.spec
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
        if self.spec is not other.spec or self.n != other.n:
            raise PolyError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = MultiPoly.constant(self.spec, self.n, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        out = _merge(dict(self._terms), other._terms.items())
        return MultiPoly._raw(self.spec, self.n, out)

    def __neg__(self):
        return MultiPoly._raw(
            self.spec, self.n, {m: -c for m, c in self._terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, FieldElement, int)):
            return NotImplemented
        return self + -other

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
        products = (
            (tuple(_fold(a + b, order) for a, b in zip(m1, m2)), c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
        )
        return MultiPoly._raw(self.spec, self.n, _merge({}, products))

    __rmul__ = __mul__

    # evaluation -----------------------------------------------------------

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        """The value at a point of elements or ints.

        Over a field with log tables (order at most LOG_TABLE_LIMIT) a term
        is g^e, e = log(coeff) + sum of e_i * log(x_i), worked out for every
        term at once on the packed form `_packed`: one int of the
        coefficients' logs plus, per variable, log(x_i) times the int of its
        exponents, one big-integer multiply-add per variable that some term
        uses. A zero x_i adds the dead log instead, which lifts every term
        that needs it to the dead threshold or past it, and such a term
        drops. The slots are read back once, the packed coordinate rows of
        g^(e mod (q-1)) sum over the live ones (`FieldSpec._rows`), and each
        coordinate reduces mod p once. Other fields multiply and add term by
        term, each term coeff * x_i^e_i one factor at a time, as
        `substitute` does."""
        if len(point) != self.n:
            raise PolyError(f"point has {len(point)} coordinates, expected {self.n}")
        spec = self.spec
        point = [
            v if v.__class__ is FieldElement and v.spec is spec else spec.element(v)
            for v in point
        ]
        if spec._tables is not None:
            logs, variables, columns, dead, slots = self._pack or self._packed()
            n1 = spec.order - 1
            zero = spec.zero.log
            acc = logs
            for i, column in zip(variables, columns):
                e = point[i].log
                if e:
                    acc += (dead if e == zero else e) * column
            rows = spec._rows
            live = [rows[e % n1] for e in slots.unpack(acc) if e < dead]
            return spec._sum_rows(sum(live))
        total = spec.zero
        for mono, coeff in self._terms.items():
            for i, e in enumerate(mono):
                if e:
                    coeff = coeff * point[i] ** e
            total = total + coeff
        return total

    def _packed(self) -> tuple:
        """The packed form `evaluate` works on over a table field, built on
        the first call and kept in `_pack`: (logs, variables, columns, dead,
        slots).

        Each term has one slot of `slots`, a `SlotCodec` (Kronecker
        substitution). `logs` packs the coefficients' logs, and the column
        of each of `variables`, the variables some term uses, packs that
        variable's exponents. With `top` the largest total degree, a live
        term's sum is at most (q-2)(top + 1), and `dead` is one more, so a
        term needing a zero reaches it. The slot bound, (q-2) + top * dead,
        holds every sum, live or dead, so no slot carries into the next."""
        n1 = self.spec.order - 1
        monos = list(self._terms)
        top = max(map(sum, monos), default=0)
        dead = (n1 - 1) * (top + 1) + 1
        slots = SlotCodec(len(monos), (n1 - 1) + top * dead)
        used = [(i, c) for i, c in enumerate(zip(*monos)) if any(c)]
        logs, *columns = slots.pack(
            [[c.log for c in self._terms.values()], *(c for _, c in used)]
        )
        self._pack = (logs, [i for i, _ in used], columns, dead, slots)
        return self._pack

    def substitute(self, assignment: Mapping[int, FieldElement]) -> "MultiPoly":
        """Fix some variables to constants; the result keeps all n slots."""
        fixed = {i: self.spec.element(v) for i, v in assignment.items()}

        def terms():
            for mono, coeff in self._terms.items():
                for i, value in fixed.items():
                    if mono[i]:
                        coeff = coeff * value ** mono[i]
                yield tuple(0 if i in fixed else e for i, e in enumerate(mono)), coeff

        return MultiPoly._raw(self.spec, self.n, _merge({}, terms()))

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
# grammar: a polynomial is terms joined by runs of signs. A run is any mix of
# '+' and '-', and it negates the term after it when it holds an odd number
# of '-'; the first term may carry one too. A term is factors joined by '*':
# an integer, an element literal in parentheses (`field.parse_element`, in
# the basis symbol 'a', e.g. '(2*a+1)'), or a variable xK with an optional
# power ^E. Coefficients multiply, and a repeated variable adds its powers.
# Variables run from x1 to x{MAX_VARIABLE}. Whitespace (any character that
# str.isspace admits) may stand between any two tokens and inside a literal,
# but not inside a number or an xK.
#
# The scanner reads a factor with the whitespace and '*' after it in one
# match, and a run of signs in one match. Only a failed scan looks for the
# error: a character that starts no token comes first wherever it stands,
# then the grammar error where the scan stopped.

# the largest variable index term syntax admits; a monomial is as wide as its
# largest index, and planted targets use at most 72
MAX_VARIABLE = 1024

_SIGNS_RE = re.compile(r"[\s+-]*")
# a factor and what follows it: group 1 an integer or a literal with its
# parentheses, groups 2 and 3 the K and E of xK^E, group 4 a '*' that joins
# the next factor
_POLY_FACTOR_RE = re.compile(
    r"(?:(\d+|\([^()]*\))|x(\d+)(?:\s*\^\s*(\d+))?)\s*(\*\s*)?"
)
_BAD_CHAR_RE = re.compile(r"x(?!\d)|[^\s\dx()^*+\-a]")
_TOKEN_RE = re.compile(r"\d+|x\d+|\S")
_VARIABLE_RE = re.compile(r"x(\d+)")


def parse_poly(text: str, spec: FieldSpec, n: int | None = None) -> MultiPoly:
    """Parse polynomial text like 'x1^5*x2 + (2*a+1)*x3 - 7' over n
    variables, by default as many as its largest index. Malformed text
    raises ParseError at the position of its first fault."""
    signs = _SIGNS_RE.match
    factor = _POLY_FACTOR_RE.match
    values: dict[str, FieldElement] = {}  # coefficient text -> element
    terms = []
    max_var = 0
    pos = 0
    end = len(text)
    while True:
        run = signs(text, pos)
        pos = run.end()
        coeff = None
        exps: dict[int, int] = {}
        while True:
            m = factor(text, pos)
            if m is None:
                raise _scan_error(text, pos, spec)
            lit, var, exp, star = m.groups()
            if lit is not None:
                value = values.get(lit)
                if value is None:
                    try:
                        value = _coefficient(lit, spec)
                    except FieldError as exc:
                        # a fault inside a literal stands past its '('
                        at = pos if exc.position is None else pos + 1 + exc.position
                        raise _scan_error(text, at, spec, exc.reason) from None
                    values[lit] = value
                coeff = value if coeff is None else coeff * value
            else:
                try:
                    k = int(var)
                    e = int(exp) if exp else 1
                except ValueError:
                    # past Python's digit limit: the first such integer
                    # raises its ParseError
                    _integer(var, pos, ParseError)
                    _integer(exp, m.start(3), ParseError)
                    raise
                if not k:
                    raise _scan_error(text, pos, spec, "variables are numbered from x1")
                exps[k] = exps.get(k, 0) + e
                if k > max_var:
                    max_var = k
            pos = m.end()
            if star is None:
                break
        terms.append((exps, coeff, run.group().count("-") & 1))
        if pos == end:
            break
        if text[pos] not in "+-":
            raise _scan_error(text, pos, spec, after=m)

    if n is None:
        n = max_var
    elif max_var > n:
        raise ParseError(f"variable x{max_var} exceeds declared count {n}", 0)
    if max_var > MAX_VARIABLE:
        big = next(
            v for v in _VARIABLE_RE.finditer(text) if int(v.group(1)) > MAX_VARIABLE
        )
        raise ParseError(
            f"variable x{int(big.group(1))} is past x{MAX_VARIABLE}", big.start()
        )
    order = spec.order
    one = spec.one

    def folded():
        for exps, coeff, negative in terms:
            mono = [0] * n
            for k, e in exps.items():
                mono[k - 1] = e if e < order else _fold(e, order)
            if coeff is None:
                coeff = one
            if negative:
                coeff = -coeff
            yield tuple(mono), coeff

    return MultiPoly._raw(spec, n, _merge({}, folded()))


@lru_cache(maxsize=1024)
def _coefficient(lit: str, spec: FieldSpec) -> FieldElement:
    """The element a coefficient factor names, an integer or a literal in
    parentheses; FieldError if it names none. Kept across calls."""
    if lit[0] != "(":
        return spec.element(_integer(lit))
    return parse_element(lit[1:-1], spec)


def _scan_error(
    text: str, pos: int, spec: FieldSpec, message: str | None = None, after=None
) -> ParseError:
    """The error for a scan that stopped at pos: a character that starts no
    token, wherever it stands, else `message`, else what the grammar wants
    at pos, a factor or, after a term whose last factor matched as `after`,
    a sign."""
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        return ParseError(f"unexpected character {bad.group()[0]!r}", bad.start())
    if message is not None:
        return ParseError(message, pos)
    if after is not None:
        if text[pos] == "^" and after.group(2) and not after.group(3):
            exponent = _TOKEN_RE.search(text, pos + 1)
            at = exponent.start() if exponent else after.start()
            return ParseError("expected integer exponent after ^", at)
        tok = _TOKEN_RE.match(text, pos).group()
        return ParseError(f"expected '+' or '-' before {tok!r}", pos)
    rest = text.rstrip()
    if not rest:
        return ParseError("empty polynomial", 0)
    if pos == len(text):
        dangling = "'*'" if rest[-1] == "*" else "sign"
        return ParseError(f"dangling {dangling}", len(rest) - 1)
    char = text[pos]
    if char == "(":
        # a nested literal, which parse_element rejects, or an unclosed one
        depth = 0
        for close in range(pos, len(text)):
            depth += (text[close] == "(") - (text[close] == ")")
            if not depth:
                try:
                    parse_element(text[pos + 1 : close], spec)
                except FieldError as exc:
                    return ParseError(str(exc), pos)
                break
        else:
            return ParseError("unbalanced parenthesis", pos)
    if char == "a":
        return ParseError("basis symbol must appear inside parentheses", pos)
    return ParseError(f"unexpected token {char!r}", pos)


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


def parse_monomial(text: str, n: int | None = None) -> Monomial:
    """Parse term text such as 'x1^2*x3', the inverse of `monomial_text`,
    with the factors and whitespace of polynomial text but no coefficient;
    '1' is the empty term and repeated variables multiply. Without n the
    term is as wide as its largest variable."""
    exps: dict[int, int] = {}
    if text.strip() != "1":
        pos = len(text) - len(text.lstrip())
        star = "*"
        while star:
            # a coefficient or x0 ends the scan with star still set
            match = _POLY_FACTOR_RE.match(text, pos)
            if match is None or match.group(2) is None:
                break
            var = _integer(match.group(2), pos, ParseError) - 1
            if var < 0:
                break
            _, _, exp, star = match.groups()
            e = _integer(exp, match.start(3), ParseError) if exp else 1
            exps[var] = exps.get(var, 0) + e
            pos = match.end()
        if star or pos != len(text):
            raise PolyError(f"bad factor {text[pos:]!r} in term {text!r}")
    needed = max(exps, default=-1) + 1
    if needed > MAX_VARIABLE:
        raise PolyError(f"term {text!r} has a variable past x{MAX_VARIABLE}")
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
    # coordinates -> (the coefficient alone, its prefix before a monomial),
    # rendered once per distinct coefficient
    rendered: dict[tuple, tuple[str, str]] = {}
    one = f.spec.one
    chunks = []
    for mono, coeff in f.terms():
        forms = rendered.get(coeff.coeffs)
        if forms is None:
            text, needs = _format_coefficient(coeff)
            if needs:
                text = f"({text})"
            forms = rendered[coeff.coeffs] = (text, "" if coeff == one else text + "*")
        if any(mono):
            chunks.append(forms[1] + monomial_text(mono))
        else:
            chunks.append(forms[0])
    return " + ".join(chunks)


# ---------------------------------------------------------------------------
# generators


def random_poly(
    spec: FieldSpec,
    n: int,
    max_total_degree: int,
    term_count: int,
    rng: random.Random,
) -> MultiPoly:
    """A random polynomial within the degree bound, drawn from rng."""
    if n < 1 or max_total_degree < 0 or term_count < 0:
        raise PolyError("bounds must be positive")
    terms: dict[Monomial, FieldElement] = {}
    for _ in range(term_count):
        mono = _random_monomial(rng, n, max_total_degree, spec.order - 1)
        terms[mono] = spec.random_element(rng, nonzero=True)
    return MultiPoly(spec, n, terms)


def _random_monomial(
    rng: random.Random, n: int, max_total_degree: int, cap: int
) -> Monomial:
    """A seeded monomial: a total degree up to the bound, then one variable
    per unit among those whose exponent is still below cap, as
    `rng.choice` over them would draw it. Until the largest free exponent
    reaches cap the free variables stay the same, so the units up to then
    are drawn in one `_residues` call, the same stream. The free variables
    start as all n with largest exponent 0, and are rescanned only when
    units are left after a batch, which needs a total degree past cap."""
    mono = [0] * n
    units = rng.randint(0, max_total_degree)
    free, top = range(n), 0
    while units:
        batch = min(units, cap - top)
        for r in _residues(rng, len(free), batch):
            mono[free[r]] += 1
        units -= batch
        if units:
            top = max([mono[i] for i in free])
            if top == cap:
                free = [i for i in free if mono[i] < cap]
                if not free:
                    break
                top = max([mono[i] for i in free])
    return tuple(mono)


def _residues(rng: random.Random, p: int, count: int) -> list[int]:
    """`[rng.randrange(p) for _ in range(count)]`, drawn as `randrange`
    draws: words of `p.bit_length()` random bits, each one >= p dropped.
    Drawing only as many words as residues are still missing never draws
    past the last residue kept, so the values and the generator's end state
    are the same as `randrange`'s, and as those of `rng.choice` indexing a
    sequence of p items."""
    k = p.bit_length()
    out: list[int] = []
    while len(out) < count:
        words = map(rng.getrandbits, itertools.repeat(k, count - len(out)))
        out += [r for r in words if r < p]
    return out


def all_points(spec: FieldSpec, n: int) -> Iterator[tuple[FieldElement, ...]]:
    return itertools.product(list(spec.elements()), repeat=n)
