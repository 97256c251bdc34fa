"""Exact scalars: rational Laurent polynomials in named parameters.

A :class:`ParamRing` fixes an ordered tuple of parameter names and marks a
subset of them as invertible.  A :class:`Scalar` over that ring is a finite
sum of terms

    coeff * p1^e1 * p2^e2 * ... * pn^en

with ``int`` or ``Fraction`` coefficients and integer exponents, where a
negative exponent may appear only on an invertible parameter.  Scalars are
kept in canonical form: no zero coefficients are stored, and a coefficient
is an ``int`` exactly when its denominator is 1 (never a float, never an
integral ``Fraction``).  So equality is plain structural equality, the zero
test is trivial, and the common integral constants multiply as machine
integers.

Each term is stored under one packed int key, sum(e_i * 2^(64*i)) over
the ring's parameters, each exponent a signed 64-bit field (packed
monomials as in Monagan and Pearce, "Sparse polynomial division using a
heap", J. Symb. Comp. 2011): the constant monomial is 0, a monomial
product adds keys and a monomial inverse negates its key.  So that no
field spills into its neighbour, each scalar carries a bound on its
largest |exponent|, and a product that may reach ``MAX_EXPONENT`` = 2^62
in some parameter raises :class:`ScalarError`.  ``Scalar.terms`` is a
read-only ``{exponent tuple: coeff}`` view, decoded on each read.  Rings
are compared by identity before ``ParamRing.__eq__`` runs.

Every contraction of the other modules is a sum of products of scalars,
and each product goes through one fused multiply-accumulate kernel,
``_add_product(cells, idx, x, y, negate)``: it adds the term products of
x and y straight into a copy of the cell's terms, as sparse polynomial
codes accumulate into one result, so the product x * y is never built.

Scalars print in a stable form like ``3/2*a1^2*b4 - c2`` and the same ring
parses that form back, so text round-trips exactly.

``ParamRing.lift`` is the one coercion into a ring: it takes a Scalar of
that ring, an int, a Fraction or a string and refuses a float.
``ParamRing.parse(text, values=...)`` may bind names to values of its own
ring, each checked by ``lift``, so text whose names stand for scalars of
the ring parses straight into it and no ring changes.
``Scalar.substitute`` stays the one map between rings: only the
parameters that occur in a scalar must exist in the target, and
evaluation is substitution into the constant ring ``ParamRing()``.
``HomSuperBialgebra.substitute`` moves a whole structure by mapping each
of its cells through it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add
from types import MappingProxyType

from .errors import ParseError, RingMismatchError, ScalarError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Packed exponent keys: field i holds the exponent of parameter i as a
# signed 64-bit integer, at bit 64*i.
_FIELD_BITS = 64
_FIELD = 1 << _FIELD_BITS
_HALF_FIELD = _FIELD >> 1

# Exclusive bound on the largest |exponent| of a scalar.  Every exponent
# stays below 2^62 < 2^63, so no packed field ever spills into its
# neighbour.
MAX_EXPONENT = 1 << 62

# Deepest nesting of parentheses and unary signs a scalar may have.  The
# parser recurses once per level, so this keeps hostile input well inside
# the interpreter's stack.
MAX_NESTING = 100

# Largest power the parser expands, measured as the number of terms the
# expansion can have times the bit length its coefficients can reach
# (see ``_power_size``).  (1+a)^81 and (1+a+b)^22 are the largest powers
# of their bases allowed; each parses in about 0.1 s or less on a 2-vCPU
# x86-64 machine with Python 3.11.  A power of a single term with
# coefficient +-1, such as a^1234567890, only adds exponents and is
# always allowed.
MAX_POWER_SIZE = 20000

# Largest product the parser expands, measured as the term count of the
# left factor times that of the right one (a bound on the terms of the
# result).  A chain of products of sums doubles its terms with each
# factor, so (1+a0)*(1+a1)*...*(1+a13) is the longest such chain allowed:
# it reaches 8192 terms and stops at the next factor, in about 0.2 s on a
# 2-vCPU x86-64 machine with Python 3.11.
MAX_PRODUCT_TERMS = 10000


def _coeff(value):
    """The canonical coefficient of *value*: an int if it is integral,
    else a Fraction."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        raise ScalarError("%r is a float; scalars are exact, so give an int, "
                          "a Fraction or a string" % (value,))
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _same_ring(a, b):
    """Are rings *a* and *b* equal?  Nearly every pair is one ring object,
    so identity is tested before ``ParamRing.__eq__``."""
    return a is b or a == b


def _add_at(cells, idx, value):
    """cells[idx] += value in a sparse cell dict, which never keeps a zero."""
    if value:
        value = cells[idx] + value if idx in cells else value
        if value:
            cells[idx] = value
        else:
            del cells[idx]


def _add_product(cells, idx, x, y, negate=False):
    """cells[idx] += x * y, or -= if *negate*, for scalars x and y, in a
    sparse cell dict that never keeps a zero.

    Each product of a term of x and a term of y is added straight into a
    copy of the cell's terms, so neither x * y nor -x is built; the cell
    gets one new Scalar, or is deleted when its terms cancel.  Where x, y
    and the cell are not over one ring object, or the product may reach
    ``MAX_EXPONENT``, it takes the generic path ``_add_at(cells, idx,
    x * y)`` instead, which checks the rings and the exponents."""
    xt, yt = x._terms, y._terms
    if not (xt and yt):
        return
    ring, old = x.ring, cells.get(idx)
    bound = x._bound + y._bound
    if (y.ring is not ring or old is not None and old.ring is not ring
            or bound >= MAX_EXPONENT):
        value = x * y
        _add_at(cells, idx, -value if negate else value)
        return
    if old is None:
        terms = {}
    else:
        terms = dict(old._terms)
        if old._bound > bound:
            bound = old._bound
    for k1, c1 in xt.items():
        if negate:
            c1 = -c1
        for k2, c2 in yt.items():
            key = k1 + k2
            s = terms.get(key, 0) + c1 * c2
            if s:
                terms[key] = s if type(s) is int else _coeff(s)
            else:
                del terms[key]
    if terms:
        cells[idx] = Scalar(ring, terms, bound)
    else:
        cells.pop(idx, None)


class ParamRing:
    """The ring Q[p1, ..., pn][q^-1 for each invertible q]."""

    def __init__(self, names=(), invertible=()):
        names = tuple(names)
        for name in names:
            if not _NAME_RE.match(name):
                raise ScalarError("bad parameter name %r" % (name,))
        if len(set(names)) != len(names):
            raise ScalarError("duplicate parameter names in %r" % (names,))
        invertible = frozenset(invertible)
        unknown = invertible - set(names)
        if unknown:
            raise ScalarError("invertible names %r are not parameters" % (sorted(unknown),))
        self.names = names
        self.invertible = invertible
        self._index = {n: i for i, n in enumerate(names)}

    def _exponents(self, key):
        """The exponent tuple of a packed key.  A negative field borrows
        one from the field above it, which the subtraction gives back."""
        exps = []
        for _ in self.names:
            e = key & (_FIELD - 1)
            if e >= _HALF_FIELD:
                e -= _FIELD
            exps.append(e)
            key = (key - e) >> _FIELD_BITS
        return tuple(exps)

    def __eq__(self, other):
        if not isinstance(other, ParamRing):
            return NotImplemented
        return self.names == other.names and self.invertible == other.invertible

    def __hash__(self):
        return hash((self.names, self.invertible))

    def __repr__(self):
        parts = [n + ("^-1" if n in self.invertible else "") for n in self.names]
        return "ParamRing(%s)" % ", ".join(parts)

    def zero(self):
        return Scalar(self, {}, 0)

    def one(self):
        return self.from_fraction(1)

    def from_fraction(self, value):
        value = _coeff(value)
        if value == 0:
            return Scalar(self, {}, 0)
        return Scalar(self, {0: value}, 0)

    def param(self, name):
        """The parameter *name* as a scalar."""
        try:
            i = self._index[name]
        except KeyError:
            raise ScalarError("%r is not a parameter of %r" % (name, self)) from None
        return Scalar(self, {1 << (_FIELD_BITS * i): 1}, 1)

    def lift(self, value):
        """Coerce *value* (Scalar of this ring, int, Fraction or str) into
        this ring; a float is refused."""
        if isinstance(value, Scalar):
            if not _same_ring(value.ring, self):
                raise RingMismatchError(
                    "scalar over %r used where %r expected" % (value.ring, self))
            return value
        if isinstance(value, str):
            return self.parse(value)
        return self.from_fraction(value)

    def parse(self, text, values=None):
        """Parse an expression like ``3/2*a1^2*b4 - c2`` into a scalar.

        A name bound in *values*, a mapping from names to values that
        ``lift`` takes into this ring, reads as that value; any other name
        must be a parameter of this ring."""
        bound = {name: self.lift(v) for name, v in values.items()} if values else {}
        return _Parser(self, text, bound).parse()


def _power_size(base, n):
    """An upper bound on the size of base^n in the units of
    MAX_POWER_SIZE: the count of monomials of degree |n| in the terms of
    base, times |n| times the bits of its largest coefficient plus those
    of its term count.  0 if the power only moves exponents."""
    coeffs = list(base._terms.values())
    k, n = len(coeffs), abs(n)
    if k == 0 or (k == 1 and abs(coeffs[0]) == 1):
        return 0
    if n > MAX_POWER_SIZE:  # the bound below is at least n
        return n
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
    return math.comb(n + k - 1, k - 1) * n * (bits + k.bit_length())


def _absolute_sum(ring, values):
    """The sum of *values* (scalars over *ring*) with their coefficients
    made positive, which dominates each of them term by term."""
    terms, bound = {}, 0
    for value in values:
        for key, c in value._terms.items():
            terms[key] = _coeff(terms.get(key, 0) + abs(c))
        bound = max(bound, value._bound)
    return Scalar(ring, terms, bound)


class Scalar:
    """An element of a :class:`ParamRing`, stored as {packed key: coeff}
    with a bound on its largest |exponent|."""

    __slots__ = ("ring", "_terms", "_bound")

    def __init__(self, ring, terms, bound):
        # terms must already be canonical: packed keys, no zero
        # coefficients, negative exponents only at invertible positions,
        # and no |exponent| above bound.  All constructors in this module
        # guarantee that, so the constructor does not re-check.
        self.ring = ring
        self._terms = terms
        self._bound = bound

    def _field_bounds(self):
        """The largest |exponent| of each parameter over the terms."""
        bounds = [0] * len(self.ring.names)
        for key in self._terms:
            bounds = list(map(max, bounds, map(abs, self.ring._exponents(key))))
        return bounds

    @property
    def terms(self):
        """The terms as a read-only {exponent tuple: coeff} mapping."""
        exponents = self.ring._exponents
        return MappingProxyType({exponents(k): c for k, c in self._terms.items()})

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def is_one(self):
        return self._terms == {0: 1}

    def is_constant(self):
        terms = self._terms
        return not terms or (len(terms) == 1 and 0 in terms)

    def constant_value(self):
        """The value of a constant scalar as a Fraction."""
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise ScalarError("%s is not constant" % (self,))
        return Fraction(self._terms[0])

    def __bool__(self):
        return bool(self._terms)

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.ring.lift(other)
        return None

    def __add__(self, other):
        if type(other) is not Scalar or other.ring is not self.ring:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        terms = dict(self._terms)
        for key, c in other._terms.items():
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s if type(s) is int else _coeff(s)
            else:
                terms.pop(key, None)
        b1, b2 = self._bound, other._bound
        return Scalar(self.ring, terms, b1 if b1 >= b2 else b2)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ring, {k: -c for k, c in self._terms.items()}, self._bound)

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
        if type(other) is not Scalar or other.ring is not self.ring:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        bound = self._bound + other._bound
        if bound >= MAX_EXPONENT:
            # the sum of the bounds overstates a product of distinct
            # parameters, so look at each parameter before refusing
            bound = max(map(add, self._field_bounds(), other._field_bounds()), default=0)
            if bound >= MAX_EXPONENT:
                raise ScalarError("product may reach an exponent of MAX_EXPONENT = %d"
                                  % MAX_EXPONENT)
        terms = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = k1 + k2
                s = terms.get(key, 0) + c1 * c2
                if s:
                    terms[key] = s if type(s) is int else _coeff(s)
                else:
                    del terms[key]
        return Scalar(self.ring, terms, bound)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self):
        """Invert a single-term scalar supported on invertible parameters."""
        if len(self._terms) != 1:
            raise ScalarError("cannot invert %s: not a single term" % (self,))
        (key, coeff), = self._terms.items()
        for name, e in zip(self.ring.names, self.ring._exponents(key)):
            if e and name not in self.ring.invertible:
                raise ScalarError(
                    "cannot invert %s: parameter %s is not invertible" % (self, name))
        return Scalar(self.ring, {-key: _coeff(Fraction(1) / coeff)}, self._bound)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return _same_ring(self.ring, other.ring) and self._terms == other._terms

    __hash__ = None

    # -- substitution / evaluation ---------------------------------------

    def substitute(self, mapping, ring=None):
        """Map this scalar into another ring; the one ring map of the module.

        *mapping* maps parameter names to values (Scalar, int, Fraction or
        str), each lifted into the target ring by ``ParamRing.lift``.  A
        parameter not mentioned maps to the parameter of the same name, so
        only parameters that occur in some term must exist in the target;
        ``substitute({}, ring=larger)`` lifts a scalar into a larger ring.
        The target ring is *ring* if given, else the ring of the first
        Scalar value in *mapping*, else this scalar's own ring.
        """
        if ring is None:
            for value in mapping.values():
                if isinstance(value, Scalar):
                    ring = value.ring
                    break
            else:
                ring = self.ring
        names = self.ring.names
        values = [ring.lift(mapping[name]) if name in mapping else None for name in names]
        unknown = set(mapping) - set(names)
        if unknown:
            raise ScalarError(
                "substitution names %r are not parameters of %r"
                % (sorted(unknown), self.ring))
        result = ring.zero()
        for exps, coeff in self.terms.items():
            term = ring.from_fraction(coeff)
            for i, e in enumerate(exps):
                if e:
                    if values[i] is None:
                        values[i] = ring.param(names[i])
                    term = term * values[i] ** e
            result = result + term
        return result

    def evaluate(self, assignment):
        """The value, as a Fraction, at the exact values *assignment* gives
        (int, Fraction or str, as ``ParamRing.lift`` takes them): the
        substitution into the constant ring.  Names outside this ring are
        ignored; a missing value or 0 at a negative power raises
        :class:`ScalarError`."""
        return self.substitute({name: assignment[name] for name in self.ring.names
                                if name in assignment}, ring=ParamRing()).constant_value()

    # -- printing --------------------------------------------------------

    def _term_str(self, exps, coeff):
        factors = []
        if abs(coeff) != 1:
            factors.append(str(abs(coeff)))
        for name, e in zip(self.ring.names, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else "%s^%d" % (name, e))
        if not factors:
            factors.append(str(abs(coeff)))
        return "*".join(factors)

    def __str__(self):
        if not self._terms:
            return "0"
        terms = self.terms
        pieces = []
        for exps in sorted(terms, reverse=True):
            coeff = terms[exps]
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, self._term_str(exps, coeff)))
        first_sign, first_term = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in pieces[1:]:
            out += " %s %s" % (sign, term)
        return out

    def __repr__(self):
        return "<Scalar %s>" % (self,)


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


class _Parser:
    """Recursive-descent parser for scalar expressions.

    Grammar:  expr  := term (('+'|'-') term)*
              term  := unary (('*'|'/') unary)*
              unary := ('+'|'-') unary | power
              power := atom ('^' ['-'] NUMBER)?
              atom  := NUMBER | NAME | '(' expr ')'
    """

    def __init__(self, ring, text, bound):
        self.ring = ring
        self.text = text
        self.bound = bound
        self.tokens = []  # (kind, value, position)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == m.start():
                if text[pos:].strip():
                    raise ParseError("unexpected character", text, pos)
                break
            if m.group(1):
                self.tokens.append(("num", int(m.group(1)), m.start(1)))
            elif m.group(2):
                self.tokens.append(("name", m.group(2), m.start(2)))
            else:
                self.tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()
        self.i = 0
        self.depth = 0

    def _peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _nest(self, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("nested deeper than %d levels" % MAX_NESTING,
                             self.text, pos)

    def parse(self):
        value = self.expr()
        kind, _, pos = self._peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, op, _ = self._peek()
            if kind == "op" and op in "+-":
                self._next()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, op, pos = self._peek()
            if kind == "op" and op in "*/":
                self._next()
                rhs = self.unary()
                if op == "*" and len(value._terms) * len(rhs._terms) > MAX_PRODUCT_TERMS:
                    raise ParseError("product larger than MAX_PRODUCT_TERMS = %d"
                                     % MAX_PRODUCT_TERMS, self.text, pos)
                try:
                    value = value * rhs if op == "*" else value / rhs
                except ScalarError as exc:
                    raise ParseError(str(exc), self.text, self._peek()[2]) from exc
            else:
                return value

    def unary(self):
        kind, op, pos = self._peek()
        if kind == "op" and op in "+-":
            self._next()
            self._nest(pos)
            value = self.unary()
            self.depth -= 1
            return value if op == "+" else -value
        return self.power()

    def power(self):
        value = self.atom()
        kind, op, _ = self._peek()
        if kind == "op" and op == "^":
            self._next()
            sign = 1
            kind, op, pos = self._peek()
            if kind == "op" and op == "-":
                self._next()
                sign = -1
            kind, num, pos = self._next()
            if kind != "num":
                raise ParseError("exponent must be an integer", self.text, pos)
            if _power_size(value, num) > MAX_POWER_SIZE:
                raise ParseError("power larger than MAX_POWER_SIZE = %d" % MAX_POWER_SIZE,
                                 self.text, pos)
            try:
                value = value ** (sign * num)
            except ScalarError as exc:
                raise ParseError(str(exc), self.text, pos) from exc
        return value

    def atom(self):
        kind, value, pos = self._next()
        if kind == "num":
            return self.ring.from_fraction(value)
        if kind == "name":
            if value in self.bound:
                return self.bound[value]
            try:
                return self.ring.param(value)
            except ScalarError as exc:
                raise ParseError(str(exc), self.text, pos) from exc
        if kind == "op" and value == "(":
            self._nest(pos)
            inner = self.expr()
            self.depth -= 1
            kind, value, pos = self._next()
            if not (kind == "op" and value == ")"):
                raise ParseError("expected ')'", self.text, pos)
            return inner
        raise ParseError("expected a number, parameter or '('", self.text, pos)
