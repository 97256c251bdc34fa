"""Exact scalars: rational Laurent polynomials in named parameters.

A :class:`ParamRing` fixes an ordered tuple of parameter names and marks a
subset of them as invertible.  A :class:`Scalar` over that ring is a finite
sum of terms

    coeff * p1^e1 * p2^e2 * ... * pn^en

with ``Fraction`` coefficients and integer exponents, where a negative
exponent may appear only on an invertible parameter.  Scalars are kept in
canonical form (no zero coefficients are stored), so equality is plain
structural equality and the zero test is trivial.

Scalars print in a stable form like ``3/2*a1^2*b4 - c2`` and the same ring
parses that form back, so text round-trips exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, RingMismatchError, ScalarError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Deepest nesting of parentheses and unary signs a scalar may have.  The
# parser recurses once per level, so this keeps hostile input well inside
# the interpreter's stack.
MAX_NESTING = 100


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
        self._zero_exps = (0,) * len(names)

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
        return Scalar(self, {})

    def one(self):
        return self.from_fraction(1)

    def from_fraction(self, value):
        value = Fraction(value)
        if value == 0:
            return Scalar(self, {})
        return Scalar(self, {self._zero_exps: value})

    def param(self, name):
        """The parameter *name* as a scalar."""
        try:
            i = self._index[name]
        except KeyError:
            raise ScalarError("%r is not a parameter of %r" % (name, self)) from None
        exps = [0] * len(self.names)
        exps[i] = 1
        return Scalar(self, {tuple(exps): Fraction(1)})

    def lift(self, value):
        """Coerce *value* (Scalar, int, Fraction or str) into this ring."""
        if isinstance(value, Scalar):
            if value.ring != self:
                raise RingMismatchError(
                    "scalar over %r used where %r expected" % (value.ring, self))
            return value
        if isinstance(value, str):
            return self.parse(value)
        return self.from_fraction(value)

    def parse(self, text):
        """Parse an expression like ``3/2*a1^2*b4 - c2`` into a scalar."""
        return _Parser(self, text).parse()


class Scalar:
    """An element of a :class:`ParamRing`, stored as {exponents: coeff}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        # terms must already be canonical: no zero coefficients, negative
        # exponents only at invertible positions.  All constructors in this
        # module guarantee that, so the constructor does not re-check.
        self.ring = ring
        self.terms = terms

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {self.ring._zero_exps: Fraction(1)}

    def is_constant(self):
        return not self.terms or set(self.terms) == {self.ring._zero_exps}

    def constant_value(self):
        """The value of a constant scalar as a Fraction."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ScalarError("%s is not constant" % (self,))
        return self.terms[self.ring._zero_exps]

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations -------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(
                "cannot combine scalars over %r and %r" % (self.ring, other.ring))

    def _coerce(self, other):
        if isinstance(other, Scalar):
            self._check_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_fraction(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return Scalar(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ring, {e: -c for e, c in self.terms.items()})

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(exps, 0) + c1 * c2
                if s:
                    terms[exps] = s
                else:
                    del terms[exps]
        return Scalar(self.ring, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

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
        if len(self.terms) != 1:
            raise ScalarError("cannot invert %s: not a single term" % (self,))
        (exps, coeff), = self.terms.items()
        for i, e in enumerate(exps):
            if e and self.ring.names[i] not in self.ring.invertible:
                raise ScalarError(
                    "cannot invert %s: parameter %s is not invertible"
                    % (self, self.ring.names[i]))
        return Scalar(self.ring, {tuple(-e for e in exps): 1 / coeff})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    # -- substitution / evaluation ---------------------------------------

    def substitute(self, mapping, ring=None):
        """Substitute scalars for parameters.

        *mapping* maps parameter names to values (Scalar, int, Fraction or
        str) over the target ring.  Parameters not mentioned must exist in
        the target ring and map to themselves.  The target ring is *ring*
        if given, else the ring of the first Scalar value in *mapping*,
        else this scalar's own ring.
        """
        if ring is None:
            for value in mapping.values():
                if isinstance(value, Scalar):
                    ring = value.ring
                    break
            else:
                ring = self.ring
        values = []
        for name in self.ring.names:
            if name in mapping:
                values.append(ring.lift(mapping[name]))
            else:
                values.append(ring.param(name))
        unknown = set(mapping) - set(self.ring.names)
        if unknown:
            raise ScalarError(
                "substitution names %r are not parameters of %r"
                % (sorted(unknown), self.ring))
        result = ring.zero()
        for exps, coeff in self.terms.items():
            term = ring.from_fraction(coeff)
            for value, e in zip(values, exps):
                if e:
                    term = term * value ** e
            result = result + term
        return result

    def evaluate(self, assignment):
        """Evaluate at Fraction values for every parameter in the support."""
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = coeff
            for i, e in enumerate(exps):
                if not e:
                    continue
                name = self.ring.names[i]
                if name not in assignment:
                    raise ScalarError("no value given for parameter %s" % name)
                base = Fraction(assignment[name])
                if base == 0 and e < 0:
                    raise ScalarError("evaluation maps invertible %s to 0" % name)
                value *= base ** e
            total += value
        return total

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
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
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

    def __init__(self, ring, text):
        self.ring = ring
        self.text = text
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
            kind, op, _ = self._peek()
            if kind == "op" and op in "*/":
                self._next()
                rhs = self.unary()
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
