"""Independent brute-force evaluator used to cross-check library residuals.

Nothing here shares code with the package internals: elements of tensor
powers are unreduced lists of ``(coefficient, index-tuple)`` terms, every
Koszul sign is recomputed from scratch (adjacent transpositions for the
permutation operators, explicit prefix parity sums for the twisted adjoint
action), and reduction to a dict happens only at the very end.  If a sign
or index convention in the package drifts, comparisons against this module
catch it.

The scalar oracle at the end goes one step further down: its polynomials
are plain ``{exponent tuple: Fraction}`` dicts, with no package scalar in
them at all.
"""

from fractions import Fraction


def vec_dict(vec):
    return {(k,): v for k, v in enumerate(vec) if v}


def t2_dict(t):
    return {(i, j): v for i, j, v in t.items()}


def t3_dict(t):
    return {(i, j, k): v for i, j, k, v in t.items()}


def _neg(terms):
    return [(-c, idx) for c, idx in terms]


class DenseOracle:
    def __init__(self, ring, parities, bracket=None, cobracket=None, alpha=None):
        self.ring = ring
        self.p = [int(x) for x in parities]
        self.n = len(self.p)
        lift = ring.lift
        self.c = None if bracket is None else [
            [[lift(v) for v in row] for row in plane] for plane in bracket]
        self.d = None if cobracket is None else [
            [[lift(v) for v in row] for row in plane] for plane in cobracket]
        self.A = None if alpha is None else [[lift(v) for v in row] for row in alpha]

    def sign(self, s):
        return -1 if s % 2 else 1

    def reduce(self, terms):
        out = {}
        for coeff, idx in terms:
            if not coeff:
                continue
            if idx in out:
                out[idx] = out[idx] + coeff
            else:
                out[idx] = coeff
        return {k: v for k, v in out.items() if v}

    def basis_term(self, i):
        return [(self.ring.one(), (i,))]

    def apply_alpha(self, terms, slot):
        out = []
        for coeff, idx in terms:
            a = idx[slot]
            for u in range(self.n):
                if self.A[u][a]:
                    out.append((coeff * self.A[u][a],
                                idx[:slot] + (u,) + idx[slot + 1:]))
        return out

    def alpha1(self, i):
        return self.apply_alpha(self.basis_term(i), 0)

    def bracket1(self, xt, yt):
        out = []
        for cx, (i,) in xt:
            for cy, (j,) in yt:
                for k in range(self.n):
                    if self.c[i][j][k]:
                        out.append((cx * cy * self.c[i][j][k], (k,)))
        return out

    def delta_slot(self, terms, slot):
        out = []
        for coeff, idx in terms:
            k = idx[slot]
            for a in range(self.n):
                for b in range(self.n):
                    if self.d[k][a][b]:
                        out.append((coeff * self.d[k][a][b],
                                    idx[:slot] + (a, b) + idx[slot + 1:]))
        return out

    def delta_of(self, i):
        return self.delta_slot(self.basis_term(i), 0)

    def swap(self, terms, pos):
        out = []
        for coeff, idx in terms:
            s = self.sign(self.p[idx[pos]] * self.p[idx[pos + 1]])
            nidx = idx[:pos] + (idx[pos + 1], idx[pos]) + idx[pos + 2:]
            out.append((coeff if s == 1 else -coeff, nidx))
        return out

    def ad(self, x_terms, x_parity, t_terms):
        out = []
        for cm, (m,) in x_terms:
            for coeff, idx in t_terms:
                arity = len(idx)
                for slot in range(arity):
                    prefix = sum(self.p[idx[s]] for s in range(slot))
                    sgn = self.sign(x_parity * prefix)
                    head = cm * coeff
                    if sgn == -1:
                        head = -head
                    pieces = [(head, idx)]
                    bracketed = []
                    for pc, pidx in pieces:
                        a = pidx[slot]
                        for u in range(self.n):
                            if self.c[m][a][u]:
                                bracketed.append((pc * self.c[m][a][u],
                                                  pidx[:slot] + (u,) + pidx[slot + 1:]))
                    pieces = bracketed
                    for s2 in range(arity):
                        if s2 != slot:
                            pieces = self.apply_alpha(pieces, s2)
                    out.extend(pieces)
        return out

    def bracket_at(self, terms, pos):
        """The bracket of slots pos and pos + 1 of each term, landing in pos."""
        out = []
        for coeff, idx in terms:
            for k in range(self.n):
                if self.c[idx[pos]][idx[pos + 1]][k]:
                    out.append((coeff * self.c[idx[pos]][idx[pos + 1]][k],
                                idx[:pos] + (k,) + idx[pos + 2:]))
        return out

    def partial_bracket(self, r, rp, slot):
        """[r12, r13], [r12, r23] or [r13, r23] for slot 0, 1 or 2, of two
        2-tensors given as {(i, j): coeff} dicts.  For r = a (x) b and
        rp = c (x) d the four factors are laid out as a (x) b (x) c (x) d,
        c is moved past b (with its Koszul sign) unless the bracket pairs b
        with c, the two bracketed factors are bracketed where they meet,
        and alpha is applied to each of the other two slots."""
        terms = [(u * w, ab + cd) for ab, u in r.items() for cd, w in rp.items()]
        if slot != 1:
            terms = self.swap(terms, 1)  # a (x) c (x) b (x) d
        terms = self.bracket_at(terms, slot)
        for s in range(3):
            if s != slot:
                terms = self.apply_alpha(terms, s)
        return self.reduce(terms)

    # -- axiom residuals -------------------------------------------------

    def skew(self, i, j):
        t = self.bracket1(self.basis_term(i), self.basis_term(j))
        u = self.bracket1(self.basis_term(j), self.basis_term(i))
        if self.sign(self.p[i] * self.p[j]) == 1:
            return self.reduce(t + u)
        return self.reduce(t + _neg(u))

    def jacobi(self, i, j, k):
        def hop(a, b, c_):
            return self.bracket1(
                self.alpha1(a), self.bracket1(self.basis_term(b), self.basis_term(c_)))

        terms = []
        for (a, b, c_), s in (((i, j, k), self.sign(self.p[i] * self.p[k])),
                              ((k, i, j), self.sign(self.p[k] * self.p[j])),
                              ((j, k, i), self.sign(self.p[j] * self.p[i]))):
            piece = hop(a, b, c_)
            terms += piece if s == 1 else _neg(piece)
        return self.reduce(terms)

    def mult(self, i, j):
        lhs = self.apply_alpha(
            self.bracket1(self.basis_term(i), self.basis_term(j)), 0)
        rhs = self.bracket1(self.alpha1(i), self.alpha1(j))
        return self.reduce(lhs + _neg(rhs))

    def admissible(self, i, j):
        """[(Id - alpha^2) e_i, alpha(e_j)]."""
        defect = self.basis_term(i) + _neg(self.apply_alpha(self.alpha1(i), 0))
        return self.reduce(self.bracket1(defect, self.alpha1(j)))

    def coskew(self, i):
        d = self.delta_of(i)
        return self.reduce(d + self.swap(d, 0))

    def cojacobi(self, i):
        w = self.apply_alpha(self.delta_slot(self.delta_of(i), 1), 0)
        xi1 = self.swap(self.swap(w, 0), 1)
        xi2 = self.swap(self.swap(xi1, 0), 1)
        return self.reduce(w + xi1 + xi2)

    def comult(self, i):
        lhs = self.delta_slot(self.alpha1(i), 0)
        rhs = self.apply_alpha(self.apply_alpha(self.delta_of(i), 0), 1)
        return self.reduce(lhs + _neg(rhs))

    def compat(self, i, j):
        lhs = self.delta_slot(
            self.bracket1(self.basis_term(i), self.basis_term(j)), 0)
        t1 = self.ad(self.alpha1(i), self.p[i], self.delta_of(j))
        t2 = self.ad(self.alpha1(j), self.p[j], self.delta_of(i))
        terms = lhs + _neg(t1)
        terms += t2 if self.sign(self.p[i] * self.p[j]) == 1 else _neg(t2)
        return self.reduce(terms)


# -- morphisms ------------------------------------------------------------
#
# A map f between two oracles' spaces is a dense matrix f[u][a], the
# coefficient of e_u in f(e_a).


def _map_terms(f, terms, slot):
    """f applied to one slot of unreduced terms."""
    return [(coeff * f[u][idx[slot]], idx[:slot] + (u,) + idx[slot + 1:])
            for coeff, idx in terms for u in range(len(f)) if f[u][idx[slot]]]


def bracket_morphism(src, dst, f, i, j):
    """f([e_i, e_j]) - [f(e_i), f(e_j)]."""
    lhs = _map_terms(f, src.bracket1(src.basis_term(i), src.basis_term(j)), 0)
    rhs = dst.bracket1(_map_terms(f, src.basis_term(i), 0), _map_terms(f, src.basis_term(j), 0))
    return src.reduce(lhs + _neg(rhs))


def cobracket_morphism(src, dst, f, i):
    """delta(f(e_i)) - (f (x) f) delta(e_i)."""
    lhs = dst.delta_slot(_map_terms(f, src.basis_term(i), 0), 0)
    rhs = _map_terms(f, _map_terms(f, src.delta_of(i), 0), 1)
    return src.reduce(lhs + _neg(rhs))


def twist_intertwine(src, dst, f):
    """f o alpha_src - alpha_dst o f as {(row, col): value}."""
    terms = []
    for a in range(src.n):
        terms += [(c, (u, a)) for c, (u,) in _map_terms(f, src.alpha1(a), 0)]
        image = _map_terms(f, src.basis_term(a), 0)
        terms += [(-c, (u, a)) for c, (u,) in dst.apply_alpha(image, 0)]
    return src.reduce(terms)


def morphism_violations(src, dst, f):
    """The violations check_bialgebra_morphism(f, src, dst) must report, in
    order, as (axiom, indices, residual) with the intertwining residual
    as the dict of its nonzero cells."""
    out = [("bracket-morphism", (i, j), bracket_morphism(src, dst, f, i, j))
           for i in range(src.n) for j in range(src.n)]
    out.append(("twist-intertwine", (), twist_intertwine(src, dst, f)))
    out += [("cobracket-morphism", (i,), cobracket_morphism(src, dst, f, i))
            for i in range(src.n)]
    return [v for v in out if v[2]]


# -- actions and bilinear forms -----------------------------------------
#
# Violations are (axiom, indices, residual) triples in the order the
# package reports them; a matrix residual is a dict {(row, col): value}
# of its nonzero cells.


def _matrix_dict(columns, d):
    """The nonzero cells of the matrix whose column c is the reduced dict
    columns[c] of (row,) -> value."""
    return {(row, c): v for c in range(d) for (row,), v in columns[c].items()}


class ActionOracle:
    """An action rho of an algebra (parities pm, bracket c[i][j][k],
    structure map A[i][j]) on a module (parities pv, structure map
    beta[i][j]), given by dense matrices rho[m][i][j], all of them plain
    nested lists of scalars."""

    def __init__(self, ring, pm, bracket, alpha, pv, beta, rho):
        self.ring = ring
        self.pm, self.pv = [int(x) for x in pm], [int(x) for x in pv]
        self.n, self.d = len(self.pm), len(self.pv)
        self.c, self.A, self.beta, self.rho = bracket, alpha, beta, rho
        self.reduce = DenseOracle(ring, []).reduce

    def unit(self, i):
        return [(self.ring.one(), (i,))]

    def apply(self, matrix, terms):
        return [(coeff * matrix[row][k], (row,)) for coeff, (k,) in terms
                for row in range(len(matrix)) if matrix[row][k]]

    def bracket(self, xt, yt):
        return [(cx * cy * self.c[i][j][k], (k,)) for cx, (i,) in xt for cy, (j,) in yt
                for k in range(self.n) if self.c[i][j][k]]

    def act(self, xt, vt):
        return [(cx * cv * self.rho[m][row][k], (row,)) for cx, (m,) in xt for cv, (k,) in vt
                for row in range(self.d) if self.rho[m][row][k]]

    def intertwine(self, i):
        cols = []
        for c in range(self.d):
            lhs = self.act(self.apply(self.A, self.unit(i)), self.apply(self.beta, self.unit(c)))
            rhs = self.apply(self.beta, self.act(self.unit(i), self.unit(c)))
            cols.append(self.reduce(lhs + _neg(rhs)))
        return _matrix_dict(cols, self.d)

    def action_bracket(self, i, j):
        sign = -1 if (self.pm[i] * self.pm[j]) % 2 else 1
        cols = []
        for c in range(self.d):
            e_c = self.unit(c)
            lhs = self.act(self.bracket(self.unit(i), self.unit(j)), self.apply(self.beta, e_c))
            first = self.act(self.apply(self.A, self.unit(i)), self.act(self.unit(j), e_c))
            second = self.act(self.apply(self.A, self.unit(j)), self.act(self.unit(i), e_c))
            terms = lhs + _neg(first) + (second if sign == 1 else _neg(second))
            cols.append(self.reduce(terms))
        return _matrix_dict(cols, self.d)

    def violations(self):
        out = []
        for m in range(self.n):
            for i in range(self.d):
                for j in range(self.d):
                    v = self.rho[m][i][j]
                    if v and (self.pv[j] + self.pm[m]) % 2 != self.pv[i]:
                        out.append(("action-grading", (m, i, j), v))
        for i in range(self.n):
            r = self.intertwine(i)
            if r:
                out.append(("action-intertwine", (i,), r))
        for i in range(self.n):
            for j in range(self.n):
                r = self.action_bracket(i, j)
                if r:
                    out.append(("action-bracket", (i, j), r))
        return out


class FormOracle:
    """A bilinear form S[i][j] = S(e_i, e_j) on a graded space, against an
    algebra on the same space (bracket c[i][j][k], structure map A)."""

    def __init__(self, ring, parities, form, bracket, alpha):
        self.ring = ring
        self.p = [int(x) for x in parities]
        self.n = len(self.p)
        self.S, self.c, self.A = form, bracket, alpha

    def value(self, xt, yt):
        total = self.ring.zero()
        for cx, (i,) in xt:
            for cy, (j,) in yt:
                total = total + cx * cy * self.S[i][j]
        return total

    def unit(self, i):
        return [(self.ring.one(), (i,))]

    def alpha(self, i):
        return [(self.A[u][i], (u,)) for u in range(self.n) if self.A[u][i]]

    def bracket(self, i, j):
        return [(self.c[i][j][k], (k,)) for k in range(self.n) if self.c[i][j][k]]

    def evenness(self):
        return [("form-even", (i, j), self.S[i][j]) for i in range(self.n)
                for j in range(self.n) if self.S[i][j] and (self.p[i] + self.p[j]) % 2]

    def supersymmetry(self):
        out = []
        for i in range(self.n):
            for j in range(i, self.n):
                back = self.S[j][i] if (self.p[i] * self.p[j]) % 2 == 0 else -self.S[j][i]
                r = self.S[i][j] - back
                if r:
                    out.append(("form-supersymmetric", (i, j), r))
        return out

    def self_adjoint(self):
        out = []
        for i in range(self.n):
            for j in range(self.n):
                r = (self.value(self.alpha(i), self.unit(j))
                     - self.value(self.unit(i), self.alpha(j)))
                if r:
                    out.append(("form-self-adjoint", (i, j), r))
        return out

    def invariance(self):
        out = []
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    r = (self.value(self.bracket(i, j), self.unit(k))
                         - self.value(self.unit(i), self.bracket(j, k)))
                    if r:
                        out.append(("form-invariant", (i, j, k), r))
        return out


# -- alpha-fixed tensors -------------------------------------------------
#
# A 2-tensor is fixed by alpha (x) alpha when (A (x) A - 1) t = 0, for the
# dense matrix A[u][a] of alpha.  The system is written over all n^2
# slots (i, j) in row-major order, each restriction as extra rows: t_ij +
# (-1)^{|e_i||e_j|} t_ji = 0 for skew tensors and t_ij = 0 at each odd
# slot for even ones.


def fixed_span(alpha, parities, skew=False, even_only=False):
    """The reduced-echelon basis of the alpha-fixed tensors, as {(i, j):
    Fraction} dicts of their nonzero cells: one tensor per free slot of
    the reduced system, in slot order, 1 at that slot and 0 at every
    other free slot.  *alpha* is a dense matrix of constant scalars, such
    as ``alpha.matrix``."""
    A = [[Fraction(v.constant_value()) for v in row] for row in alpha]
    n = len(parities)
    slots = [(i, j) for i in range(n) for j in range(n)]
    rows = [[A[u][a] * A[v][b] - ((u, v) == (a, b)) for a, b in slots] for u, v in slots]
    for i, j in slots:
        if skew:
            sign = -1 if parities[i] * parities[j] % 2 else 1
            rows.append([((a, b) == (i, j)) + sign * ((a, b) == (j, i)) for a, b in slots])
        if even_only and (parities[i] + parities[j]) % 2:
            rows.append([int((a, b) == (i, j)) for a, b in slots])
    return [{s: c for s, c in zip(slots, vec) if c} for vec in _nullspace(rows, len(slots))]


def _nullspace(rows, ncols):
    """Gauss-Jordan elimination of Fraction rows down to reduced echelon
    form, then one nullspace vector per column without a pivot."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = {}  # pivot column -> its row, once reduced
    for col in range(ncols):
        row = next((r for r in rows if r[col] and not any(r[c] for c in pivots)), None)
        if row is None:
            continue
        row[:] = [x / row[col] for x in row]
        for other in rows:
            if other is not row and other[col]:
                other[:] = [x - other[col] * y for x, y in zip(other, row)]
        pivots[col] = row
    free = [c for c in range(ncols) if c not in pivots]
    return [[Fraction(c == f) if c not in pivots else -pivots[c][f] for c in range(ncols)]
            for f in free]


# -- scalars -----------------------------------------------------------
#
# A polynomial is a dict {exponent tuple: Fraction} without zero values,
# over named parameters of which some are invertible (may carry negative
# exponents).


class PolyOracle:
    """Laurent polynomials with Fraction coefficients: schoolbook sums and
    products, powers by repeated multiplication, and substitution and
    evaluation term by term."""

    def __init__(self, names, invertible):
        self.names = tuple(names)
        self.invertible = frozenset(invertible)

    def clean(self, terms):
        return {e: c for e, c in terms.items() if c}

    def const(self, c):
        return self.clean({(0,) * len(self.names): Fraction(c)})

    def var(self, name):
        return {tuple(int(n == name) for n in self.names): Fraction(1)}

    def term(self, coeff, exps):
        return self.clean({tuple(exps): Fraction(coeff)})

    def add(self, x, y):
        out = dict(x)
        for e, c in y.items():
            out[e] = out.get(e, Fraction(0)) + c
        return self.clean(out)

    def neg(self, x):
        return {e: -c for e, c in x.items()}

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        out = {}
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return self.clean(out)

    def inverse(self, x):
        """The inverse of a single term on invertible parameters."""
        (e, c), = x.items()
        assert all(not k or n in self.invertible for n, k in zip(self.names, e))
        return {tuple(-k for k in e): Fraction(1) / c}

    def power(self, x, n):
        if n < 0:
            x, n = self.inverse(x), -n
        out = self.const(1)
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def substitute(self, x, values):
        """Replace each parameter named in *values* by that polynomial."""
        out = {}
        for e, c in x.items():
            term = self.const(c)
            for name, k in zip(self.names, e):
                term = self.mul(term, self.power(values.get(name, self.var(name)), k))
            out = self.add(out, term)
        return out

    def evaluate(self, x, point):
        total = Fraction(0)
        for e, c in x.items():
            value = c
            for name, k in zip(self.names, e):
                value = value * Fraction(point[name]) ** k
            total = total + value
        return total
