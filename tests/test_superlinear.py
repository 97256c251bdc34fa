import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import DenseOracle
from hlsb.errors import DimensionMismatchError, ParityError, RingMismatchError, ScalarError
from hlsb.scalar import ParamRing, Scalar
from hlsb.superlinear import (
    EVEN,
    ODD,
    EvenMap,
    SuperBasis,
    Tensor2,
    Tensor3,
    cyclic_sum,
    koszul_sign,
    tau,
    xi,
)

QQ = ParamRing()
B = SuperBasis([EVEN, EVEN, ODD, ODD])


def rand_tensor2(rng, parity=None):
    t = Tensor2(QQ, B)
    for i in range(B.dim):
        for j in range(B.dim):
            if parity is not None and (B.parity(i) + B.parity(j)) % 2 != parity:
                continue
            t.entries[i][j] = QQ.from_fraction(rng.randint(-4, 4))
    return Tensor2(QQ, B, t.entries, parity=parity)


def rand_tensor3(rng, parity=None):
    t = Tensor3(QQ, B)
    for i in range(B.dim):
        for j in range(B.dim):
            for k in range(B.dim):
                p = (B.parity(i) + B.parity(j) + B.parity(k)) % 2
                if parity is not None and p != parity:
                    continue
                t.entries[i][j][k] = QQ.from_fraction(rng.randint(-4, 4))
    return Tensor3(QQ, B, t.entries, parity=parity)


def rand_even_map(rng):
    n = B.dim
    m = [[QQ.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if B.parity(i) == B.parity(j):
                m[i][j] = QQ.from_fraction(rng.randint(-3, 3))
    return EvenMap(QQ, B, B, m)


def test_koszul_sign():
    assert koszul_sign(0, 0) == 1
    assert koszul_sign(0, 1) == 1
    assert koszul_sign(1, 0) == 1
    assert koszul_sign(1, 1) == -1


def test_basis_validation():
    with pytest.raises(ParityError):
        SuperBasis([0, 2])
    with pytest.raises(ParityError):
        SuperBasis([0, 1], labels=["x", "x"])
    with pytest.raises(DimensionMismatchError):
        SuperBasis([0, 1], labels=["x"])
    assert SuperBasis([0, 1]).labels == ("e1", "e2")
    with pytest.raises(ParityError):
        SuperBasis([0.7, 1.2])  # int() would truncate these to (0, 1)


def test_tensor_apply_refuses_a_map_onto_another_basis():
    other = SuperBasis(B.parities, ["x", "y", "z", "w"])
    f = EvenMap(QQ, B, other, {(i, i): 1 for i in range(B.dim)})
    t = Tensor2.from_dict(QQ, B, {(0, 2): 1})
    with pytest.raises(DimensionMismatchError):
        t.apply(f, 0)


def test_a_float_cell_is_refused():
    with pytest.raises(ScalarError):
        Tensor2.from_dict(QQ, B, {(0, 1): 0.1})
    with pytest.raises(ScalarError):
        EvenMap.diagonal(QQ, B, [1, 1, 0.5, 1])


def test_even_map_rejects_parity_mixing():
    with pytest.raises(ParityError):
        EvenMap(QQ, B, B, [[1 if (i, j) == (0, 2) else 0 for j in range(4)]
                           for i in range(4)])


def test_tensor_parity_validation():
    with pytest.raises(ParityError):
        Tensor2.from_dict(QQ, B, {(0, 2): 1}, parity=EVEN)
    Tensor2.from_dict(QQ, B, {(0, 2): 1}, parity=ODD)
    with pytest.raises(ParityError):
        Tensor3(QQ, B, entries=[[[1 if (i, j, k) == (0, 1, 2) else 0
                                  for k in range(4)] for j in range(4)]
                                for i in range(4)], parity=EVEN)
    for parity in (3, -1, 2):
        with pytest.raises(ParityError):
            Tensor2.from_dict(QQ, B, {(0, 2): 1}, parity=parity)
    odd = Tensor2.from_dict(QQ, B, {(0, 2): 1}, parity=ODD)
    assert (odd + odd).parity == ODD


def test_tau_involution(rng):
    for _ in range(20):
        t = rand_tensor2(rng)
        assert tau(tau(t)) == t


def test_tau_signs():
    t = Tensor2.from_dict(QQ, B, {(2, 3): 1, (0, 1): 1, (0, 2): 1})
    s = tau(t)
    assert s.entries[3][2] == -1  # odd (x) odd picks up the sign
    assert s.entries[1][0] == 1
    assert s.entries[2][0] == 1


def test_xi_has_order_three(rng):
    for _ in range(20):
        t = rand_tensor3(rng)
        assert xi(xi(xi(t))) == t


def test_xi_is_two_adjacent_flips(rng):
    # xi should agree with flipping slots (0,1) and then slots (1,2)
    def flip01(t):
        out = Tensor3(QQ, B)
        for i, j, k, v in t.items():
            s = koszul_sign(B.parity(i), B.parity(j))
            out.entries[j][i][k] = out.entries[j][i][k] + (v if s == 1 else -v)
        return out

    def flip12(t):
        out = Tensor3(QQ, B)
        for i, j, k, v in t.items():
            s = koszul_sign(B.parity(j), B.parity(k))
            out.entries[i][k][j] = out.entries[i][k][j] + (v if s == 1 else -v)
        return out

    for _ in range(20):
        t = rand_tensor3(rng)
        assert xi(t) == flip12(flip01(t))


def test_cyclic_sum_is_xi_invariant(rng):
    t = rand_tensor3(rng)
    s = cyclic_sum(t)
    assert xi(s) == s


def test_cyclic_sum_is_the_sum_of_the_three_rotations(rng):
    for _ in range(20):
        t = rand_tensor3(rng)  # mixed parity: every cell may be nonzero
        assert cyclic_sum(t) == t + xi(t) + xi(xi(t))


def test_compose_and_apply(rng):
    for _ in range(10):
        f = rand_even_map(rng)
        g = rand_even_map(rng)
        v = [QQ.from_fraction(rng.randint(-3, 3)) for _ in range(B.dim)]
        assert f.compose(g).apply(v) == f.apply(g.apply(v))


def test_power_and_identity(rng):
    f = EvenMap.diagonal(QQ, B, [2, 3, 5, 7])
    assert f.power(0).is_identity()
    assert f.power(3) == f.compose(f).compose(f)
    assert EvenMap.identity(QQ, B).is_identity()
    g = rand_even_map(rng)
    expected = EvenMap.identity(QQ, B)
    for n in range(7):
        assert g.power(n) == expected
        expected = g.compose(expected)


def test_transpose():
    f = EvenMap.diagonal(QQ, B, [2, 3, 5, 7])
    assert f.transpose() == f
    m = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0]]
    g = EvenMap(QQ, B, B, m)
    assert g.transpose().transpose() == g
    assert g.transpose().matrix[1][0] == 1


def test_column_is_the_sparse_column_and_refuses_an_index_out_of_range():
    g = EvenMap(QQ, B, B, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 3, 0]])
    for j in range(B.dim):
        assert g.column(j) == [row[j] for row in g.matrix]
    assert g.column(1) == [1, 0, 0, 0]
    h = EvenMap(QQ, SuperBasis([EVEN, ODD]), B, {(0, 0): 5, (3, 1): 7})
    assert h.column(1) == [0, 0, 0, 7]
    for f, j in ((g, -1), (g, B.dim), (h, 2), (h, -1)):
        with pytest.raises(DimensionMismatchError, match="out of range"):
            f.column(j)


def test_apply_slots_commute_with_even_maps(rng):
    # for an even map, slot application needs no signs; applying to all
    # slots must commute with the graded flip
    for _ in range(10):
        f = rand_even_map(rng)
        t = rand_tensor2(rng)
        assert tau(t.apply_all(f)) == tau(t).apply_all(f)
        u = rand_tensor3(rng)
        assert xi(u.apply_all(f)) == xi(u).apply_all(f)


def test_tensor_algebra_ops(rng):
    t = rand_tensor2(rng)
    u = rand_tensor2(rng)
    assert (t + u) - u == t
    assert t.scale(Fraction(1, 2)).scale(2) == t
    assert (t - t).is_zero()
    three = rand_tensor3(rng)
    assert (three + three) == three.scale(2)


def test_power_by_squaring():
    ring = ParamRing(["a"], invertible=["a"])
    basis = SuperBasis([EVEN, ODD])
    a = ring.param("a")
    f = EvenMap.diagonal(ring, basis, [a, a ** -1])
    start = time.perf_counter()
    g = f.power(10 ** 9)
    assert time.perf_counter() - start < 1
    assert g == EvenMap.diagonal(ring, basis, [a ** 10 ** 9, a ** -10 ** 9])


# The command line prints these strings in its FAIL lines.
LABELLED = SuperBasis([EVEN, ODD], labels=["h", "x"])


def test_tensor_repr_is_pinned():
    t = Tensor2.from_dict(QQ, LABELLED, {(0, 1): 2, (1, 0): Fraction(-1, 2), (1, 1): 3})
    assert repr(t) == "Tensor2{h(x)x: 2, x(x)h: -1/2, x(x)x: 3}"
    assert repr(Tensor2(QQ, LABELLED)) == "Tensor2{}"
    u = Tensor3.from_dict(QQ, LABELLED, {(0, 1, 1): 1, (1, 0, 1): -3})
    assert repr(u) == "Tensor3{h(x)x(x)x: 1, x(x)h(x)x: -3}"


def test_parity_error_text_is_pinned():
    with pytest.raises(ParityError, match=r"^entry h\(x\)x has parity 1, expected 0$"):
        Tensor2.from_dict(QQ, LABELLED, {(0, 1): 1}, parity=EVEN)
    with pytest.raises(ParityError,
                       match=r"^entry h\(x\)x\(x\)x has parity 0, expected 1$"):
        Tensor3.from_dict(QQ, LABELLED, {(0, 1, 1): 1}, parity=ODD)


def test_apply_rejects_a_slot_past_the_rank():
    f = EvenMap.identity(QQ, LABELLED)
    t = Tensor2.from_dict(QQ, LABELLED, {(0, 0): 1})
    u = Tensor3.from_dict(QQ, LABELLED, {(0, 0, 0): 1})
    for tensor in (t, u):
        with pytest.raises(ValueError):
            tensor.apply(f, tensor.rank)


def test_tau_refuses_a_tensor3():
    with pytest.raises(TypeError):
        tau(Tensor3.from_dict(QQ, B, {(0, 1, 2): 1}))


def test_xi_refuses_a_tensor2():
    with pytest.raises(TypeError):
        xi(Tensor2.from_dict(QQ, B, {(0, 1): 1}))


def test_cyclic_sum_refuses_a_tensor2():
    with pytest.raises(TypeError):
        cyclic_sum(Tensor2.from_dict(QQ, B, {(0, 1): 1}))


MALFORMED_KEYS = [(0, 1.5), (0, True), (False, 0), 5, (0, "1"), "01", (0, None)]


@pytest.mark.parametrize("key", MALFORMED_KEYS, ids=repr)
def test_a_malformed_cell_index_is_refused(key):
    with pytest.raises(DimensionMismatchError):
        Tensor2.from_dict(QQ, B, {key: 1})
    with pytest.raises(DimensionMismatchError):
        EvenMap(QQ, B, B, {key: 1})


def test_a_cell_over_the_ring_itself_is_adopted_and_any_other_is_lifted():
    ring = ParamRing(["a"])
    a = ring.param("a")
    t = Tensor2.from_dict(ring, B, {(0, 1): a, (1, 0): ring.zero(), (2, 3): 2})
    assert t._cells[0, 1] is a
    assert t.items() == [(0, 1, a), (2, 3, ring.from_fraction(2))]
    twin = ParamRing(["a"])  # equal, but another object
    assert Tensor2.from_dict(ring, B, {(0, 1): twin.param("a")}).items() == [(0, 1, a)]
    with pytest.raises(RingMismatchError):
        Tensor2.from_dict(ring, B, {(0, 1): ParamRing(["b"]).param("b")})


def test_entries_view_stays_consistent_with_the_sparse_cells():
    t = Tensor2.from_dict(QQ, B, {(0, 1): 2, (2, 3): -1})
    assert t.items() == [(0, 1, 2), (2, 3, -1)]
    t.entries[1][0] = QQ.from_fraction(5)  # written after items() was read
    t.entries[2][3] = QQ.zero()
    assert t.items() == [(0, 1, 2), (1, 0, 5)]
    assert repr(t) == "Tensor2{e1(x)e2: 2, e2(x)e1: 5}"
    assert tau(t) == Tensor2.from_dict(QQ, B, {(1, 0): 2, (0, 1): 5})
    u = Tensor3.from_dict(QQ, B, {(3, 2, 1): 4})
    u = u + u
    assert u.entries[3][2][1] == 8  # read after a write through +
    u.entries[0][0][0] = QQ.one()
    assert u.scale(2).items() == [(0, 0, 0, 2), (3, 2, 1, 16)]
    assert not u.is_zero() and u == u.apply_all(EvenMap.identity(QQ, B))


def test_entries_rows_write_one_cell_through():
    t = Tensor2.from_dict(QQ, B, {(0, 1): 2})
    t.entries[-1][-2] = 7  # lifted, and the negative index normalized
    assert t.items() == [(0, 1, 2), (3, 2, 7)] and t._cells[3, 2] == QQ.from_fraction(7)
    t.entries[0][-3] = 0
    assert t.items() == [(3, 2, 7)]
    row = t.entries[3]
    with pytest.raises(TypeError):
        row[0:2] = [1, 1]
    with pytest.raises(IndexError):
        row[4] = 1
    assert t.items() == [(3, 2, 7)]


def test_reading_entries_leaves_operations_sparse(monkeypatch):
    big = SuperBasis([EVEN] * 30)
    t = Tensor2.from_dict(QQ, big, {(3, 4): 5})
    assert len(t.entries) == 30 and t.entries[3][4] == 5
    calls = []
    original = Scalar.__bool__
    monkeypatch.setattr(Scalar, "__bool__", lambda s: calls.append(1) or original(s))
    assert t.scale(2).items() == [(3, 4, 10)]
    assert len(calls) <= 5  # not one per cell of the 30 x 30 grid


def test_cancellation_stores_no_cell():
    t = Tensor2.from_dict(QQ, B, {(0, 0): 1, (2, 3): Fraction(-3, 2)})
    zero = t - t
    assert zero._cells == {} and zero.items() == []
    assert zero.is_zero() and not zero and t  # falsy exactly when zero
    assert repr(zero) == "Tensor2{}"
    assert Tensor2.from_dict(QQ, B, {(1, 1): 0}).items() == []
    assert t.scale(0)._cells == {}


def test_from_dict_out_of_order_keys_give_row_major_items():
    data = {(3, 1): 1, (0, 2): 2, (3, 0): 3, (0, 0): 4, (1, 3): 5}
    t = Tensor2.from_dict(QQ, B, data)
    assert [item[:2] for item in t.items()] == sorted(data)
    u = Tensor3.from_dict(QQ, B, {(2, 0, 1): 1, (0, 3, 3): 2, (0, 3, 0): 3})
    assert [item[:3] for item in u.items()] == [(0, 3, 0), (0, 3, 3), (2, 0, 1)]
    for bad in ({(0, 4): 1}, {(0,): 1}, {(-1, 0): 1}):
        with pytest.raises(DimensionMismatchError):
            Tensor2.from_dict(QQ, B, bad)


def _cell_dicts(rank):
    index = st.tuples(*[st.integers(0, B.dim - 1)] * rank)
    return st.dictionaries(index, st.integers(-3, 3), max_size=10)


@st.composite
def _even_maps(draw):
    return [[draw(st.integers(-2, 2)) if B.parity(i) == B.parity(j) else 0
             for j in range(B.dim)] for i in range(B.dim)]


def _terms(t):
    return [(v, tuple(idx)) for *idx, v in t.items()]


def _cells(t):
    return {tuple(idx): v for *idx, v in t.items()}


@settings(max_examples=60, deadline=None)
@given(rank=st.sampled_from([2, 3]), data=st.data(), matrix=_even_maps(),
       c=st.integers(-3, 3), as_grid=st.booleans())
def test_sparse_operations_match_the_dense_oracle(rank, data, matrix, c, as_grid):
    cls = Tensor2 if rank == 2 else Tensor3
    t = cls.from_dict(QQ, B, data.draw(_cell_dicts(rank)))
    u = cls.from_dict(QQ, B, data.draw(_cell_dicts(rank)))
    if as_grid:
        assert len(t.entries) == B.dim  # reading the grid leaves the cells as they were
    oracle = DenseOracle(QQ, B.parities, alpha=matrix)
    f = EvenMap(QQ, B, B, matrix)
    assert _cells(t + u) == oracle.reduce(_terms(t) + _terms(u))
    assert _cells(t.scale(c)) == oracle.reduce([(v * c, idx) for v, idx in _terms(t)])
    for slot in range(rank):
        assert _cells(t.apply(f, slot)) == oracle.reduce(oracle.apply_alpha(_terms(t), slot))
    if rank == 2:
        assert _cells(tau(t)) == oracle.reduce(oracle.swap(_terms(t), 0))
    else:
        once = oracle.swap(oracle.swap(_terms(t), 0), 1)
        twice = oracle.swap(oracle.swap(once, 0), 1)
        assert _cells(xi(t)) == oracle.reduce(once)
        assert _cells(cyclic_sum(t)) == oracle.reduce(_terms(t) + once + twice)
