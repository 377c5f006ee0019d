"""Sparse exact linear algebra: echelon forms, kernels, rank."""

import random
from fractions import Fraction

from prozero.fields import QQ, PrimeField
from prozero.linalg import Echelon, Subspace, kernel_basis, rank_of


def _rand_vec(rng, keys, field, density=0.6):
    out = {}
    for k in keys:
        if rng.random() < density:
            c = field.from_int(rng.randint(-9, 9))
            if not field.is_zero(c):
                out[k] = c
    return out


def test_echelon_reduce_is_zero_iff_contained():
    rng = random.Random(3)
    keys = list(range(8))
    ech = Echelon(QQ)
    inserted = []
    for _ in range(6):
        v = _rand_vec(rng, keys, QQ)
        ech.insert(v)
        if v:
            inserted.append(v)
    for v in inserted:
        assert ech.contains(v)
        assert ech.reduce(v) == {}
    # reduce is idempotent and lands outside the span unless zero
    probe = _rand_vec(rng, keys, QQ)
    red = ech.reduce(probe)
    assert ech.reduce(red) == red
    if red:
        assert not ech.contains(probe)


def test_echelon_dim_counts_independent_rows():
    ech = Echelon(QQ)
    one = QQ.one()
    ech.insert({0: one, 1: one})
    ech.insert({1: one})
    ech.insert({0: one})           # dependent on the first two
    assert ech.dim == 2
    assert sorted(ech.pivots()) == [0, 1]


def test_echelon_normalises_non_unit_pivots():
    # leading coefficients 2, 3 and -1: only a pivot equal to one may skip
    # normalisation
    n = QQ.from_int
    ech = Echelon(QQ)
    assert ech.insert({0: n(1), 1: n(2)}) == 1
    assert ech.insert({0: n(1), 2: n(3)}) == 2
    assert ech.insert({0: n(2), 3: n(-1)}) == 3
    assert ech.rows == {1: {0: Fraction(1, 2), 1: 1},
                        2: {0: Fraction(1, 3), 2: 1},
                        3: {0: -2, 3: 1}}
    for piv, row in ech.rows.items():
        assert row[piv] == 1
    assert isinstance(ech.rows[1][0], Fraction)
    assert isinstance(ech.rows[2][0], Fraction)
    # by hand: x1 + x2 = (x1 + x0/2) + (x2 + x0/3) - 5/6 x0
    assert ech.reduce({1: n(1), 2: n(1)}) == {0: Fraction(-5, 6)}
    assert ech.reduce({0: n(1)}) == {0: 1}
    assert ech.contains({0: n(5), 1: n(6), 2: n(6)})   # 3 r1 + 2 r2
    assert not ech.contains({1: n(1)})


def test_subspace_equality_ignores_spanning_order():
    rng = random.Random(17)
    keys = list(range(10))
    for _ in range(20):
        vecs = [_rand_vec(rng, keys, QQ) for _ in range(5)]
        a = Subspace.spanned_by(vecs, QQ)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        # scale each vector: the span must not move
        scaled = [{k: QQ.mul(QQ.from_int(3), c) for k, c in v.items()}
                  for v in shuffled]
        b = Subspace.spanned_by(scaled, QQ)
        assert a == b
        assert a.contains_subspace(b) and b.contains_subspace(a)


def test_subspace_reduce_canonical():
    # equal classes reduce to the same representative
    rng = random.Random(5)
    keys = list(range(6))
    vecs = [_rand_vec(rng, keys, QQ) for _ in range(3)]
    sub = Subspace.spanned_by(vecs, QQ)
    probe = _rand_vec(rng, keys, QQ)
    shifted = dict(probe)
    for v in vecs:
        for k, c in v.items():
            acc = QQ.add(shifted.get(k, QQ.zero()), c)
            if QQ.is_zero(acc):
                shifted.pop(k, None)
            else:
                shifted[k] = acc
    assert sub.reduce(probe) == sub.reduce(shifted)


def test_kernel_basis_rank_nullity():
    rng = random.Random(29)
    for field in (QQ, PrimeField(13)):
        for trial in range(15):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = {c: _rand_vec(rng, range(rows), field) for c in range(cols)}

            def image(c):
                return dict(mat[c])

            ker = kernel_basis(list(range(cols)), image, field)
            r = rank_of(list(mat.values()), field)
            assert len(ker) == cols - r
            for kv in ker:
                # apply the matrix to the kernel vector by hand
                out = {}
                for c, coeff in kv.items():
                    for rk, m in mat[c].items():
                        acc = field.add(out.get(rk, field.zero()),
                                        field.mul(coeff, m))
                        if field.is_zero(acc):
                            out.pop(rk, None)
                        else:
                            out[rk] = acc
                assert out == {}
            assert rank_of(ker, field) == len(ker)


def test_rank_of_golden():
    one = QQ.one()
    two = QQ.from_int(2)
    assert rank_of([], QQ) == 0
    assert rank_of([{}], QQ) == 0
    assert rank_of([{0: one}, {0: two}], QQ) == 1
    assert rank_of([{0: one}, {1: one}, {0: one, 1: one}], QQ) == 2


def _copy_is_independent(copy):
    """Inserting into copy(src) leaves src's rows and column index as they
    were, and the copy ends as if src had taken the inserts itself."""
    rng = random.Random(19)
    keys = list(range(10))
    src = Echelon(QQ)
    for _ in range(5):
        src.insert(_rand_vec(rng, keys, QQ, density=0.4))
    rows = {p: list(row.items()) for p, row in src.rows.items()}
    uses = {c: set(pivs) for c, pivs in src._uses.items()}
    more = [_rand_vec(rng, keys, QQ, density=0.4) for _ in range(4)]
    dup = copy(src)
    for v in more:
        dup.insert(v)
    replay = Echelon(QQ)
    for p in rows:
        replay.insert(dict(rows[p]))
    for v in more:
        replay.insert(v)
    return ({p: list(row.items()) for p, row in src.rows.items()} == rows
            and src._uses == uses and dup.basis() == replay.basis())


def test_copy_is_independent_of_its_source():
    # shared spans are read-only, so a span built on a copy must not write
    # through to the span it copied
    assert _copy_is_independent(Echelon.copy)
    src = Echelon(QQ)
    src.insert({0: QQ.one(), 1: QQ.one()})
    dup = src.copy()
    assert list(dup.rows) == list(src.rows) and dup.rows == src.rows
    assert dup._uses == src._uses


def test_copy_check_sees_a_shared_source():
    # the check itself: a "copy" that is the source, or that shares its
    # row dicts, fails it
    def shallow(src):
        dup = Echelon(src.field)
        dup.rows = dict(src.rows)
        dup._uses = {c: set(pivs) for c, pivs in src._uses.items()}
        return dup

    assert not _copy_is_independent(lambda src: src)
    assert not _copy_is_independent(shallow)
