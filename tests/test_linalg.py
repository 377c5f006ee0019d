"""Sparse exact linear algebra: echelon forms, kernels, rank."""

import random
from fractions import Fraction

import pytest

from prozero.fields import QQ, PrimeField, field_from_spec
from prozero.linalg import _PIVOT_ONLY, Echelon, kernel_basis


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
        a = Echelon.spanned_by(vecs, QQ)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        # scale each vector: the span must not move
        scaled = [{k: QQ.mul(QQ.from_int(3), c) for k, c in v.items()}
                  for v in shuffled]
        b = Echelon.spanned_by(scaled, QQ)
        assert a == b and b == a


def test_subspace_reduce_canonical():
    # equal classes reduce to the same representative
    rng = random.Random(5)
    keys = list(range(6))
    vecs = [_rand_vec(rng, keys, QQ) for _ in range(3)]
    sub = Echelon.spanned_by(vecs, QQ)
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
            r = Echelon.spanned_by(list(mat.values()), field).dim
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
            assert Echelon.spanned_by(ker, field).dim == len(ker)


def test_rank_of_golden():
    one = QQ.one()
    two = QQ.from_int(2)

    def rank(vectors):
        return Echelon.spanned_by(vectors, QQ).dim

    assert rank([]) == 0
    assert rank([{}]) == 0
    assert rank([{0: one}, {0: two}]) == 1
    assert rank([{0: one}, {1: one}, {0: one, 1: one}]) == 2


def _scan_reduce(ech, vec):
    """Echelon.reduce as it was: clear the largest pivot column left,
    scanning for it afresh after every step."""
    f = ech.field
    out = dict(vec)
    while True:
        hit = None
        for col in out:
            if col in ech.rows and (hit is None or col > hit):
                hit = col
        if hit is None:
            return out
        c = out.pop(hit)
        for col, rc in ech.rows[hit].items():
            if col == hit:
                continue
            acc = out.get(col)
            v = f.sub(acc if acc is not None else f.zero(), f.mul(c, rc))
            if f.is_zero(v):
                out.pop(col, None)
            else:
                out[col] = v


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_one_pass_reduce_matches_the_scan(spec):
    # over q the pivots are not units, so rows and results hold Fractions;
    # results agree in key order too, so rows and reports do not move
    field = field_from_spec(spec)
    rng = random.Random(61)
    saw_fraction = False
    for trial in range(40):
        keys = [(rng.randint(0, 3), rng.randint(0, 9)) for _ in range(14)]
        ech = Echelon(field)
        for _ in range(rng.randint(1, 9)):
            vec = _rand_vec(rng, keys, field, density=0.3)
            assert list(ech.reduce(vec).items()) == \
                list(_scan_reduce(ech, vec).items())
            ech.insert(vec)
        for _ in range(10):
            vec = _rand_vec(rng, keys, field, density=rng.random())
            got = ech.reduce(vec)
            assert list(got.items()) == list(_scan_reduce(ech, vec).items())
            assert not set(got) & set(ech.rows)
            saw_fraction |= any(isinstance(c, Fraction) for c in got.values())
    assert saw_fraction == (spec == "q")


def _deep(ech):
    return ({p: list(row.items()) for p, row in ech.rows.items()},
            {c: set(pivs) for c, pivs in ech._uses.items()})


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_layered_echelon_matches_a_flat_build(spec):
    # two sibling layers on a base and a layer on the first of them, each
    # against one flat Echelon given the inserts of everything under it and
    # then its own: the same pivots picked, and the same reduce, pivots,
    # dim and canonical basis; no layer changes what it is stacked on
    field = field_from_spec(spec)
    rng = random.Random(83)
    for trial in range(30):
        keys = [(rng.randint(0, 3), rng.randint(0, 9)) for _ in range(14)]
        base_seq = [_rand_vec(rng, keys, field, density=0.3)
                    for _ in range(rng.randint(0, 8))]
        base = Echelon.spanned_by(base_seq, field)
        snapshot = _deep(base)
        stacks = [(base, base_seq)]
        for parent in (0, 0, 1):
            under, seq = stacks[parent]
            under_snapshot = _deep(under)
            layer, flat = Echelon(field, under), Echelon.spanned_by(seq, field)
            own = [_rand_vec(rng, keys, field, density=0.3)
                   for _ in range(rng.randint(1, 8))]
            for vec in own:
                assert layer.insert(vec) == flat.insert(vec)
            stacks.append((layer, seq + own))
            assert layer.base is under and _deep(under) == under_snapshot
            assert layer.pivots() == flat.pivots()
            assert layer.non_pivots(keys) == [k for k in keys
                                              if k not in flat.pivots()]
            assert layer.dim == flat.dim
            assert layer.basis() == flat.basis()
            for _ in range(10):
                vec = _rand_vec(rng, keys, field, density=rng.random())
                got = layer.reduce(vec)
                assert got == flat.reduce(vec)
                assert not set(got) & layer.pivots()
        assert _deep(base) == snapshot


def _eliminated_kernel(domain, image_fn, field, cls=Echelon):
    """kernel_basis's augmented elimination, applied to every map."""
    ech = cls(field)
    for pos, lab in enumerate(domain):
        row = {(1, col): c for col, c in image_fn(lab).items()}
        row[(0, pos)] = field.one()
        ech.insert(row)
    return [{domain[p]: c for (_, p), c in ech.row(piv).items()}
            for piv in sorted(ech.rows, reverse=True) if piv[0] == 0]


def _exact(vectors):
    """Vectors as lists of (key, scalar, scalar type): equal only if the
    keys come in the same order and the scalars are the same objects."""
    return [[(k, c, type(c)) for k, c in v.items()] for v in vectors]


def _monomial_map(rng, field, n):
    """A map on n shuffled labels, each sent to one of a few targets (so
    targets repeat) with a scalar drawn from -9..9, or to zero. Over q a
    scalar is sometimes a Fraction with denominator 1, as parsed ones are."""
    domain = [("lab", k) for k in range(n)]
    rng.shuffle(domain)
    targets = [(rng.randint(0, 2), rng.randint(0, 3))
               for _ in range(rng.randint(1, max(1, n // 2)))]
    images = {}
    for lab in domain:
        c = rng.randint(-9, 9)
        c = field.from_fraction(c, 1) if rng.random() < 0.3 else \
            field.from_int(c)
        images[lab] = ({} if field.is_zero(c) or rng.random() < 0.15
                       else {rng.choice(targets): c})
    return domain, images


def _count_echelons(monkeypatch):
    built = []
    init = Echelon.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Echelon, "__init__", counting)
    return built


@pytest.mark.parametrize("spec", ["q", "fp:32003", "fp:2"])
def test_monomial_kernel_is_the_eliminated_kernel(spec, monkeypatch):
    # images of at most one term: the kernel is read off the targets with
    # no Echelon, and equals the elimination's RREF in rows, key order
    # and scalar types (Fractions over q, where first coefficients other
    # than +-1 are inverted)
    field = field_from_spec(spec)
    rng = random.Random(97)
    built = _count_echelons(monkeypatch)
    saw = {"zero": False, "repeat": False, "non_unit_first": spec == "fp:2"}
    for trial in range(60):
        domain, images = _monomial_map(rng, field, rng.randint(0, 24))
        firsts = {}
        for lab in domain:
            for col, c in images[lab].items():
                saw["repeat"] |= col in firsts
                firsts.setdefault(col, c)
            saw["zero"] |= not images[lab]
        saw["non_unit_first"] |= any(c not in (field.one(), field.neg(1))
                                     for c in firsts.values())
        want = _eliminated_kernel(domain, images.__getitem__, field)
        before = len(built)
        got = kernel_basis(domain, images.__getitem__, field)
        assert len(built) == before
        assert _exact(got) == _exact(want)
    assert all(saw.values()), saw


def _components(domain, images):
    """The domain positions of each connected block of a map, found by a
    search over shared image columns: each block's positions ascending,
    blocks in order of their first position."""
    holders = {}
    for pos, lab in enumerate(domain):
        for col in images[lab]:
            holders.setdefault(col, []).append(pos)
    seen, blocks = set(), []
    for start in range(len(domain)):
        if start in seen:
            continue
        seen.add(start)
        todo, block = [start], []
        while todo:
            pos = todo.pop()
            block.append(pos)
            for col in images[domain[pos]]:
                for other in holders[col]:
                    if other not in seen:
                        seen.add(other)
                        todo.append(other)
        blocks.append(sorted(block))
    return blocks


def _assert_one_echelon_per_block(echelons, domain, images):
    """The Echelons of one multi-term kernel_basis call: one per connected
    block, in no set order, each holding exactly its block's marker
    columns, as pivots or in rows, and indexing no marker column."""
    want = sorted(_components(domain, images))
    got = []
    for ech in echelons:
        assert ech._index_floor == (1,)
        assert all(col[0] == 1 for col in ech._uses)
        got.append(sorted({col[1] for p in ech.rows for col in ech.row(p)
                           if col[0] == 0}))
    assert sorted(got) == want


def test_a_multi_term_image_keeps_the_elimination(monkeypatch):
    # the multi-term image's block is eliminated, as is every other block
    # (a one-term image's block is eliminated too once any image has two
    # terms): one Echelon per block, and the whole-domain RREF
    rng = random.Random(5)
    domain, images = _monomial_map(rng, QQ, 16)
    images[domain[7]] = {(9, 0): QQ.from_int(2), (9, 1): QQ.from_int(3)}
    want = _eliminated_kernel(domain, images.__getitem__, QQ)
    built = _count_echelons(monkeypatch)
    got = kernel_basis(domain, images.__getitem__, QQ)
    assert len(built) == len(_components(domain, images)) > 1
    _assert_one_echelon_per_block(built, domain, images)
    assert _exact(got) == _exact(want)


def _block_map(rng, field, blocks):
    """A map on shuffled labels in a few blocks: each label's image has
    0, 1, 2 or 3 terms, all in its block's own columns, drawn from a
    small set so that columns repeat, with scalars -9..9 (over q
    sometimes a Fraction with denominator 1)."""
    domain = []
    images = {}
    for b in range(blocks):
        cols = [(b, k) for k in range(rng.randint(1, 5))]
        for _ in range(rng.randint(1, 7)):
            lab = ("lab", len(domain))
            domain.append(lab)
            img = {}
            for col in rng.sample(cols, min(len(cols), rng.randint(0, 3))):
                c = rng.choice([k for k in range(-9, 10) if k])
                img[col] = (field.from_fraction(c, 1) if rng.random() < 0.3
                            else field.from_int(c))
            images[lab] = {col: c for col, c in img.items()
                           if not field.is_zero(c)}
    rng.shuffle(domain)
    return domain, images


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:32003"])
def test_block_kernels_are_the_whole_domain_elimination(spec):
    # random block-diagonal maps with images of 0 to 3 terms and repeated
    # columns: eliminating block by block gives the whole-domain RREF, in
    # rows, key order and scalar types
    field = field_from_spec(spec)
    rng = random.Random(211)
    seen = {"several_blocks": 0, "multi_term": 0, "kernel": 0}
    for trial in range(400):
        domain, images = _block_map(rng, field, rng.randint(1, 6))
        got = kernel_basis(domain, images.__getitem__, field)
        want = _eliminated_kernel(domain, images.__getitem__, field)
        assert _exact(got) == _exact(want)
        seen["several_blocks"] += len(_components(domain, images)) > 1
        seen["multi_term"] += any(len(img) > 1 for img in images.values())
        seen["kernel"] += bool(got)
    assert min(seen.values()) > 200, seen


def test_kernel_wide_eliminates_one_block_at_a_time(monkeypatch):
    # C-kernel-I0 at Mx 50 over fp:32003: the one kernel of t - y has
    # 4,815 labels in 792 blocks, 48 of them zero images; each block is
    # its own Echelon, the largest of 7 rows, where one Echelon held all
    # 4,815 rows
    from prozero import oracle
    from prozero.claims import run_claim
    from prozero.oracle import Context

    built = _count_echelons(monkeypatch)
    inserts = []
    insert = Echelon.insert

    def counting(self, vec):
        inserts.append(self)
        return insert(self, vec)

    monkeypatch.setattr(Echelon, "insert", counting)
    calls = []

    def spy(domain, image_fn, field):
        b, i = len(built), len(inserts)
        out = kernel_basis(domain, image_fn, field)
        calls.append((len(domain), built[b:], len(inserts) - i, len(out)))
        return out

    monkeypatch.setattr(oracle, "kernel_basis", spy)
    rep = run_claim("C-kernel-I0", ctx=Context(field_from_spec("fp:32003")),
                    mx=50)
    assert rep.status == "verified"
    (labels, echelons, inserted, dim), = calls
    assert (labels, len(echelons), inserted, dim) == (4815, 792, 4815, 48)
    assert max(len(ech.rows) for ech in echelons) == 7
    assert sum(len(ech.rows) for ech in echelons) == 4815


def test_koszul_cycle_kernel_builds_no_echelon(monkeypatch):
    # d1 sends each k1 generator to one monomial or to zero, so its cycle
    # kernel is read off the targets
    from prozero import koszul
    from prozero.oracle import Context, Window
    from prozero.rings import E2

    built = _count_echelons(monkeypatch)
    calls = []

    def spy(domain, image_fn, field):
        before = len(built)
        out = kernel_basis(domain, image_fn, field)
        calls.append((domain, len(built) - before, out))
        return out

    monkeypatch.setattr(koszul, "kernel_basis", spy)
    stage = koszul.koszul_pair(E2, 2, Window(6, 6, 10), (4, 4), Context())
    (d1_domain, d1_built, cycles), = calls
    assert d1_domain == list(stage.d1)
    assert all(len(img) <= 1 for img in stage.d1.values())
    assert cycles == stage.cycles and cycles
    assert d1_built == 0


# -- the inverse index back-substitution reads ------------------------------

def _assert_uses_is_the_inverse_index(ech):
    """`_uses` files each own row under its non-pivot columns at or above
    the index floor only (every column, but in `kernel_basis`'s
    elimination, whose floor leaves out the marker block): no key is an
    own pivot or below the floor, and each set is exactly the rows holding
    its column (none is left empty: a column cancelled from an older row
    is held by the new row)."""
    floor = ech._index_floor
    assert not set(ech._uses) & set(ech.rows)
    want = {}
    for p, row in ech.rows.items():
        for c in row:
            if c != p and (floor is None or not c < floor):
                want.setdefault(c, set()).add(p)
    assert ech._uses == want


def _check_every_insert(monkeypatch):
    """Check the inverse index after each Echelon.insert. Returns a count
    of inserts that added a pivot and of those whose back-substitution
    cancelled a column of an older row."""
    seen = {"pivots": 0, "cancelled": 0}
    insert = Echelon.insert

    def checked(self, vec):
        before = {p: set(self.row(p)) for p in self.rows}
        piv = insert(self, vec)
        _assert_uses_is_the_inverse_index(self)
        if piv is not None:
            seen["pivots"] += 1
            seen["cancelled"] += any(cols - {piv} - set(self.row(p))
                                     for p, cols in before.items())
        return piv

    monkeypatch.setattr(Echelon, "insert", checked)
    return seen


def _unit_vec(rng, keys, field):
    """One to four entries of +-1: rows sharing columns then often cancel
    in back-substitution."""
    return {k: field.from_int(rng.choice((1, -1)))
            for k in rng.sample(keys, rng.randint(1, min(4, len(keys))))}


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_uses_is_the_inverse_index_of_a_flat_build(spec, monkeypatch):
    field = field_from_spec(spec)
    rng = random.Random(29)
    seen = _check_every_insert(monkeypatch)
    for trial in range(60):
        keys = list(range(rng.randint(1, 12)))
        make = _unit_vec if trial % 2 else _rand_vec
        Echelon.spanned_by([make(rng, keys, field)
                            for _ in range(rng.randint(1, 14))], field)
    assert seen["pivots"] > 100 and seen["cancelled"] > 10, seen


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_uses_is_the_inverse_index_of_each_layer(spec, monkeypatch):
    # a base, a layer on it and a layer on that: each indexes its own
    # rows only, checked again for each once the layers above it are filled
    field = field_from_spec(spec)
    rng = random.Random(31)
    seen = _check_every_insert(monkeypatch)
    stacked = 0
    for trial in range(40):
        keys = [(rng.randint(0, 3), rng.randint(0, 5)) for _ in range(16)]
        layers = []
        for _ in range(3):
            layers.append(Echelon(field, layers[-1] if layers else None))
            for _ in range(rng.randint(1, 6)):
                layers[-1].insert(_unit_vec(rng, keys, field))
        for layer in layers:
            _assert_uses_is_the_inverse_index(layer)
        stacked += bool(layers[0].rows and layers[2].rows)
    assert stacked > 20
    assert seen["pivots"] > 100 and seen["cancelled"] > 10, seen


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_uses_is_the_inverse_index_of_a_kernel_elimination(spec,
                                                           monkeypatch):
    # the index of every block's Echelon covers the non-pivot image
    # columns and holds no marker column, though the rows hold many
    field = field_from_spec(spec)
    rng = random.Random(37)
    targets = [(a, b) for a in range(2) for b in range(4)]
    seen = _check_every_insert(monkeypatch)
    built = _count_echelons(monkeypatch)
    markers_held = 0
    for trial in range(30):
        domain = [("lab", k) for k in range(rng.randint(2, 16))]
        images = {lab: _unit_vec(rng, targets, field) for lab in domain}
        images[domain[0]] = {targets[0]: field.one(),
                             targets[1]: field.one()}
        before = len(built)
        kernel_basis(domain, images.__getitem__, field)
        _assert_one_echelon_per_block(built[before:], domain, images)
        markers_held += sum(col[0] == 0 and col != p for ech in built[before:]
                            for p in ech.rows for col in ech.row(p))
    assert markers_held > 100
    assert seen["pivots"] > 100 and seen["cancelled"] > 10, seen


def test_uses_is_the_inverse_index_in_every_span_of_verify_all(monkeypatch):
    # every Echelon one `verify all` builds: the shape spans and layers
    # of its Context, and its kernel eliminations
    from prozero.claims import run_all
    from prozero.oracle import Context

    built = _count_echelons(monkeypatch)
    ctx = Context()
    run_all(ctx=ctx)
    assert {id(ech) for ech in ctx.shapes.values()} <= set(map(id, built))
    assert any(ech.base is not None for ech in ctx.shapes.values())
    for ech in built:
        _assert_uses_is_the_inverse_index(ech)


# -- rows that are their pivot alone share one read-only row -----------------

class _UnsharedEchelon(Echelon):
    """Echelon with insert as it was before pivot-only rows were shared:
    every row is a dict of its own, one-term rows too, normalised like
    any other, and every non-pivot column is indexed."""

    def insert(self, vec):
        f = self.field
        row = self.reduce(vec)
        if not row:
            return None
        piv = max(row)
        if row[piv] != f.one():
            inv = f.inv(row[piv])
            row = {c: f.mul(inv, v) for c, v in row.items()}
        rows, uses = self.rows, self._uses
        for other_piv in uses.pop(piv, ()):
            other = rows[other_piv]
            c = other.pop(piv)
            for col, rc in row.items():
                if col == piv:
                    continue
                acc = other.get(col)
                v = f.sub(acc if acc is not None else f.zero(), f.mul(c, rc))
                if f.is_zero(v):
                    if acc is not None:
                        del other[col]
                        uses[col].discard(other_piv)
                else:
                    if acc is None:
                        uses.setdefault(col, set()).add(other_piv)
                    other[col] = v
        rows[piv] = row
        for col in row:
            if col != piv:
                uses.setdefault(col, set()).add(piv)
        return piv


def _mixed_vec(rng, keys, field):
    """One term half the time, else two to five. Scalars are +-1, 2, 3,
    -4 or 7, or from_fraction(2, 3) or (5, 1): over q a Fraction, the
    latter with denominator 1 as parsed ones are."""
    n = 1 if rng.random() < 0.5 else rng.randint(2, min(5, len(keys)))
    out = {}
    for k in rng.sample(keys, n):
        r = rng.random()
        if r < 0.15:
            c = field.from_fraction(2, 3)
        elif r < 0.3:
            c = field.from_fraction(5, 1)
        else:
            c = field.from_int(rng.choice((1, -1, 2, 3, -4, 7)))
        if not field.is_zero(c):
            out[k] = c
    return out


def _assert_same_rows(new, old, seen):
    """new stores each of old's one-term rows as the shared row and every
    other row as the same dict: keys in order, scalars and their types."""
    assert list(new.rows) == list(old.rows)
    for p, row in new.rows.items():
        if len(old.rows[p]) == 1:
            assert row is _PIVOT_ONLY and old.rows[p] == {p: 1}
            seen["fraction_one"] |= type(old.rows[p][p]) is Fraction
        else:
            assert type(row) is dict and _exact([row]) == _exact([old.rows[p]])
    assert new._uses == old._uses


def _assert_same_basis(new, old, field):
    """The same canonical basis, but a shared row reads {p: field.one()}
    where the old one may hold Fraction(1, 1)."""
    got, want = new.basis(), old.basis()
    assert len(got) == len(want)
    stored = {p: row for rows in new._layers for p, row in rows.items()}
    for g, w in zip(got, want):
        p = max(w)
        if stored[p] is _PIVOT_ONLY:
            assert w == {p: 1} and _exact([g]) == _exact([{p: field.one()}])
        else:
            assert _exact([g]) == _exact([w])


@pytest.mark.parametrize("spec", ["q", "fp:32003", "fp:2"])
def test_shared_pivot_rows_match_an_unshared_insert(spec):
    # random inserts of one-term and multi-term vectors into a base, two
    # layers on it and a layer on the first, against the same stack of
    # Echelons whose insert stores every row as its own dict: the same
    # pivots, rows, index, basis, dim, non-pivots and reduce
    field = field_from_spec(spec)
    rng = random.Random(101)
    seen = {"shared_insert": False, "shared_by_back_sub": False,
            "fraction_one": spec != "q", "non_unit_one_term": spec == "fp:2"}
    for trial in range(40):
        keys = [(rng.randint(0, 3), rng.randint(0, 5)) for _ in range(16)]
        stacks = [(None, None)]
        for parent in (0, 1, 1, 2):
            new_base, old_base = stacks[parent]
            new, old = Echelon(field, new_base), _UnsharedEchelon(field,
                                                                old_base)
            for _ in range(rng.randint(1, 9)):
                vec = _mixed_vec(rng, keys, field)
                red = old.reduce(vec)
                multi_before = {p for p, row in new.rows.items() if row}
                piv = new.insert(vec)
                assert piv == old.insert(vec)
                if piv is not None and len(red) == 1:
                    seen["shared_insert"] = True
                    seen["non_unit_one_term"] |= red[piv] != field.one()
                seen["shared_by_back_sub"] |= any(
                    new.rows[p] is _PIVOT_ONLY for p in multi_before)
                _assert_same_rows(new, old, seen)
            stacks.append((new, old))
            assert new.dim == old.dim
            assert new.non_pivots(keys) == old.non_pivots(keys)
            _assert_same_basis(new, old, field)
            for _ in range(8):
                vec = _rand_vec(rng, keys, field, density=rng.random())
                assert _exact([new.reduce(vec)]) == _exact([old.reduce(vec)])
    assert all(seen.values()), seen


@pytest.mark.parametrize("spec", ["q", "fp:32003", "fp:2"])
def test_kernel_basis_matches_an_unshared_elimination(spec):
    # maps with multi-term images, so kernel_basis eliminates; zero images
    # give marker rows that are their pivot alone
    field = field_from_spec(spec)
    rng = random.Random(103)
    targets = [(a, b) for a in range(2) for b in range(4)]
    zero_images = 0
    for trial in range(40):
        domain = [("lab", k) for k in range(rng.randint(2, 14))]
        images = {lab: ({} if rng.random() < 0.15
                        else _mixed_vec(rng, targets, field))
                  for lab in domain}
        images[domain[0]] = {targets[0]: field.from_int(2),
                             targets[1]: field.one()}
        zero_images += sum(not images[lab] for lab in domain)
        got = kernel_basis(domain, images.__getitem__, field)
        want = _eliminated_kernel(domain, images.__getitem__, field,
                                  _UnsharedEchelon)
        assert _exact(got) == _exact(want)
    assert zero_images > 10


def test_every_row_of_verify_all_is_shared_or_has_two_terms(monkeypatch):
    # a row that is its pivot alone is never a dict of its own: in every
    # Echelon one `verify all` builds, each row is the shared row or a
    # dict with at least two entries
    from prozero.claims import run_all
    from prozero.oracle import Context

    built = _count_echelons(monkeypatch)
    run_all(ctx=Context())
    shared = 0
    for ech in built:
        for row in ech.rows.values():
            if row is _PIVOT_ONLY:
                shared += 1
            else:
                assert type(row) is dict and len(row) >= 2
    assert shared > 10000
