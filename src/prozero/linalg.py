"""Sparse exact linear algebra over a pluggable field.

Rows and vectors are dicts column-label -> scalar with no stored zeros;
a stored zero given to `Echelon.insert` or `kernel_basis` is read as
absent. Column labels can be anything totally ordered (tuples of ints
mostly).
The echelon keeps its rows fully reduced (a layer, its own rows; see
`Echelon`), so pivot rows double as a canonical rewriting system:
reducing any vector yields its unique normal form modulo the row space.
Pivots are chosen as the maximal column of a row, which makes rewriting
strictly order-decreasing and hence finite. A row that is its pivot
alone, most rows of the paper's spans, is stored as one shared read-only
empty mapping, not as a dict of its own. Besides its rows, an echelon
keeps only the inverse index of their non-pivot columns, which
back-substitution reads when a new pivot must be cleared from older rows.

`kernel_basis` eliminates only maps with a multi-term image. When every
image is one monomial or zero (the Koszul d1 and the t^dt maps), rows
meet only in a shared target column, so the elimination's RREF is read
off by grouping the domain by target, with no Echelon. Otherwise the
rows still meet only through shared image columns: the system is
block-diagonal, its RREF is the union of its blocks' RREFs, and each
connected block is eliminated in an Echelon of its own, freed before the
next, so no Echelon holds the whole domain. A block whose incidence
graph (labels, columns, and a ground vertex joined to each one-term
label) is a tree is not eliminated at all: a column that is a leaf is
held by one label, whose coefficient in any relation is then 0, and
peeling such leaves empties the tree, so its images are independent.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from types import MappingProxyType

from .fields import QQ

# the stored row of a pivot whose row is e_p alone: clearing such a pivot
# only drops its column, so `_clear` reads it as it reads any row
_PIVOT_ONLY = MappingProxyType({})


class Echelon:
    """Incrementally built reduced row echelon form.

    `Echelon(field, base)` is a layer on a read-only base Echelon: it
    spans the base's rows plus its own and never writes to the base. Its
    own rows are inserted reduced modulo the base, so none holds a base
    pivot; a base row may hold one of the layer's pivots, so `reduce`
    clears the base's pivot columns first.
    """

    def __init__(self, field=QQ, base=None):
        self.field = field
        self.base = base
        # own pivot column -> row dict, leading coeff 1, or _PIVOT_ONLY
        self.rows = {}
        # non-pivot column -> set of own pivots of the rows holding it
        self._uses = {}
        # the row dicts of every layer, the bottom base first
        self._layers = (() if base is None else base._layers) + (self.rows,)

    @classmethod
    def spanned_by(cls, vectors, field=QQ):
        ech = cls(field)
        for v in vectors:
            ech.insert(v)
        return ech

    @property
    def dim(self):
        return sum(len(rows) for rows in self._layers)

    def pivots(self):
        """Every layer's pivot columns. No code path here calls it; it
        stays because tests compare spans by it and the benchmark tracer
        wraps it by name (`bench/tracer.py` METHODS), where a missing
        method stops `bench/run.py --trace 1` with a KeyError."""
        return set().union(*self._layers)

    def non_pivots(self, cols):
        """The columns of cols that are no pivot, in their order."""
        for rows in self._layers:
            cols = [c for c in cols if c not in rows]
        return cols

    def reduce(self, vec):
        """Normal form of vec modulo the row space. Does not mutate."""
        out = dict(vec)
        self._clear(out, self._layers)
        return out

    def _clear(self, vec, layers):
        """Clear vec's pivot columns of each layer in turn, in place.

        No row of a layer holds another of its pivots or a pivot of a
        layer below, so clearing a column never brings back one already
        cleared: one pass per layer over vec's pivot columns, in
        descending order, does what repeatedly clearing the largest would.
        """
        f = self.field
        for rows in layers:
            hits = []
            for col in vec:
                if col in rows:
                    hits.append(col)
            if len(hits) > 1:
                hits.sort(reverse=True)
            for hit in hits:
                c = vec.pop(hit)
                for col, rc in rows[hit].items():
                    if col == hit:
                        continue
                    acc = vec.get(col)
                    v = f.sub(acc if acc is not None else f.zero(),
                              f.mul(c, rc))
                    if f.is_zero(v):
                        vec.pop(col, None)
                    else:
                        vec[col] = v

    def contains(self, vec):
        return not self.reduce(vec)

    def insert(self, vec):
        """Add vec to the row space. Returns the new pivot, or None.

        The pivot is the largest nonzero column: a stored zero of vec at
        its top is dropped with the row's other zeros, never divided by.
        """
        f = self.field
        row = self.reduce(vec)
        if not row:
            return None
        piv = max(row)
        if f.is_zero(row[piv]):
            row = {c: v for c, v in row.items() if not f.is_zero(v)}
            if not row:
                return None
            piv = max(row)
        if len(row) == 1:
            row = _PIVOT_ONLY
        elif row[piv] != f.one():
            inv = f.inv(row[piv])
            row = {c: f.mul(inv, v) for c, v in row.items()}
        rows, uses = self.rows, self._uses
        # keep the own rows fully reduced: clear piv from every older one
        # (each holds piv besides its pivot, so none is _PIVOT_ONLY)
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
                        s = uses.get(col)
                        if s is None:
                            uses[col] = {other_piv}
                        else:
                            s.add(other_piv)
                    other[col] = v
            if len(other) == 1:
                rows[other_piv] = _PIVOT_ONLY
        rows[piv] = row
        for col in row:
            if col == piv:
                continue
            s = uses.get(col)
            if s is None:
                uses[col] = {piv}
            else:
                s.add(piv)
        return piv

    def row(self, piv):
        """The own row at pivot piv as a dict; do not mutate it."""
        return self.rows[piv] or {piv: self.field.one()}

    def basis(self):
        """Canonical basis: fully reduced rows in descending pivot order.

        A layer's row is fully reduced once the pivots of the layers above
        it are cleared from it, which gives e_p - reduce(e_p) at pivot p.
        """
        one = self.field.one()
        out = {}
        for k, rows in enumerate(self._layers):
            above = self._layers[k + 1:]
            for p, row in rows.items():
                out[p] = row = dict(row) if row else {p: one}
                if above:
                    self._clear(row, above)
        return [out[p] for p in sorted(out, reverse=True)]

    def __eq__(self, other):
        """Equal row spaces. No program path compares two Echelons; it
        stays because the tests compare spans with it (Koszul boundaries
        against their d2 images in `tests/test_koszul.py`)."""
        if not isinstance(other, Echelon):
            return NotImplemented
        return (self.dim == other.dim
                and all(self.contains(row) for row in other.basis()))


def kernel_basis(images, field=QQ):
    """Kernel of a linear map given by its images.

    images: ordered dict domain label -> vec over orderable image columns,
    read and left unchanged; a stored zero is read as absent. Returns
    kernel vectors as dicts over domain labels in reduced echelon form,
    deterministically ordered.

    Augmented elimination: rows [image | marker] with every image column
    ordered above every marker column. A row whose pivot lands in the
    marker block has lost all image support, so its marker part is a
    relation among the images, i.e. a kernel vector. Such rows never see
    further image-side elimination (their columns are all below the image
    block), so reading them off at the end is sound.

    The system is block-diagonal: two rows meet only if their images
    share a column, directly or through other rows (`_blocks`), and a
    marker column belongs to one row. The RREF of a block-diagonal system
    is the union of the blocks' RREFs, and inserting a block's rows in
    domain order does to them exactly what the whole-domain elimination
    does, so each block is eliminated in an Echelon of its own, freed once
    its marker rows are read: the same rows, scalars and key order, in
    descending marker pivot over all blocks.

    A block whose incidence graph is a tree has no relation, so
    `_blocks` leaves it out: its images are independent and its
    elimination would leave no marker row. The graph joins each label to
    its image's columns, and each one-term label to one ground vertex G;
    it is a tree when its edges are one fewer than its vertices. Every
    label then has degree 2 or more, so a leaf is a column, and at most
    one leaf is G: a real column that is a leaf is held by one label,
    whose coefficient in any relation is 0, and peeling it and repeating
    empties the tree. A block of one zero image is its marker row e_p
    alone, with no Echelon.

    When every image has at most one term, a row meets another only in
    its one target column, so the elimination's RREF is known in closed
    form: it is read off the targets with no Echelon (`_monomial_kernel`),
    the same rows, scalars and key order.
    """
    if all(len(img) <= 1 for img in images.values()):
        return _monomial_kernel(images, field)
    one, is_zero = field.one(), field.is_zero
    blocks = _blocks(images.values(), is_zero)
    domain, images = list(images), list(images.values())
    out = []
    for block in blocks:
        if len(block) == 1:         # no tree of one label: a zero image
            out.append((block[0], {domain[block[0]]: one}))
            continue
        ech = Echelon(field)
        for pos in block:
            row = {(1, col): c for col, c in images[pos].items()
                   if not is_zero(c)}
            row[(0, pos)] = one
            ech.insert(row)
        out += [(piv[1], {domain[p]: c for (_, p), c in ech.row(piv).items()})
                for piv in ech.rows if piv[0] == 0]
    out.sort(key=itemgetter(0), reverse=True)
    return [vec for _, vec in out]


def kernel_span(images, field=QQ):
    """The kernel of a map given by its images (`kernel_basis`), as an
    Echelon: the one place a kernel becomes a span."""
    vectors = kernel_basis(images, field)
    return Echelon.spanned_by(vectors, field)


def _blocks(images, is_zero):
    """The blocks that can hold a relation, as lists of positions in
    images (the image vectors in domain order), each in ascending order:
    two positions share a block when their images share a column,
    directly or through other positions, so no two blocks' images share a
    column. A stored zero is read as absent: it joins nothing and counts
    nothing. A zero image is a block alone.

    A block whose incidence graph is a tree (`kernel_basis`) is left out.
    With k labels, c columns, n_p terms in label p's image and g = 1 if
    some image has one term (the ground vertex), the connected graph is a
    tree when its edges are one fewer than its vertices:
    sum_p (n_p + [n_p = 1]) = k + c + g - 1. A zero image has no edge but
    has a relation, so it counts as a loop, which no tree has.

    Union-find over the positions: a column joins each position holding
    it to the first that did, and a root is the least position of its
    set, so every link points down and one ascending pass leaves each
    position at its root. Each position's edges less one, less the
    columns first held there, are summed at its root, with whether it
    joins the ground. The tables are made while every image is live: the
    column table is freed before the blocks are listed, and the links and
    counts are machine-int arrays.
    """
    parent = array("q", range(len(images)))
    surplus = array("q", bytes(8 * len(images)))
    ground = bytearray(len(images))
    first = {}                  # image column -> first position holding it
    for pos, img in enumerate(images):
        n, fresh = len(img), 0
        for col, c in img.items():
            if is_zero(c):
                n -= 1
                continue
            a = first.setdefault(col, pos)
            if a == pos:
                fresh += 1
                continue
            while parent[a] != a:
                a = parent[a]
            b = pos
            while parent[b] != b:
                b = parent[b]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
        surplus[pos] = n + (n <= 1) - 1 - fresh
        ground[pos] = n == 1
    del first
    blocks = {}
    for pos, up in enumerate(parent):
        parent[pos] = root = parent[up]
        blocks.setdefault(root, []).append(pos)
        if root != pos:
            surplus[root] += surplus[pos]
            ground[root] |= ground[pos]
    # edges - vertices + 1 over a block: 0 for a tree
    return [block for root, block in blocks.items()
            if surplus[root] + 1 - ground[root]]


def _monomial_kernel(images, field):
    """The RREF `kernel_basis`'s elimination gives when no image has two
    terms.

    Rows then never mix: the first label of each target column, p1 with
    coefficient c1, takes the pivot there, normalised by inv(c1) unless
    c1 is one, and each later label p_j of that column reduces to the
    marker row e_j - c_j inv(c1) e_1; a zero image, or one stored zero,
    gives e_j. Those marker pivots are never touched again, so they are
    the kernel, in descending domain position.
    """
    f = field
    first = {}                 # target column -> (label, inv of its coeff)
    out = []
    for lab, img in images.items():
        for col, c in img.items():
            if not f.is_zero(c):
                break
        else:                   # a zero image, or one stored zero
            out.append({lab: f.one()})
            continue
        hit = first.get(col)
        if hit is None:
            first[col] = (lab, f.one() if c == f.one() else f.inv(c))
        else:
            out.append({lab: f.one(),
                        hit[0]: f.sub(f.zero(), f.mul(c, hit[1]))})
    out.reverse()
    return out
