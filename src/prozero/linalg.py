"""Sparse exact linear algebra over a pluggable field.

Rows and vectors are dicts column-label -> scalar with no stored zeros.
Column labels can be anything totally ordered (tuples of ints mostly).
The echelon keeps its rows fully reduced (a layer, its own rows; see
`Echelon`), so pivot rows double as a canonical rewriting system:
reducing any vector yields its unique normal form modulo the row space.
Pivots are chosen as the maximal column of a row, which makes rewriting
strictly order-decreasing and hence finite. Besides its rows, an
echelon keeps only the inverse index of their non-pivot columns, which
back-substitution reads when a new pivot must be cleared from older rows.

`kernel_basis` eliminates only maps with a multi-term image. When every
image is one monomial or zero (the Koszul d1 and the t^dt maps), rows
meet only in a shared target column, so the elimination's RREF is read
off by grouping the domain by target, with no Echelon.
"""

from __future__ import annotations

from .fields import QQ


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
        self.rows = {}        # own pivot column -> row dict, leading coeff 1
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
        """Add vec to the row space. Returns the new pivot, or None."""
        f = self.field
        row = self.reduce(vec)
        if not row:
            return None
        piv = max(row)
        if row[piv] != f.one():
            inv = f.inv(row[piv])
            row = {c: f.mul(inv, v) for c, v in row.items()}
        rows, uses = self.rows, self._uses
        # keep the own rows fully reduced: clear piv from every older one
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

    def basis(self):
        """Canonical basis: fully reduced rows in descending pivot order.

        A layer's row is fully reduced once the pivots of the layers above
        it are cleared from it, which gives e_p - reduce(e_p) at pivot p.
        """
        out = {}
        for k, rows in enumerate(self._layers):
            above = self._layers[k + 1:]
            for p, row in rows.items():
                out[p] = row = dict(row)
                if above:
                    self._clear(row, above)
        return [out[p] for p in sorted(out, reverse=True)]

    def contains_subspace(self, other):
        return all(self.contains(row) for row in other.basis())

    def __eq__(self, other):
        """Equal row spaces."""
        if not isinstance(other, Echelon):
            return NotImplemented
        return self.dim == other.dim and self.contains_subspace(other)


def kernel_basis(domain, image_fn, field=QQ):
    """Kernel of a linear map given by images of domain labels.

    domain: ordered list of labels. image_fn(label) -> vec over orderable
    image columns. Returns kernel vectors as dicts over domain labels in
    reduced echelon form, deterministically ordered.

    Augmented elimination: rows [image | marker] with every image column
    ordered above every marker column. A row whose pivot lands in the
    marker block has lost all image support, so its marker part is a
    relation among the images, i.e. a kernel vector. Such rows never see
    further image-side elimination (their columns are all below the image
    block), so reading them off at the end is sound.

    When every image has at most one term, a row meets another only in
    its one target column, so the elimination's RREF is known in closed
    form: it is read off the targets with no Echelon (`_monomial_kernel`),
    the same rows, scalars and key order.
    """
    images = [image_fn(lab) for lab in domain]
    if all(len(img) <= 1 for img in images):
        return _monomial_kernel(domain, images, field)
    ech = Echelon(field)
    for pos, img in enumerate(images):
        row = {(1, col): c for col, c in img.items()}
        row[(0, pos)] = field.one()
        ech.insert(row)
    out = []
    for piv in sorted(ech.rows, reverse=True):
        if piv[0] == 0:
            out.append({domain[p]: c for (_, p), c in ech.rows[piv].items()})
    return out


def _monomial_kernel(domain, images, field):
    """The RREF `kernel_basis`'s elimination gives when no image has two
    terms.

    Rows then never mix: the first label of each target column, p1 with
    coefficient c1, takes the pivot there, normalised by inv(c1) unless
    c1 is one, and each later label p_j of that column reduces to the
    marker row e_j - c_j inv(c1) e_1; a zero image gives e_j. Those
    marker pivots are never touched again, so they are the kernel, in
    descending domain position.
    """
    f = field
    first = {}                 # target column -> (label, inv of its coeff)
    out = []
    for lab, img in zip(domain, images):
        if not img:
            out.append({lab: f.one()})
            continue
        (col, c), = img.items()
        hit = first.get(col)
        if hit is None:
            first[col] = (lab, f.one() if c == f.one() else f.inv(c))
        else:
            out.append({lab: f.one(),
                        hit[0]: f.sub(f.zero(), f.mul(c, hit[1]))})
    out.reverse()
    return out
