"""Sparse exact linear algebra over a pluggable field.

Rows and vectors are dicts column-label -> scalar with no stored zeros.
Column labels can be anything totally ordered (tuples of ints mostly).
The echelon keeps itself fully reduced, so pivot rows double as a
canonical rewriting system: reducing any vector yields its unique normal
form modulo the row space. Pivots are chosen as the maximal column of a
row, which makes rewriting strictly order-decreasing and hence finite.
"""

from __future__ import annotations

from .fields import QQ


class Echelon:
    """Incrementally built reduced row echelon form."""

    def __init__(self, field=QQ):
        self.field = field
        self.rows = {}        # pivot column -> row dict, leading coeff 1
        self._uses = {}       # column -> set of pivot columns of rows using it

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return set(self.rows)

    def copy(self):
        """An independent Echelon with the same rows, in the same order."""
        new = Echelon(self.field)
        new.rows = {piv: dict(row) for piv, row in self.rows.items()}
        new._uses = {col: set(pivs) for col, pivs in self._uses.items()}
        return new

    def reduce(self, vec):
        """Normal form of vec modulo the row space. Does not mutate."""
        f = self.field
        out = dict(vec)
        while True:
            hit = None
            for col in out:
                if col in self.rows and (hit is None or col > hit):
                    hit = col
            if hit is None:
                return out
            c = out.pop(hit)
            for col, rc in self.rows[hit].items():
                if col == hit:
                    continue
                acc = out.get(col)
                v = f.sub(acc if acc is not None else f.zero(), f.mul(c, rc))
                if f.is_zero(v):
                    out.pop(col, None)
                else:
                    out[col] = v

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
        # keep the form fully reduced: clear piv from every older row
        for other_piv in list(self._uses.get(piv, ())):
            other = self.rows[other_piv]
            c = other.pop(piv)
            self._uses[piv].discard(other_piv)
            for col, rc in row.items():
                if col == piv:
                    continue
                acc = other.get(col)
                v = f.sub(acc if acc is not None else f.zero(), f.mul(c, rc))
                if f.is_zero(v):
                    if col in other:
                        del other[col]
                        self._uses[col].discard(other_piv)
                else:
                    if col not in other:
                        self._uses.setdefault(col, set()).add(other_piv)
                    other[col] = v
        self.rows[piv] = row
        for col in row:
            self._uses.setdefault(col, set()).add(piv)
        return piv

    def basis(self):
        """Canonical basis: pivot rows in descending pivot order."""
        return [dict(self.rows[p]) for p in sorted(self.rows, reverse=True)]


class Subspace:
    """A subspace presented by a fully reduced echelon basis."""

    def __init__(self, field=QQ):
        self.ech = Echelon(field)
        self.field = field

    @classmethod
    def spanned_by(cls, vectors, field=QQ):
        s = cls(field)
        for v in vectors:
            s.ech.insert(v)
        return s

    @property
    def dim(self):
        return self.ech.dim

    def contains(self, vec):
        return self.ech.contains(vec)

    def reduce(self, vec):
        return self.ech.reduce(vec)

    def add(self, vec):
        return self.ech.insert(vec)

    def basis(self):
        return self.ech.basis()

    def contains_subspace(self, other):
        return all(self.contains(row) for row in other.basis())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
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
    """
    ech = Echelon(field)
    for pos, lab in enumerate(domain):
        row = {(1, col): c for col, c in image_fn(lab).items()}
        row[(0, pos)] = field.one()
        ech.insert(row)
    out = []
    for piv in sorted(ech.rows, reverse=True):
        if piv[0] == 0:
            out.append({domain[p]: c for (_, p), c in ech.rows[piv].items()})
    return out


def rank_of(vectors, field=QQ):
    ech = Echelon(field)
    for v in vectors:
        ech.insert(v)
    return ech.dim
