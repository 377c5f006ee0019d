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
    """Incrementally built reduced row echelon form.

    A copy shares its source's row dicts and use sets copy-on-write.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.rows = {}        # pivot column -> row dict, leading coeff 1
        self._uses = {}       # column -> set of pivot columns of rows using it
        # rows and _uses as they stood at the last copy() this Echelon took
        # part in: an entry still identical to its value there is shared
        self._shared_rows = {}
        self._shared_uses = {}

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return set(self.rows)

    def copy(self):
        """An Echelon with the same rows, in the same order.

        The copy shares every row dict and use set with this Echelon, and
        both sides mark them shared, so the first write on either side
        copies what it writes to. Every insert adds a row, so an Echelon
        with as many rows as its marks has not changed since, and its
        marks still hold for another copy.
        """
        if len(self._shared_rows) != len(self.rows):
            self._shared_rows = dict(self.rows)
            self._shared_uses = dict(self._uses)
        new = Echelon(self.field)
        new.rows = dict(self.rows)
        new._uses = dict(self._uses)
        new._shared_rows = self._shared_rows
        new._shared_uses = self._shared_uses
        return new

    def reduce(self, vec):
        """Normal form of vec modulo the row space. Does not mutate.

        No row holds a pivot but its own, so clearing a pivot column
        never brings another back: one pass over vec's pivot columns, in
        descending order, does what repeatedly clearing the largest would.
        """
        f = self.field
        rows = self.rows
        out = dict(vec)
        hits = []
        for col in out:
            if col in rows:
                hits.append(col)
        if len(hits) > 1:
            hits.sort(reverse=True)
        for hit in hits:
            c = out.pop(hit)
            for col, rc in rows[hit].items():
                if col == hit:
                    continue
                acc = out.get(col)
                v = f.sub(acc if acc is not None else f.zero(), f.mul(c, rc))
                if f.is_zero(v):
                    out.pop(col, None)
                else:
                    out[col] = v
        return out

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
        shared_rows, shared_uses = self._shared_rows, self._shared_uses
        # keep the form fully reduced: clear piv from every older row; a
        # shared row or use set is replaced, never written to
        for other_piv in uses.pop(piv, ()):
            other = rows[other_piv]
            if other is shared_rows.get(other_piv):
                other = rows[other_piv] = dict(other)
            c = other.pop(piv)
            for col, rc in row.items():
                if col == piv:
                    continue
                acc = other.get(col)
                v = f.sub(acc if acc is not None else f.zero(), f.mul(c, rc))
                if f.is_zero(v):
                    if acc is not None:
                        del other[col]
                        s = uses[col]
                        if s is shared_uses.get(col):
                            uses[col] = s - {other_piv}
                        else:
                            s.discard(other_piv)
                else:
                    if acc is None:
                        s = uses.get(col)
                        if s is None:
                            uses[col] = {other_piv}
                        elif s is shared_uses.get(col):
                            uses[col] = s | {other_piv}
                        else:
                            s.add(other_piv)
                    other[col] = v
        rows[piv] = row
        for col in row:
            s = uses.get(col)
            if s is None:
                uses[col] = {piv}
            elif s is shared_uses.get(col):
                uses[col] = s | {piv}
            else:
                s.add(piv)
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
