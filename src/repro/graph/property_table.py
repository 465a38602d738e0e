"""Columnar property storage for vertices and edges.

Numeric and boolean columns are numpy arrays; string columns are interned
through a per-column dictionary with an integer code array, which keeps
row access O(1) while deduplicating the (typically highly repetitive)
string payloads of generated benchmark graphs.
"""

import numpy as np

from repro.errors import PropertyTypeError, UnknownPropertyError
from repro.graph.types import PropertyType

_NUMPY_DTYPES = {
    PropertyType.LONG: np.int64,
    PropertyType.DOUBLE: np.float64,
    PropertyType.BOOLEAN: np.bool_,
}


class PropertyColumn:
    """A single fixed-length, typed property column."""

    __slots__ = ("name", "ptype", "_values", "_codes", "_strings",
                 "_string_ids", "_values_list")

    def __init__(self, name, ptype, size):
        self.name = name
        self.ptype = ptype
        #: Lazily built plain-list mirror served by :meth:`get`;
        #: invalidated on every write.  Row reads vastly outnumber
        #: writes (filters and captures hit ``get`` once per inspected
        #: entity), and list indexing returns unboxed scalars without
        #: the per-call numpy ``.item()`` round trip.
        self._values_list = None
        if ptype is PropertyType.STRING:
            self._codes = np.zeros(size, dtype=np.int32)
            self._strings = [""]
            self._string_ids = {"": 0}
            self._values = None
        else:
            self._values = np.full(
                size, ptype.default(), dtype=_NUMPY_DTYPES[ptype]
            )
            self._codes = None
            self._strings = None
            self._string_ids = None

    def __len__(self):
        if self.ptype is PropertyType.STRING:
            return len(self._codes)
        return len(self._values)

    def get(self, index):
        """Return the property value of entity *index* as a Python scalar."""
        values = self._values_list
        if values is None:
            if self.ptype is PropertyType.STRING:
                strings = self._strings
                values = [strings[code] for code in self._codes.tolist()]
            else:
                values = self._values.tolist()
            self._values_list = values
        return values[index]

    def values(self):
        """All row values as the cached plain list (read-only).

        Shares the lazily built mirror that :meth:`get` serves row reads
        from, so statistics collection (one full-column pass) costs no
        extra materialization beyond what the first filter would pay.
        """
        if len(self) == 0:
            return []
        if self._values_list is None:
            self.get(0)  # builds and caches the list mirror
        return self._values_list

    def set(self, index, value):
        """Set the property value of entity *index* (type-checked)."""
        value = self.ptype.coerce(value)
        self._values_list = None
        if self.ptype is PropertyType.STRING:
            code = self._string_ids.get(value)
            if code is None:
                code = len(self._strings)
                self._string_ids[value] = code
                self._strings.append(value)
            self._codes[index] = code
        else:
            self._values[index] = value

    def fill(self, values):
        """Bulk-set the whole column from an iterable of *len(self)* values."""
        for index, value in enumerate(values):
            self.set(index, value)

    def reordered(self, order):
        """Return a copy of this column permuted by the index array *order*.

        ``result.get(i) == self.get(order[i])``; used when the builder
        renumbers edges into CSR order.
        """
        clone = PropertyColumn(self.name, self.ptype, len(order))
        if self.ptype is PropertyType.STRING:
            clone._codes = self._codes[order].copy()
            clone._strings = list(self._strings)
            clone._string_ids = dict(self._string_ids)
        else:
            clone._values = self._values[order].copy()
        return clone


class PropertyTable:
    """A named collection of equally sized property columns."""

    def __init__(self, kind, size):
        self._kind = kind  # "vertex" or "edge", for error messages
        self._size = size
        self._columns = {}

    def __contains__(self, name):
        return name in self._columns

    def __len__(self):
        return len(self._columns)

    @property
    def size(self):
        return self._size

    def names(self):
        return list(self._columns)

    def add_column(self, name, ptype):
        """Create (or return the existing, type-checked) column *name*."""
        column = self._columns.get(name)
        if column is not None:
            if column.ptype is not ptype:
                raise PropertyTypeError(
                    "%s property %r redeclared as %s (was %s)"
                    % (self._kind, name, ptype.value, column.ptype.value)
                )
            return column
        column = PropertyColumn(name, ptype, self._size)
        self._columns[name] = column
        return column

    def column(self, name):
        column = self._columns.get(name)
        if column is None:
            raise UnknownPropertyError(self._kind, name)
        return column

    def get(self, name, index):
        return self.column(name).get(index)

    def set(self, name, index, value):
        self.column(name).set(index, value)

    def reordered(self, order):
        """Return a copy of the whole table permuted by *order*."""
        clone = PropertyTable(self._kind, len(order))
        for name, column in self._columns.items():
            clone._columns[name] = column.reordered(order)
        return clone
