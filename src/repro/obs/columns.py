"""Typed columns: what the event, probe and transaction logs keep their
values in.

A column is an ``array('d')`` while every value it has received is a
``float`` (``type(v) is float``, and not a NaN), a signed integer array
while every one is an ``int`` that fits in 64 bits, and a list from the
first value that is neither (a ``bool``, ``None``, a ``str``, a big or NaN
value, or an ``int`` in a float column): the list then holds the values
already received, each read back as itself. A float in an array costs 8
bytes; the same number boxed in a list slot costs the slot and its object
(32 bytes for a ``float``).

An integer array is as narrow as its values: its first batch picks the
narrowest of ``b``, ``h``, ``i`` and ``q`` (1, 2, 4 and 8 bytes) that
holds every value in it, and a later batch that does not fit copies the
column into the narrowest code that does. A column only ever widens, so
its typecode is always the narrowest that holds every value it has
received. Message ids, site ids, item ids and sizes mostly fit in one or
two bytes: on the ledger's ``traced_g2pl`` 190,064 of 280,314 event
integers fit in ``b`` and the other 90,250 in ``h``. Float columns stay
``d``: a narrower float would not read every value back exactly.

NaN stays out of the arrays because a NaN read back out of one is a new
object, and a NaN compares equal only to itself: a log read back from
an array would no longer ``==`` the values it was given.

Values arrive in batches (:data:`STAGE` staged rows at a time, see
:meth:`repro.obs.tracer.EventLog.settle`): the type test and the copy
into the array run in C over a whole batch, which is what makes a typed
column cheaper to fill than the tuple per row it replaces.
"""

from array import array
from struct import error as StructError, pack

#: rows a log stages as tuples before it settles them into its columns
STAGE = 4096

#: signed integer typecodes, narrowest first, each with the bound its
#: values keep under (``-bound <= value < bound``)
INT_CODES = tuple((code, 1 << (8 * array(code).itemsize - 1))
                  for code in "bhiq")


def narrowest(values):
    """The narrowest of :data:`INT_CODES` that holds every one of the
    ints ``values``, or ``None`` when one is beyond 64 bits."""
    low, high = min(values), max(values)
    for code, bound in INT_CODES:
        if -bound <= low and high < bound:
            return code
    return None


def extend(column, values):
    """``column`` with the tuple ``values`` appended: the same column, the
    wider array it is copied into when an int does not fit its typecode,
    or the list it becomes when a value does not fit an array. A new
    column is an empty list; its first batch makes it an array if it fits
    one."""
    if not values:
        return column
    if type(column) is list:
        if column:
            column.extend(values)
            return column
        first = type(values[0])
        if first is float:
            column = array("d")
        elif first is int:
            column = array("b")
        else:
            column.extend(values)
            return column
    typecode = column.typecode
    if typecode == "d":
        fits = list(map(type, values)).count(float) == len(values)
        if fits:
            # a NaN (or inf - inf) in the sum: look for the NaN itself
            total = sum(values)
            fits = total == total or not any(
                value != value for value in values)
    else:
        fits = list(map(type, values)).count(int) == len(values)
    if fits:
        try:
            column.frombytes(pack(f"{len(values)}{typecode}", *values))
            return column
        except StructError:   # an int too wide for the column's typecode
            code = narrowest(values)
            if code is not None:
                column = array(code, column)
                column.frombytes(pack(f"{len(values)}{code}", *values))
                return column
    column = column.tolist()
    column.extend(values)
    return column


def put(column, index, value):
    """``column`` with ``column[index] = value``: the same column, or the
    wider array or the list it becomes when ``value`` does not fit it
    (the rule :func:`extend` keeps)."""
    if type(column) is not list:
        wanted = float if column.typecode == "d" else int
        if type(value) is wanted and value == value:
            try:
                column[index] = value
                return column
            except OverflowError:   # an int too wide for the typecode
                pass
        fitted = extend(array(column.typecode), (value,))
        if type(fitted) is list:
            column = column.tolist()
        elif fitted.typecode != column.typecode:
            column = array(fitted.typecode, column)
    column[index] = value
    return column
