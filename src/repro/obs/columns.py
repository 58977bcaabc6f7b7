"""Typed columns: what the event and probe logs keep their values in.

A column is an ``array('d')`` while every value it has received is a
``float`` (``type(v) is float``, and not a NaN), an ``array('q')`` while
every one is an ``int`` that fits in 64 bits, and a list from the first
value that is neither (a ``bool``, ``None``, a ``str``, a big or NaN
value, or an ``int`` in a float column): the list then holds the values
already received, each read back as itself. A number in an array costs
8 bytes; the same number boxed in a list slot costs the slot and its
object (32 bytes for a ``float``).

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


def extend(column, values):
    """``column`` with the tuple ``values`` appended: the same column, or
    the list it becomes when a value does not fit its array. A new column
    is an empty list; its first batch makes it an array if it fits one."""
    if type(column) is list:
        if column or not values:
            column.extend(values)
            return column
        first = type(values[0])
        if first is not float and first is not int:
            column.extend(values)
            return column
        column = array("d" if first is float else "q")
    typecode = column.typecode
    if typecode == "q":
        fits = list(map(type, values)).count(int) == len(values)
    else:
        fits = list(map(type, values)).count(float) == len(values)
        if fits:
            # a NaN (or inf - inf) in the sum: look for the NaN itself
            total = sum(values)
            fits = total == total or not any(
                value != value for value in values)
    if fits:
        try:
            column.frombytes(pack(f"{len(values)}{typecode}", *values))
            return column
        except StructError:   # an int beyond 64 bits
            pass
    column = column.tolist()
    column.extend(values)
    return column
