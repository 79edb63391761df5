"""Deterministic report rendering: JSON and flattened CSV.

Floating-point values are printed with 17 significant digits so that
reports round-trip exactly and identical runs produce identical bytes.
A non-finite float prints as ``null`` in both formats, and ``-0.0`` as
``-0``.

A float array whose entries are all finite is rendered in bulk: its
flattened values fill a ``%``-template of the array's exact layout, one
``%.17g`` per entry, in a single string operation.  The template is built
from the shape and nesting level, each n-dimensional layer joining copies
of the one below.  Every other value (a non-finite entry, a sum of
entries that overflows, an empty or 0-d array, an integer, bool or object
array, and every Python scalar) takes the per-value route, which writes
the same bytes one number at a time.

A :class:`Columns` holds many points as one array per quantity.  One
point's layout becomes a template, ``FILL_POINTS`` copies of which are
filled in one operation; in CSV each point's copy has its time text
substituted once.  In a block of points holding a non-finite float, every
float is formatted on its own, as the per-value route does.
"""

import functools
import io
import math

import numpy as np

# Spaces per nesting level of a JSON report.
INDENT = 2
# Points of a Columns filled by one template: bounds the template and the
# value tuple of a long grid.
FILL_POINTS = 256
# Placeholder of a per-point number by dtype kind; a bool's value is "true" or "false".
_SCALAR_FORMATS = {"f": "%.17g", "i": "%d", "b": "%s"}


class Columns(dict):
    """N points keyed as one point's object is, each leaf an array over the points.

    A value is such an array or a list or dict of them; no key holds a
    ``%``.  In JSON it is the list of the points' objects; as a CSV entry its
    ``"t"`` holds the points' times and every other key an entry of each.
    """


class _Slot:
    """Placeholder of a :class:`Columns` leaf in the template of one point."""

    def __init__(self, column):
        self.shape, self.kind = column.shape[1:], column.dtype.kind


def _map_leaves(fn, tree):
    if isinstance(tree, dict):
        return {key: _map_leaves(fn, value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_map_leaves(fn, value) for value in tree]
    return fn(tree)


def _fmt(x):
    x = float(x)
    if not math.isfinite(x):
        # strict JSON has no Infinity/NaN literals
        return "null"
    return format(x, ".17g")


def _finite_values(a):
    """The entries of float array ``a`` as a flat list if all are finite, else None."""
    if a.dtype.kind != "f" or a.ndim == 0 or a.size == 0:
        return None
    values = a.ravel().tolist()
    # The sum is finite only if every entry is (and it does not overflow).
    return values if math.isfinite(sum(values)) else None


def _json_template(shape, level):
    """``%``-template of a non-empty array of ``shape`` written at nesting ``level``."""
    if len(shape) == 2:
        return _matrix_json_template(shape[0], shape[1], level)
    inner = "%.17g" if len(shape) == 1 else _json_template(shape[1:], level + 1)
    return _json_list([inner] * shape[0], level)


@functools.lru_cache(maxsize=256)
def _matrix_json_template(rows, cols, level):
    return _json_list([_json_list(["%.17g"] * cols, level + 1)] * rows, level)


def _json_list(items, level):
    pad = " " * (INDENT * (level + 1))
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[INDENT:] + "]"


@functools.lru_cache(maxsize=256)
def _csv_template(rows, cols):
    """``%``-template of one matrix's CSV rows; each row takes the ``t,name,`` prefix and a value."""
    return "\n".join(f"%s{i},{j},%.17g" for i in range(rows) for j in range(cols))


def dumps_json(obj):
    """Serialize nested dict/list/scalar data with 17-significant-digit floats."""
    return _json_text(obj, 0) + "\n"


def _json_text(obj, level):
    out = io.StringIO()
    _write_json(out, obj, level)
    return out.getvalue()


def _write_json(out, obj, level):
    if isinstance(obj, np.ndarray):
        values = _finite_values(obj)
        if values is None:
            _write_json(out, obj.tolist(), level)
        else:
            out.write(_json_template(obj.shape, level) % tuple(values))
    elif isinstance(obj, Columns):
        _write_columns(out, obj, level)
    elif isinstance(obj, _Slot):
        out.write(_json_template(obj.shape, level) if obj.shape else _SCALAR_FORMATS[obj.kind])
    elif isinstance(obj, (dict, list, tuple)):
        pad = " " * (INDENT * (level + 1))
        is_dict = isinstance(obj, dict)
        items = list(obj.items() if is_dict else enumerate(obj))
        brackets = "{}" if is_dict else "[]"
        if not items:
            out.write(brackets)
            return
        out.write(brackets[0] + "\n")
        for i, (key, value) in enumerate(items):
            if i:
                out.write(",\n")
            out.write(f'{pad}"{key}": ' if is_dict else pad)
            _write_json(out, value, level + 1)
        out.write("\n" + pad[INDENT:] + brackets[1])
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_fmt(obj))
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fill(templates, table, floats, separator):
    """Texts of the points whose values are the rows of ``table``, ``FILL_POINTS`` per fill.

    ``templates(block)`` lists the templates of a slice of points.  In a
    block with a non-finite entry in its rows of ``floats``, each float is
    formatted on its own, so that it prints as ``null``.
    """
    finite = np.isfinite(floats).all(axis=1)
    parts = []
    for start in range(0, len(table), FILL_POINTS):
        block = slice(start, start + FILL_POINTS)
        text, values = separator.join(templates(block)), table[block].ravel().tolist()
        if not finite[block].all():
            text = text.replace("%.17g", "%s")
            values = [_fmt(v) if isinstance(v, float) else v for v in values]
        parts.append(text % tuple(values))
    return parts


def _write_columns(out, columns, level):
    """A :class:`Columns` as the JSON list of its points."""
    template = _json_text(_map_leaves(_Slot, columns), level + 1)
    leaves = []
    _map_leaves(leaves.append, columns)
    count = len(leaves[0])
    cells = [np.where(a, "true", "false") if a.dtype.kind == "b" else a for a in leaves]
    table = np.concatenate([c.reshape(count, -1).astype(object) for c in cells], axis=1)
    floats = np.concatenate([a.reshape(count, -1) for a in leaves if a.dtype.kind == "f"], axis=1)
    separator = ",\n" + " " * (INDENT * (level + 1))
    parts = _fill(lambda block: [template] * len(table[block]), table, floats, separator)
    out.write(_json_list(parts, level))


def _csv_columns(columns):
    """CSV rows of a :class:`Columns`: the rows of each point's entries in turn."""
    times = columns["t"]
    entries = [(name, np.asarray(a, dtype=float)) for name, a in columns.items() if name != "t"]
    # One point's rows without the time text that starts each of them.
    suffixes = [f",{name},{i},{j},%.17g"
                for name, a in entries for i, j in np.ndindex(np.atleast_2d(a[0]).shape)]
    table = np.concatenate([a.reshape(len(times), -1) for _, a in entries], axis=1)
    texts = [_fmt(t) for t in times.tolist()]
    return _fill(lambda block: [t + ("\n" + t).join(suffixes) for t in texts[block]],
                 table, table, "\n")


def matrix_rows(t, name, matrix):
    """CSV rows ``t, name, i, j, value`` for one matrix (row-major) or scalar."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    t_text = "" if t is None else _fmt(t)
    values = _finite_values(matrix) if matrix.ndim == 2 else None
    if values is not None:
        args = [f"{t_text},{name},", None] * len(values)
        args[1::2] = values
        return (_csv_template(*matrix.shape) % tuple(args)).split("\n")
    rows = []
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            rows.append(f"{t_text},{name},{i},{j},{_fmt(matrix[i, j])}")
    return rows


def dumps_csv(entries):
    """CSV text of ``(t, name, matrix)`` entries, one row per matrix entry.

    An entry may also be a :class:`Columns`, which writes each of its
    points' entries in turn.
    """
    rows = ["t,name,i,j,value"]
    for entry in entries:
        rows += _csv_columns(entry) if isinstance(entry, Columns) else matrix_rows(*entry)
    return "\n".join(rows) + "\n"
