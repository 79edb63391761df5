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
"""

import functools
import io
import math

import numpy as np

# Spaces per nesting level of a JSON report.
INDENT = 2


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
    return _json_list(inner, shape[0], level)


@functools.lru_cache(maxsize=256)
def _matrix_json_template(rows, cols, level):
    return _json_list(_json_list("%.17g", cols, level + 1), rows, level)


def _json_list(item, count, level):
    pad = " " * (INDENT * (level + 1))
    return "[\n" + pad + (",\n" + pad).join([item] * count) + "\n" + pad[INDENT:] + "]"


@functools.lru_cache(maxsize=256)
def _csv_template(rows, cols):
    """``%``-template of one matrix's CSV rows; each row takes the ``t,name,`` prefix and a value."""
    return "\n".join(f"%s{i},{j},%.17g" for i in range(rows) for j in range(cols))


def dumps_json(obj):
    """Serialize nested dict/list/scalar data with 17-significant-digit floats."""
    out = io.StringIO()
    _write_json(out, obj, 0)
    out.write("\n")
    return out.getvalue()


def _write_json(out, obj, level):
    if isinstance(obj, np.ndarray):
        values = _finite_values(obj)
        if values is None:
            _write_json(out, obj.tolist(), level)
        else:
            out.write(_json_template(obj.shape, level) % tuple(values))
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
    """CSV text of ``(t, name, matrix)`` entries, one row per matrix entry."""
    rows = [row for t, name, value in entries for row in matrix_rows(t, name, value)]
    return "\n".join(["t,name,i,j,value", *rows]) + "\n"
