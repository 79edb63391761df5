"""Deterministic report rendering: JSON and flattened CSV.

Floating-point values are printed with 17 significant digits so that
reports round-trip exactly and identical runs produce identical bytes.
"""

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


def dumps_json(obj):
    """Serialize nested dict/list/scalar data with 17-significant-digit floats."""
    out = io.StringIO()
    _write_json(out, obj, 0)
    out.write("\n")
    return out.getvalue()


def _write_json(out, obj, level):
    pad = " " * (INDENT * (level + 1))
    closing = " " * (INDENT * level)
    if isinstance(obj, (dict, list, tuple)):
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
        out.write("\n" + closing + brackets[1])
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
    elif isinstance(obj, np.ndarray):
        _write_json(out, obj.tolist(), level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def matrix_rows(t, name, matrix):
    """CSV rows ``t, name, i, j, value`` for one matrix (row-major) or scalar."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    t_text = "" if t is None else _fmt(t)
    rows = []
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            rows.append(f"{t_text},{name},{i},{j},{_fmt(matrix[i, j])}")
    return rows


def dumps_csv(entries):
    """CSV text of ``(t, name, matrix)`` entries, one row per matrix entry."""
    rows = [row for t, name, value in entries for row in matrix_rows(t, name, value)]
    return "\n".join(["t,name,i,j,value", *rows]) + "\n"
