"""Optional Arrow interop for ingest.

``pyarrow`` is optional and absent from the minimal install, so Arrow
support is gated behind :func:`arrow_available`; when present,
:func:`columns_from_arrow` turns a table's columns into the raw value
sequences the encoder consumes without an intermediate pandas hop.
"""

from __future__ import annotations


def arrow_available() -> bool:
    """True when ``pyarrow`` imports (it is an optional dependency)."""
    try:
        import pyarrow  # noqa: F401
    except ImportError:
        return False
    return True


def columns_from_arrow(table):
    """``(names, columns)`` of a ``pyarrow.Table`` for the encoder.

    Nulls become ``None`` (the encoder's missing marker).  Raises
    :class:`RuntimeError` when pyarrow is not installed, so callers can
    gate on :func:`arrow_available` instead of try/except ImportError.
    """
    if not arrow_available():
        raise RuntimeError(
            "pyarrow is not installed; Arrow-backed ingest is "
            "unavailable (install pyarrow or pass plain columns)")
    names = list(table.column_names)
    columns = [table.column(name).to_pylist() for name in names]
    return names, columns
