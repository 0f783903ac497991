"""Optional Arrow interop: gated on pyarrow being importable."""

from __future__ import annotations

import pytest

from repro.kernels.ingest import arrow_available, columns_from_arrow


def test_arrow_gate():
    if arrow_available():  # pragma: no cover - pyarrow not in CI image
        import pyarrow as pa

        table = pa.table({"a": [1, 2, None], "b": ["x", "y", "z"]})
        names, columns = columns_from_arrow(table)
        assert names == ["a", "b"]
        assert columns[0] == [1, 2, None]
    else:
        with pytest.raises(RuntimeError, match="pyarrow is not installed"):
            columns_from_arrow(object())
