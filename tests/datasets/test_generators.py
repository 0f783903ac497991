"""Dataset generators: planted dependencies, determinism, shapes."""

from __future__ import annotations

import itertools

import pytest

from repro import CanonicalValidator, parse
from repro.datasets import (
    date_dim,
    date_dim_planted,
    dataset_names,
    dbtesma_like,
    dbtesma_planted,
    employees,
    flight_like,
    flight_planted,
    hepatitis_like,
    make_dataset,
    ncvoter_like,
    ncvoter_planted,
    web_sales,
)
from repro.errors import ReproError


class TestEmployees:
    def test_table1_shape(self):
        rel = employees()
        assert rel.n_rows == 6
        assert rel.arity == 9
        assert rel.names[0] == "ID"

    def test_exact_values(self):
        rel = employees()
        assert rel.row(0) == (10, 16, "secr", 1, 5000, 20, 1000, "A", "III")


@pytest.mark.parametrize("generator,planted,kwargs", [
    (flight_like, flight_planted, {"n_rows": 300, "n_attrs": 10}),
    (ncvoter_like, ncvoter_planted, {"n_rows": 300, "n_attrs": 10}),
    (dbtesma_like, dbtesma_planted, {"n_rows": 300, "n_attrs": 10}),
])
class TestSyntheticFamilies:
    def test_planted_dependencies_hold(self, generator, planted, kwargs):
        rel = generator(**kwargs)
        validator = CanonicalValidator(rel.encode())
        for text in planted(kwargs["n_attrs"]):
            assert validator.holds(parse(text)), text

    def test_deterministic(self, generator, planted, kwargs):
        assert generator(**kwargs) == generator(**kwargs)

    def test_seed_changes_data(self, generator, planted, kwargs):
        first = generator(seed=1, **kwargs)
        second = generator(seed=2, **kwargs)
        assert first != second

    def test_requested_shape(self, generator, planted, kwargs):
        rel = generator(**kwargs)
        assert rel.n_rows == kwargs["n_rows"]
        assert rel.arity == kwargs["n_attrs"]


class TestWidthExtension:
    @pytest.mark.parametrize("generator", [
        flight_like, ncvoter_like, dbtesma_like, hepatitis_like])
    def test_wide_schemas(self, generator):
        rel = generator(n_rows=50, n_attrs=25)
        assert rel.arity == 25
        assert len(set(rel.names)) == 25

    @pytest.mark.parametrize("generator", [flight_like, dbtesma_like])
    def test_narrow_schemas(self, generator):
        rel = generator(n_rows=50, n_attrs=3)
        assert rel.arity == 3


@pytest.mark.parametrize("family", dataset_names())
def test_every_width_up_to_16_generates(family):
    # each extra "drv" column derives from a randomly drawn source
    # column, string-valued sources included
    for n_attrs in range(1, 17):
        for n_rows, seed in itertools.product((1, 40), (1, 2, 42)):
            rel = make_dataset(family, n_rows=n_rows, n_attrs=n_attrs,
                               seed=seed)
            assert len(set(rel.names)) == rel.arity


def test_ncvoter_drv_over_string_source():
    rel = make_dataset("ncvoter", n_rows=10_000, n_attrs=16, seed=42)
    assert rel.arity == 16
    drv = [name for name in rel.names if name.startswith("drv")]
    assert drv
    # a derived column is a function of some base column
    validator = CanonicalValidator(rel.encode())
    for name in drv:
        assert any(validator.holds(parse(f"{{{base}}}: [] -> {name}"))
                   for base in rel.names if base != name), name


class TestHepatitis:
    def test_mostly_small_domains(self):
        rel = hepatitis_like(155, 20)
        domains = [len(set(rel.column(name))) for name in rel.names]
        assert sum(1 for d in domains if d <= 3) >= 15

    def test_fd_rich_when_narrow_rows(self):
        from repro.baselines import discover_fds

        rel = hepatitis_like(40, 8)
        result = discover_fds(rel)
        assert result.n_fds > 0


class TestTpcds:
    def test_date_dim_planted(self):
        validator = CanonicalValidator(date_dim(500).encode())
        for text in date_dim_planted():
            assert validator.holds(parse(text)), text

    def test_date_dim_covers_years(self):
        rel = date_dim(731)
        assert set(rel.column("d_year")) == {2010, 2011, 2012}

    def test_web_sales_keys_reference_dim(self):
        dim = date_dim(100)
        fact = web_sales(200, 100)
        dim_keys = set(dim.column("d_date_sk"))
        assert set(fact.column("ws_sold_date_sk")) <= dim_keys


class TestRegistry:
    def test_names(self):
        assert "flight" in dataset_names()
        assert "employees" in dataset_names()

    def test_make_dataset(self):
        rel = make_dataset("flight", n_rows=100, n_attrs=6, seed=1)
        assert rel.n_rows == 100 and rel.arity == 6

    def test_fixed_shape_families(self):
        assert make_dataset("employees").n_rows == 6

    def test_unknown_name(self):
        with pytest.raises(ReproError):
            make_dataset("nope")
