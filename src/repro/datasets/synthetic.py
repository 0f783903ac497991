"""Synthetic stand-ins for the paper's evaluation datasets.

The originals (flight and dbtesma from the HPI repository, ncvoter and
hepatitis from UCI) are not available offline, so each generator plants
the *structural* features the paper attributes to its dataset — the
features that drive FASTOD's behaviour:

* ``flight_like``    — a constant ``year`` (the paper's ORDER-misses-it
  example), a strictly increasing surrogate key, date hierarchies
  (month → quarter as both FD and OCD), route-determined distances and
  monotone derived measures.  FD+OCD rich, so pruning bites early.
* ``ncvoter_like``   — wide categorical/person data with many swaps and
  an inversely ordered pair (age vs. birth year — order compatible only
  bidirectionally).  Few ODs; candidate pairs survive, lattice stays
  broad.
* ``hepatitis_like`` — tiny but wide, mostly binary attributes; with
  few tuples, hundreds of FDs appear at deeper levels.
* ``dbtesma_like``   — FD-heavy synthetic data: many columns hash-derived
  from a few roots (FDs without order compatibility), plus a couple of
  monotone derivations (OCDs).

Every generator is deterministic in its ``seed`` and extends to any
requested attribute count by cycling extra-column kinds.  The
``*_planted`` helpers return dependencies guaranteed by construction,
which the test suite validates.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.relation.table import Relation

Generator = Callable[..., Relation]


def _extend(columns: Dict[str, np.ndarray], n_attrs: int, n_rows: int,
            rng: np.random.Generator, key: np.ndarray) -> Dict[str, list]:
    """Add generic extra columns until ``n_attrs`` is reached.

    Kinds cycle: random categorical, monotone-in-key, hash-derived FD
    from an existing column, noisy numeric.
    """
    names = list(columns)
    kind = 0
    while len(columns) < n_attrs:
        index = len(columns)
        if kind == 0:
            domain = int(rng.integers(2, 12))
            columns[f"cat{index}"] = rng.integers(0, domain, n_rows)
        elif kind == 1:
            step = int(rng.integers(2, 9))
            columns[f"mono{index}"] = key // step
        elif kind == 2:
            source = np.asarray(
                columns[names[int(rng.integers(0, len(names)))]])
            prime = int(rng.choice([7, 11, 13, 17, 19]))
            if source.dtype.kind not in "biuf":
                # a string source (ncvoter's county_name): derive from
                # its dense codes, so the column is still an FD of it
                source = np.unique(source, return_inverse=True)[1]
            columns[f"drv{index}"] = (source * prime + 3) % 23
        else:
            columns[f"num{index}"] = rng.integers(0, n_rows, n_rows)
        kind = (kind + 1) % 4
    return {name: list(np.asarray(col)) for name, col in columns.items()}


def _finish(columns: Dict[str, np.ndarray], n_attrs: int, n_rows: int,
            rng: np.random.Generator, key: np.ndarray) -> Relation:
    as_lists = _extend(columns, n_attrs, n_rows, rng, key)
    names = list(as_lists)[:n_attrs]
    return Relation.from_columns({name: as_lists[name] for name in names})


# ----------------------------------------------------------------------
# flight
# ----------------------------------------------------------------------
def flight_like(n_rows: int = 1000, n_attrs: int = 10,
                seed: int = 42) -> Relation:
    """US-domestic-flights-shaped data (HPI ``flight``)."""
    rng = np.random.default_rng(seed)
    sk = np.arange(n_rows)
    day_of_year = sk * 365 // max(n_rows, 1)
    month = day_of_year * 12 // 365 + 1
    quarter = (month - 1) // 3 + 1
    origin = rng.integers(0, 20, n_rows)
    dest = rng.integers(0, 20, n_rows)
    route_distance = (origin * 131 + dest * 17) % 2000 + 100
    airtime = route_distance // 8 + 15
    dep_time = rng.integers(0, 2400, n_rows)
    columns: Dict[str, np.ndarray] = {
        "year": np.full(n_rows, 2012),
        "flight_sk": sk,
        "month": month,
        "quarter": quarter,
        "carrier": rng.integers(0, 8, n_rows),
        "origin": origin,
        "dest": dest,
        "distance": route_distance,
        "airtime": airtime,
        "dep_time": dep_time,
    }
    return _finish(columns, n_attrs, n_rows, rng, sk)


def flight_planted(n_attrs: int = 10) -> List[str]:
    """Dependencies guaranteed on ``flight_like`` output (first 10
    attributes)."""
    deps = ["{}: [] -> year"]
    if n_attrs >= 4:
        deps += [
            "{}: month ~ quarter",
            "{month}: [] -> quarter",
            "{}: flight_sk ~ month",
            "{}: flight_sk ~ quarter",
        ]
    if n_attrs >= 9:
        deps += [
            "{}: airtime ~ distance",
            "{distance}: [] -> airtime",
            "{dest,origin}: [] -> distance",
        ]
    return deps


# ----------------------------------------------------------------------
# ncvoter
# ----------------------------------------------------------------------
def ncvoter_like(n_rows: int = 1000, n_attrs: int = 10,
                 seed: int = 7) -> Relation:
    """Voter-registration-shaped data (UCI ``ncvoter``)."""
    rng = np.random.default_rng(seed)
    voter_id = np.arange(n_rows) * 3 + 100000
    county_id = rng.integers(0, 30, n_rows)
    # County names are shuffled so id -> name is an FD but NOT order
    # compatible (a common real-data pattern: surrogate ids vs names).
    name_permutation = rng.permutation(30)
    county_name = np.array(
        [f"county_{name_permutation[c]:02d}" for c in county_id])
    zip_code = 27000 + county_id * 13 + rng.integers(0, 3, n_rows)
    age = rng.integers(18, 100, n_rows)
    birth_year = 2016 - age  # inversely ordered: only bidirectionally OC
    columns: Dict[str, np.ndarray] = {
        "voter_id": voter_id,
        "last_name": rng.integers(0, 200, n_rows),
        "first_name": rng.integers(0, 100, n_rows),
        "county_id": county_id,
        "county_name": county_name,
        "zip": zip_code,
        "age": age,
        "birth_year": birth_year,
        "gender": rng.integers(0, 2, n_rows),
        "party": rng.integers(0, 5, n_rows),
    }
    return _finish(columns, n_attrs, n_rows, rng, np.arange(n_rows))


def ncvoter_planted(n_attrs: int = 10) -> List[str]:
    deps = []
    if n_attrs >= 5:
        deps.append("{county_id}: [] -> county_name")
        deps.append("{county_name}: [] -> county_id")
    if n_attrs >= 8:
        deps.append("{age}: [] -> birth_year")
        deps.append("{birth_year}: [] -> age")
    return deps


# ----------------------------------------------------------------------
# hepatitis
# ----------------------------------------------------------------------
def hepatitis_like(n_rows: int = 155, n_attrs: int = 20,
                   seed: int = 3) -> Relation:
    """Tiny-but-wide clinical data (UCI ``hepatitis``): mostly binary
    columns; with so few tuples, many FDs hold by accident — the regime
    where the paper finds 700+ FDs."""
    rng = np.random.default_rng(seed)
    age_bin = rng.integers(1, 8, n_rows)
    columns: Dict[str, np.ndarray] = {
        "age_bin": age_bin,
        "sex": rng.integers(0, 2, n_rows),
    }
    for i in range(2, max(n_attrs, 2)):
        domain = 2 if i % 3 else 3
        columns[f"sym{i}"] = rng.integers(0, domain, n_rows)
    as_lists = {name: list(np.asarray(col)) for name, col in columns.items()}
    names = list(as_lists)[:n_attrs]
    return Relation.from_columns({name: as_lists[name] for name in names})


# ----------------------------------------------------------------------
# dbtesma
# ----------------------------------------------------------------------
def dbtesma_like(n_rows: int = 1000, n_attrs: int = 10,
                 seed: int = 11) -> Relation:
    """FD-heavy synthetic data (the HPI ``dbtesma`` generator): most
    columns are hash-functions of a few roots, yielding FDs galore and
    almost no order compatibility."""
    rng = np.random.default_rng(seed)
    pk = np.arange(n_rows)
    root_a = rng.integers(0, 8, n_rows)
    root_b = rng.integers(0, 5, n_rows)
    columns: Dict[str, np.ndarray] = {
        "pk": pk,
        "root_a": root_a,
        "root_b": root_b,
        "hash_ab": (root_a * 31 + root_b * 7) % 19,
        "hash_a": (root_a * 13 + 5) % 11,
        "bucket": pk * 10 // max(n_rows, 1),   # monotone: one OCD source
    }
    index = len(columns)
    while len(columns) < n_attrs:
        source = root_a if index % 2 else root_b
        prime = int(rng.choice([3, 5, 7, 11, 13]))
        columns[f"h{index}"] = (source * prime + index) % 17
        index += 1
    as_lists = {name: list(np.asarray(col)) for name, col in columns.items()}
    names = list(as_lists)[:n_attrs]
    return Relation.from_columns({name: as_lists[name] for name in names})


def dbtesma_planted(n_attrs: int = 10) -> List[str]:
    deps = []
    if n_attrs >= 4:
        deps.append("{root_a,root_b}: [] -> hash_ab")
    if n_attrs >= 5:
        deps.append("{root_a}: [] -> hash_a")
    if n_attrs >= 6:
        deps.append("{}: bucket ~ pk")
        deps.append("{pk}: [] -> bucket")
    return deps
