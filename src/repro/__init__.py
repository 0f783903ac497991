"""repro — a reproduction of "Effective and Complete Discovery of Order
Dependencies via Set-based Axiomatization" (FASTOD, VLDB 2017).

Quickstart::

    from repro import Relation, discover_ods

    rel = Relation.from_rows(["a", "b"], [(1, 10), (2, 20), (3, 30)])
    result = discover_ods(rel)
    for od in result.all_ods:
        print(od)
"""

from repro.core import (
    CanonicalFD,
    CanonicalOCD,
    CanonicalValidator,
    DiscoveryResult,
    FastOD,
    FastODConfig,
    ListOD,
    OrderCompatibility,
    OrderSpec,
    discover_ods,
    list_od_holds,
    map_list_od,
    order_compatible,
    parse,
)
from repro.engine import (
    DeadlineBudget,
    ExecutorTelemetry,
    LatticePlanner,
    PoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.errors import (
    ConfigError,
    DataError,
    DependencyError,
    DiscoveryBudgetExceeded,
    ParseError,
    ReproError,
    SchemaError,
)
from repro.incremental import BatchReport, IncrementalFastOD
from repro.parallel import WorkerPool, resolve_workers
from repro.profile import discover_keys, profile_relation
from repro.relation import (
    Relation,
    Schema,
    fingerprint,
    read_csv,
    read_csv_text,
)

__version__ = "1.0.0"

__all__ = [
    "BatchReport",
    "CanonicalFD",
    "CanonicalOCD",
    "CanonicalValidator",
    "ConfigError",
    "DataError",
    "DeadlineBudget",
    "DependencyError",
    "DiscoveryBudgetExceeded",
    "DiscoveryResult",
    "ExecutorTelemetry",
    "FastOD",
    "FastODConfig",
    "LatticePlanner",
    "PoolExecutor",
    "SerialExecutor",
    "IncrementalFastOD",
    "ListOD",
    "OrderCompatibility",
    "OrderSpec",
    "ParseError",
    "Relation",
    "ReproError",
    "Schema",
    "SchemaError",
    "WorkerPool",
    "discover_keys",
    "fingerprint",
    "discover_ods",
    "list_od_holds",
    "make_executor",
    "profile_relation",
    "map_list_od",
    "order_compatible",
    "parse",
    "read_csv",
    "read_csv_text",
    "resolve_workers",
]
