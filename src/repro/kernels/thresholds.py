"""The one home for the kernel crossover thresholds.

Every size gate the hot path consults — "scalar scan vs vectorized
kernel" and "serial vs pooled dispatch" — is defined here, and only
here, with its provenance.  Hot code reads these names from this
module at call time, so tests and benchmarks retune a gate by
monkeypatching it here.

Crossover measurements (``benchmarks/bench_partition_kernels.py``
micro section, single-core CI-class x86-64 container, NumPy 2.x,
August 2026):

* **Reference (NumPy) scalar gate — 64 grouped rows.**  The
  vectorized product/swap kernels pay ~a dozen ufunc dispatches
  (~15-30 µs) regardless of size; the per-row dict/scan work wins
  below ~64 grouped rows.  Unchanged from the PR 1 tuning — re-measured
  and confirmed within noise.
* **Compiled scalar gate — 16 grouped rows.**  A compiled kernel call
  costs one ctypes dispatch plus two small array allocations (~2-4 µs
  total), so the crossover against the Python scalar paths sits far
  lower: the C kernels win from roughly a dozen grouped rows up, and
  below that the difference is tens of nanoseconds either way.  16
  keeps the tiny-class tail on the allocation-free scalar path.
* **Pool dispatch floors — 16 384 grouped rows / 4 096 relation
  rows.**  Measured for an earlier process pool, whose dispatch cost a
  fraction of a millisecond per chunk.  The thread pool keeps them:
  with these floors, cold discovery of ncvoter 100k×10 from CSV at two
  workers (``perfbench`` ``ncvoter-pooled``, 2-core x86-64 container,
  October 2026) took 2.46-2.70 s on threads against 2.81-2.85 s on
  the process pool, three runs each.
* **Compiled swap routing — mean class size 64.**  The C swap kernel
  sorts each class independently (insertion sort to ~48 elements,
  ``qsort`` beyond) and beats the reference's global composite-key
  ``argsort`` 3-4.5x while classes stay small — the common shape at
  lattice levels >= 2, where context partitions are products.  On
  coarse contexts (few giant classes) NumPy's single large sort wins:
  measured 3.4x at mean class 8, ~1.0x at 64, 0.77x at 256.  The
  compiled backend therefore routes swap calls whose mean class size
  exceeds this crossover to the reference implementation (identical
  output by contract, so routing is invisible to callers).
"""

from __future__ import annotations

#: Grouped-row count at or below which the NumPy reference backend
#: falls back to the scalar (dict/loop) paths.
REFERENCE_SCALAR_THRESHOLD = 64

#: Grouped-row count at or below which the compiled backend falls back
#: to the scalar paths.
COMPILED_SCALAR_THRESHOLD = 16

#: Grouped rows a dispatch's partitions must carry before the pool
#: executor leaves the coordinator (see repro.engine.executors).
PARALLEL_MIN_GROUPED_ROWS = 16_384

#: Relation-row floor for the mask-derived validation dispatches,
#: whose context partitions are not known up front.
PARALLEL_MIN_ROWS = 4_096

#: Mean class size above which the compiled backend's swap kernel
#: routes to the reference (NumPy) implementation — per-class qsort
#: loses to one global argsort on coarse contexts.
SWAP_MEAN_CLASS_CROSSOVER = 64
