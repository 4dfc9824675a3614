"""The name of the split-search implementation, for benchmark run records.

The split kernels live in ``cricpred.models.tree``. ``BACKEND`` is always
``"python"``; it stays only because ``perfbench/run.py`` (``environment()``)
stamps it into each run record and ``tests/test_perfbench_targets.py``
checks that it is there. Once the benchmark reads it with a fallback
(ROADMAP item 3), this module can go.
"""

BACKEND = "python"
