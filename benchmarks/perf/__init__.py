"""The repo's one performance benchmark (see ``README.md`` beside this file).

Four workloads — ``train_paper``, ``serve_hot``, ``serve_cold``,
``online_swap`` — driven against the public APIs of ``repro.*``; the
metric names, units and regression bounds live in ``BENCHMARK.json`` at
the repository root.  Run from the repository root::

    python3 -m benchmarks.perf run --workload serve_hot --seed 7 --seconds 20 --trace 0

Importing this package starts nothing; ``__main__`` pins the BLAS thread
environment before numpy is first imported.
"""
