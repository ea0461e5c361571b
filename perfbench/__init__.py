"""The benchmark of record: end-to-end and per-layer performance.

Run one workload with::

    python3 perfbench/run.py --workload optimize-paper --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run.  See
``perfbench/README.md`` for the workloads, the metrics and which
end-to-end number each layer metric should move.
"""
