"""Experiment harnesses — one module per table/figure of the paper.

Every module exposes ``run(scale=..., seed=...) -> ExperimentResult``, run
from the command line as ``python -m repro run <name>`` (``python -m repro
list`` names them).  ``scale`` shrinks simulated time (synthetic workloads)
or trace length (NERSC workload) while preserving rates and distributional
shapes; ``scale=1.0`` is the paper's full configuration.  Each module's
docstring says which table, figure or extension of the paper it covers.

Grid-shaped experiments route their simulations through
:mod:`repro.experiments.orchestrator` (``SweepRunner``): per-point result
caching keyed on the task fingerprint, in-batch deduplication, and optional
``ProcessPoolExecutor`` fan-out (``python -m repro run ... --workers N``,
or the ``REPRO_SWEEP_WORKERS`` environment variable).
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]
