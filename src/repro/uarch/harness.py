"""Multi-configuration measurement harness for the pipeline model.

Comparing N pipeline configurations needs only one architectural run:
the retire sink replays each buffered chunk of the retired stream into
every attached model, so a predictor × forwarding sweep costs one
simulation plus N cheap accounting passes — the shape every pipeline
experiment here uses.
"""

from __future__ import annotations

import dataclasses

from repro.uarch.config import PREDICTORS, UarchConfig
from repro.uarch.pipeline import PipelineModel
from repro.uarch.sink import open_sink

__all__ = ["run_with_pipeline", "standard_sweep"]


def run_with_pipeline(cpu, configs, **run_kwargs):
    """Run ``cpu`` once, measuring it under every configuration.

    ``cpu`` is a loaded RISC I ``CPU`` or ``VaxCPU``; ``configs`` is one
    :class:`UarchConfig` or a sequence of them.  Returns
    ``(result, stats)`` where ``stats`` is a list of
    :class:`~repro.uarch.pipeline.PipelineStats` parallel to
    ``configs``.  The sink is detached afterwards even if the run raises.
    """
    if isinstance(configs, UarchConfig):
        configs = [configs]
    sink = open_sink(cpu, [PipelineModel(config, machine=cpu.name) for config in configs])
    try:
        result = cpu.run(**run_kwargs)
    finally:
        sink.close()
    return result, sink.finish()


def standard_sweep(base: UarchConfig | None = None) -> list[UarchConfig]:
    """The canonical experiment sweep: predictors, then forwarding.

    All three predictors under the base forwarding matrix, then the two
    degraded forwarding matrices under the base predictor — five
    configurations isolating each axis against the ``base`` (default:
    ``bht2/full``).
    """
    base = base or UarchConfig()
    return [dataclasses.replace(base, predictor=predictor) for predictor in PREDICTORS] + [
        dataclasses.replace(base, forwarding=forwarding)
        for forwarding in ("none", "ex")
        if forwarding != base.forwarding
    ]
