"""JSON-compatible encoding of kernels, partitions, tasks, models, configs.

Everything round-trips through plain dicts of JSON types. Floats are kept
as Python floats (json preserves them exactly), arrays become lists.
Model records carry a format tag so files stay self-describing.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .exceptions import ContractError
from .harness import ExperimentConfig
from .kernels import KernelSpec
from .krls import KrlsModel
from .localized import DistributedAverageModel, LocalizedModel, ZeroModel
from .nystrom import NystromModel
from .partition import CellStats, Partition
from .synth import (
    NoiseSpec,
    PiecewiseTarget,
    SobolevTarget,
    SyntheticTask,
    piecewise_task,
    sobolev_task,
)

MODEL_FORMAT = "krlslab-model/1"
TASK_FORMAT = "krlslab-task/1"


def kernel_to_dict(spec: KernelSpec) -> dict:
    return {
        "family": spec.family,
        "domain": [list(pair) for pair in spec.domain],
        "bandwidth": spec.bandwidth,
        "degree": spec.degree,
        "offset": spec.offset,
    }


def kernel_from_dict(data: dict) -> KernelSpec:
    return KernelSpec(
        family=data["family"],
        domain=tuple(tuple(pair) for pair in data["domain"]),
        bandwidth=data.get("bandwidth"),
        degree=data.get("degree"),
        offset=data.get("offset"),
    )


def partition_to_dict(part: Partition) -> dict:
    if part.scheme == "grid":
        return {
            "scheme": "grid",
            "box": [list(pair) for pair in part.box],
            "cells_per_dim": list(part.cells_per_dim),
        }
    return {"scheme": "voronoi", "centers": [list(c) for c in part.centers]}


def partition_from_dict(data: dict) -> Partition:
    if data["scheme"] == "grid":
        return Partition(
            scheme="grid",
            box=tuple(tuple(pair) for pair in data["box"]),
            cells_per_dim=tuple(data["cells_per_dim"]),
        )
    return Partition(scheme="voronoi", centers=data["centers"])


def task_to_dict(task: SyntheticTask) -> dict:
    base = {
        "format": TASK_FORMAT,
        "noise": {"kind": task.noise.kind, "scale": task.noise.scale},
        "marginal": list(task.marginal),
        "gamma": task.gamma,
        "kernel": kernel_to_dict(task.kernel),
    }
    target = task.target
    if isinstance(target, SobolevTarget):
        base["target"] = {
            "kind": "sobolev",
            "r": target.r,
            "R": target.R,
            "k_trunc": target.k_trunc,
        }
    elif isinstance(target, PiecewiseTarget):
        base["target"] = {
            "kind": "piecewise",
            "r_l": target.r_l,
            "r_h": target.r_h,
            "R_l": target.R_l,
            "R_h": target.R_h,
            "cells": target.partition.m,
            "exceptional": sorted(target.exceptional),
            "k_trunc": target.k_trunc,
        }
    else:
        raise ContractError(f"cannot serialize target of type {type(target).__name__}")
    return base


def task_from_dict(data: dict) -> SyntheticTask:
    if data.get("format") != TASK_FORMAT:
        raise ContractError(f"not a task record: format={data.get('format')!r}")
    noise = NoiseSpec(kind=data["noise"]["kind"], scale=float(data["noise"]["scale"]))
    marginal = tuple(data["marginal"])
    target = data["target"]
    if target["kind"] == "sobolev":
        task = sobolev_task(
            r=float(target["r"]),
            R=float(target["R"]),
            noise=noise,
            marginal=marginal,
            k_trunc=int(target["k_trunc"]),
        )
    elif target["kind"] == "piecewise":
        task = piecewise_task(
            r_l=float(target["r_l"]),
            r_h=float(target["r_h"]),
            R_l=float(target["R_l"]),
            R_h=float(target["R_h"]),
            cells=int(target["cells"]),
            exceptional=target["exceptional"],
            noise=noise,
            marginal=marginal,
            k_trunc=int(target["k_trunc"]),
        )
    else:
        raise ContractError(f"unknown target kind {target.get('kind')!r}")
    kernel = kernel_from_dict(data["kernel"])
    if kernel != task.kernel:
        task = dataclasses.replace(task, kernel=kernel)
    return task


def target_coefficients(target) -> dict:
    """Audit dump of a target's coefficient vectors."""
    if isinstance(target, SobolevTarget):
        return {
            "kind": "sobolev",
            "coefficients": target.coefficients.tolist(),
            "truncation_sup_error": target.truncation_sup_error,
        }
    if isinstance(target, PiecewiseTarget):
        return {
            "kind": "piecewise",
            "cell_coefficients": [c.tolist() for c in target.cell_coefficients],
            "exceptional": sorted(target.exceptional),
            "truncation_sup_error": target.truncation_sup_error,
        }
    raise ContractError(f"cannot dump target of type {type(target).__name__}")


def _stats_to_dict(stats: CellStats) -> dict:
    return {
        "counts": stats.counts.tolist(),
        "weights": stats.weights.tolist(),
        "index_sets": [ix.tolist() for ix in stats.index_sets],
    }


def _stats_from_dict(data: dict) -> CellStats:
    return CellStats(
        counts=np.asarray(data["counts"], dtype=int),
        weights=np.asarray(data["weights"], dtype=float),
        index_sets=tuple(np.asarray(ix, dtype=int) for ix in data["index_sets"]),
    )


def model_to_dict(model) -> dict:
    if isinstance(model, KrlsModel):
        return {
            "format": MODEL_FORMAT,
            "type": "krls",
            "inputs": model.inputs.tolist(),
            "alpha": model.alpha.tolist(),
            "lambda": model.lam,
            "kernel": kernel_to_dict(model.kernel),
        }
    if isinstance(model, NystromModel):
        return {
            "format": MODEL_FORMAT,
            "type": "nystrom",
            "landmarks": model.landmarks.tolist(),
            "landmark_indices": model.landmark_indices.tolist(),
            "alpha": model.alpha.tolist(),
            "lambda": model.lam,
            "kernel": kernel_to_dict(model.kernel),
            "seed": model.seed,
        }
    if isinstance(model, ZeroModel):
        return {"format": MODEL_FORMAT, "type": "zero"}
    if isinstance(model, LocalizedModel):
        return {
            "format": MODEL_FORMAT,
            "type": "localized",
            "partition": partition_to_dict(model.partition),
            "locals": [model_to_dict(local) for local in model.local_models],
            "lambda": model.lam,
            "cell_stats": _stats_to_dict(model.cell_stats),
        }
    if isinstance(model, DistributedAverageModel):
        return {
            "format": MODEL_FORMAT,
            "type": "distributed_avg",
            "models": [model_to_dict(sub) for sub in model.models],
            "lambda": model.lam,
            "kernel": kernel_to_dict(model.kernel),
            "seed": model.seed,
        }
    raise ContractError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(data: dict):
    if data.get("format") != MODEL_FORMAT:
        raise ContractError(f"not a model record: format={data.get('format')!r}")
    kind = data["type"]
    if kind == "krls":
        return KrlsModel(
            inputs=np.asarray(data["inputs"], dtype=float),
            alpha=np.asarray(data["alpha"], dtype=float),
            lam=float(data["lambda"]),
            kernel=kernel_from_dict(data["kernel"]),
        )
    if kind == "nystrom":
        return NystromModel(
            landmarks=np.asarray(data["landmarks"], dtype=float),
            landmark_indices=np.asarray(data["landmark_indices"], dtype=int),
            alpha=np.asarray(data["alpha"], dtype=float),
            lam=float(data["lambda"]),
            kernel=kernel_from_dict(data["kernel"]),
            seed=data["seed"],
        )
    if kind == "zero":
        return ZeroModel()
    if kind == "localized":
        return LocalizedModel(
            partition=partition_from_dict(data["partition"]),
            local_models=tuple(model_from_dict(sub) for sub in data["locals"]),
            lam=float(data["lambda"]),
            cell_stats=_stats_from_dict(data["cell_stats"]),
        )
    if kind == "distributed_avg":
        return DistributedAverageModel(
            models=tuple(model_from_dict(sub) for sub in data["models"]),
            lam=float(data["lambda"]),
            kernel=kernel_from_dict(data["kernel"]),
            seed=data["seed"],
        )
    raise ContractError(f"unknown model type {kind!r}")


def config_to_dict(config: ExperimentConfig) -> dict:
    """Every ExperimentConfig field; the task as its record, tuples as lists."""
    data = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        data[f.name] = list(value) if isinstance(value, tuple) else value
    data["task"] = task_to_dict(config.task)
    return data


def config_from_dict(data: dict) -> ExperimentConfig:
    """Strict parse: every ExperimentConfig field must be present, even if null."""
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    missing = [key for key in names if key not in data]
    if missing:
        raise ContractError(f"config is missing fields: {', '.join(missing)}")
    unknown = [key for key in data if key not in names]
    if unknown:
        raise ContractError(f"config has unknown fields: {', '.join(unknown)}")
    return ExperimentConfig(**{**data, "task": task_from_dict(data["task"])})
