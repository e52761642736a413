"""JSON records of kernels, partitions, tasks, models and configs.

One encoder and one decoder serve every record, derived from the fields of
its dataclass. A record's keys are the field names, except ``lambda`` for
``lam`` and ``locals`` for ``local_models``; arrays and tuples become lists
and floats stay Python floats, which json keeps exactly. Model and task
records open with a format tag, and a model record names its ``type``. A
target is stored as the keyword arguments of the task factory that builds
it. A missing or unknown key raises ContractError naming the key; every
other check is the constructor's own.
"""

from __future__ import annotations

import dataclasses
import inspect
import typing

import numpy as np

from .exceptions import ContractError
from .harness import ExperimentConfig
from .kernels import KernelSpec
from .krls import KrlsModel
from .localized import DistributedAverageModel, LocalizedModel, ZeroModel
from .nystrom import NystromModel
from .partition import Partition
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

_MODELS = {
    "krls": KrlsModel,
    "nystrom": NystromModel,
    "zero": ZeroModel,
    "localized": LocalizedModel,
    "distributed_avg": DistributedAverageModel,
}
_HEADERS = {cls: {"format": MODEL_FORMAT, "type": tag} for tag, cls in _MODELS.items()}
_HEADERS[SyntheticTask] = {"format": TASK_FORMAT}
# A target is stored as the keyword arguments of its task factory.
_TARGET_KINDS = {SobolevTarget: "sobolev", PiecewiseTarget: "piecewise"}
_FACTORIES = {"sobolev": sobolev_task, "piecewise": piecewise_task}
_KEYS = {"lam": "lambda", "local_models": "locals"}  # field name -> record key


def _target_args(kind: str) -> list:
    """The task factory's keyword arguments that describe the target."""
    params = inspect.signature(_FACTORIES[kind]).parameters
    return [name for name in params if name not in ("noise", "marginal")]


def _encode(value):
    """A value as JSON types: dataclasses as records, arrays and tuples as lists."""
    if type(value) in _TARGET_KINDS:
        kind = _TARGET_KINDS[type(value)]
        return {"kind": kind, **{a: _encode(getattr(value, a)) for a in _target_args(kind)}}
    if dataclasses.is_dataclass(value):
        fields = {
            _KEYS.get(f.name, f.name): _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {**_HEADERS.get(type(value), {}), **fields}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise ContractError(f"cannot serialize a value of type {type(value).__name__}")


def _check_keys(label: str, data, keys):
    if not isinstance(data, dict):
        raise ContractError(f"{label} record must be a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ContractError(f"{label} record is missing fields: {', '.join(missing)}")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ContractError(f"{label} record has unknown fields: {', '.join(unknown)}")


def _untag(data, fmt: str) -> dict:
    """The record without its format tag, which must be ``fmt``."""
    found = data.get("format") if isinstance(data, dict) else None
    if found != fmt:
        raise ContractError(f"not a {fmt} record: format={found!r}")
    return {key: val for key, val in data.items() if key != "format"}


def _decode(hint, value):
    """A field's JSON value as its constructor takes it: a list of objects
    holds models, an object is a record of the field's dataclass, and any
    other value is left for the constructor to coerce and check."""
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return tuple(model_from_dict(item) for item in value)
    if hint is SyntheticTask:
        return task_from_dict(value)
    if dataclasses.is_dataclass(hint):
        return _from_record(hint, value)
    return value


def _from_record(cls, data):
    """Build ``cls`` from a record holding every field's key and no other."""
    keys = {_KEYS.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
    if cls is Partition and isinstance(data, dict):
        # format 1 first wrote only the fields the scheme uses
        data = {**dict.fromkeys(("box", "cells_per_dim", "centers")), **data}
    _check_keys(cls.__name__, data, keys)
    hints = typing.get_type_hints(cls)
    return cls(**{name: _decode(hints[name], data[key]) for key, name in keys.items()})


def kernel_to_dict(spec: KernelSpec) -> dict:
    return _encode(spec)


def kernel_from_dict(data: dict) -> KernelSpec:
    return _from_record(KernelSpec, data)


def partition_to_dict(part: Partition) -> dict:
    return _encode(part)


def partition_from_dict(data: dict) -> Partition:
    return _from_record(Partition, data)


def task_to_dict(task: SyntheticTask) -> dict:
    return _encode(task)


def task_from_dict(data: dict) -> SyntheticTask:
    """Rebuild a task by its factory, then restore its kernel and gamma."""
    body = _untag(data, TASK_FORMAT)
    _check_keys("task", body, [f.name for f in dataclasses.fields(SyntheticTask)])
    target = body["target"]
    kind = target.get("kind") if isinstance(target, dict) else None
    if kind not in _FACTORIES:
        raise ContractError(f"unknown target kind {kind!r}")
    args = {key: val for key, val in target.items() if key != "kind"}
    _check_keys(f"{kind} target", args, _target_args(kind))
    task = _FACTORIES[kind](
        **args, noise=_from_record(NoiseSpec, body["noise"]), marginal=tuple(body["marginal"])
    )
    kernel = _from_record(KernelSpec, body["kernel"])
    return dataclasses.replace(task, kernel=kernel, gamma=body["gamma"])


def target_coefficients(target) -> dict:
    """Audit dump of a target's coefficient vectors."""
    kind = _TARGET_KINDS.get(type(target))
    if kind is None:
        raise ContractError(f"cannot dump target of type {type(target).__name__}")
    names = ("coefficients",) if kind == "sobolev" else ("cell_coefficients", "exceptional")
    names += ("truncation_sup_error",)
    return {"kind": kind, **{name: _encode(getattr(target, name)) for name in names}}


def model_to_dict(model) -> dict:
    if type(model) not in _MODELS.values():
        raise ContractError(f"cannot serialize model of type {type(model).__name__}")
    return _encode(model)


def model_from_dict(data: dict):
    body = _untag(data, MODEL_FORMAT)
    kind = body.pop("type", None)
    if kind not in _MODELS:
        raise ContractError(f"model record has no known type: type={kind!r}")
    return _from_record(_MODELS[kind], body)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Every ExperimentConfig field; the task as its record, tuples as lists."""
    return _encode(config)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Strict parse: every ExperimentConfig field must be present, even if null."""
    return _from_record(ExperimentConfig, data)
