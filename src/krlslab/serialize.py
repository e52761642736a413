"""JSON records of kernels, partitions, tasks, models and configs.

One encoder and one decoder serve every record, derived from the fields of
its dataclass. A record's keys are the field names, except ``lambda`` for
``lam`` and ``locals`` for ``local_models``; arrays and tuples become lists
and floats stay Python floats, which json keeps exactly. Model and task
records open with a format tag, and a model record names its ``type``; a
task record also holds the fixed kernel and gamma of every task, checked
like the tag. A target is stored as the keyword arguments of the task
factory that builds it, so a piecewise target must lie on the factory's
uniform grid over [0, 1]. A missing or unknown key, or a float, int or
str field that does not hold a JSON number, integer or string, raises
ContractError naming the key; every other check is the constructor's own,
and a TypeError or ValueError it raises becomes a ContractError naming the
record.
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
from .partition import Partition, build_grid_partition
from .synth import (
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
# fixed record entries, written before the fields and checked on decode
_HEADERS = {cls: {"format": MODEL_FORMAT, "type": tag} for tag, cls in _MODELS.items()}
_HEADERS[SyntheticTask] = {
    "format": TASK_FORMAT, "kernel": SyntheticTask.kernel, "gamma": SyntheticTask.gamma
}
# A target is stored as the keyword arguments of its task factory.
_TARGET_KINDS = {SobolevTarget: "sobolev", PiecewiseTarget: "piecewise"}
_FACTORIES = {"sobolev": sobolev_task, "piecewise": piecewise_task}
_KEYS = {"lam": "lambda", "local_models": "locals"}  # field name -> record key
# field type -> the JSON values it takes (bools excluded) and their name
_SCALARS = {float: ((int, float), "number"), int: (int, "integer"), str: (str, "string")}


def _target_args(kind: str) -> list:
    """The task factory's keyword arguments that describe the target."""
    params = inspect.signature(_FACTORIES[kind]).parameters
    return [name for name in params if name not in ("noise", "marginal")]


def _encode(value):
    """A value as JSON types: dataclasses as records, arrays and tuples as lists."""
    if type(value) in _TARGET_KINDS:
        kind = _TARGET_KINDS[type(value)]
        if kind == "piecewise" and value.partition != build_grid_partition((0.0, 1.0), value.cells):
            part = value.partition
            raise ContractError(
                f"a piecewise target record keeps only its cell count, so it cannot "
                f"hold a grid of {part.cells_per_dim} cells over {part.box}"
            )
        return {"kind": kind, **{a: _encode(getattr(value, a)) for a in _target_args(kind)}}
    if dataclasses.is_dataclass(value):
        fields = {
            _KEYS.get(f.name, f.name): _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        header = {key: _encode(val) for key, val in _HEADERS.get(type(value), {}).items()}
        return {**header, **fields}
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


def _untag(data, header: dict) -> dict:
    """The record without the entries of ``header``, each of which must hold
    its value there as ``_encode`` writes it."""
    for key, want in header.items():
        found = data.get(key) if isinstance(data, dict) else None
        if found != _encode(want):
            raise ContractError(f"not a {header['format']} record: {key}={found!r}")
    return {key: val for key, val in data.items() if key not in header}


def _decode(label: str, key: str, hint, value):
    """A field's JSON value as its constructor takes it: a list of objects
    holds models, an object is a record of the field's dataclass, a float,
    int or str field takes a JSON number, integer or string (or null if its
    hint allows None), and any other value is left to the constructor."""
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return tuple(model_from_dict(item) for item in value)
    if hint is SyntheticTask:
        return task_from_dict(value)
    if dataclasses.is_dataclass(hint):
        return _from_record(hint, value)
    kinds = typing.get_args(hint) or (hint,)
    scalar = next((_SCALARS[k] for k in kinds if k in _SCALARS), None)
    if scalar and not (value is None and type(None) in kinds):
        if isinstance(value, bool) or not isinstance(value, scalar[0]):
            raise ContractError(f"{label} field {key} must be a JSON {scalar[1]}: {value!r}")
    return value


def _build(label: str, make, **kwargs):
    """``make(**kwargs)``; a TypeError or ValueError it raises names the record."""
    try:
        return make(**kwargs)
    except ContractError:
        raise
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{label} record: {exc}") from exc


def _from_record(cls, data):
    """Build ``cls`` from a record holding every field's key and no other."""
    keys = {_KEYS.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
    if cls is Partition and isinstance(data, dict):
        # format 1 first wrote only the fields the scheme uses
        data = {**dict.fromkeys(("box", "cells_per_dim", "centers")), **data}
    label = cls.__name__
    _check_keys(label, data, keys)
    hints = typing.get_type_hints(cls)
    args = {name: _decode(label, key, hints[name], data[key]) for key, name in keys.items()}
    return _build(label, cls, **args)


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
    """Rebuild a task by its factory."""
    body = _untag(data, _HEADERS[SyntheticTask])
    hints = typing.get_type_hints(SyntheticTask)
    _check_keys("task", body, [f.name for f in dataclasses.fields(SyntheticTask)])
    target = body.pop("target")
    kind = target.get("kind") if isinstance(target, dict) else None
    if not isinstance(kind, str) or kind not in _FACTORIES:
        raise ContractError(f"unknown target kind {kind!r}")
    label, factory, names = f"{kind} target", _FACTORIES[kind], _target_args(kind)
    _check_keys(label, target, ["kind", *names])
    types = typing.get_type_hints(factory)
    args = {key: _decode(label, key, types.get(key), target[key]) for key in names}
    body = {key: _decode("task", key, hints[key], val) for key, val in body.items()}
    return _build("task", factory, **args, **body)


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
    body = _untag(data, {"format": MODEL_FORMAT})
    kind = body.pop("type", None)
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ContractError(f"model record has no known type: type={kind!r}")
    return _from_record(_MODELS[kind], body)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Every ExperimentConfig field; the task as its record, tuples as lists."""
    return _encode(config)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Strict parse: every ExperimentConfig field must be present, even if null."""
    return _from_record(ExperimentConfig, data)
