"""The problem-file reader: a JSON file of units, gases, demand and B-matrix as a DispatchProblem.

A declared key table and a small walker check the kind of every value before
the model checks what it owns; any file they or the model refuse raises
ProblemFileError naming the file.  `import ceed` loads this module, not the
experiment runner in harness.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from .model import ALL_GASES, DispatchError, DispatchProblem, Gas, GeneratorUnit, LossMatrix, check_real


class ProblemFileError(DispatchError, ValueError):
    """A problem file the reader or the model refuses; the message names the file."""


_NUMBER = frozenset({int, float})  # the types json.loads gives a JSON number; true and false are bools
_NESTED = ("a number", "a list of numbers", "a list of lists of numbers")
_GASES = {gas.value: gas for gas in Gas}


def _floats(value, key: str, depth: int = 0):
    """A JSON number as a float, or `depth` nested JSON lists of them as tuples."""
    if depth and type(value) is list:
        if depth == 1 and _NUMBER.issuperset(map(type, value)):
            return tuple(map(float, value))
        return tuple(_floats(v, key, depth - 1) for v in value)
    if not depth and type(value) in _NUMBER:
        return float(value)
    if type(value) in _NUMBER or type(value) is list:
        raise TypeError(f"{key!r} must hold {_NESTED[depth]}, got {value!r}")
    # float() would read a digit string, a boolean or an object's keys as numbers
    raise TypeError(f"could not convert {value!r} to a number in {key!r}")


def _kind(value, kind: type, key: str, what: str):
    if type(value) is not kind:
        raise TypeError(f"{key!r} must be {what}, got {value!r}")
    return value


def _gas(name, key: str) -> Gas:
    if type(name) is not str or name not in _GASES:
        raise ValueError(f"{name!r} is an unknown gas in {key!r}")
    return _GASES[name]


# Every key a problem file and its units may hold, with the reader of its
# JSON value.  A file needs "units", a unit all its keys.  What the model
# checks (integer ids, three coefficients, finite values, limits, B) it keeps.
_FILE_KEYS = {
    "units": lambda v, key: _kind(v, list, key, "a list of unit objects"),
    "name": lambda v, key: _kind(v, str, key, "a string"),
    "gases": lambda v, key: tuple(_gas(g, key) for g in _kind(v, list, key, "a list of gas names")),
    # finite here, though json.loads reads Infinity and NaN: a passed demand overrides it before the model sees it
    "demand": lambda v, key: check_real(key, _floats(v, key)),
    "b_matrix": lambda v, key: None if v is None else _floats(v, key, 2),
}
_UNIT_KEYS = {
    "id": lambda v, key: v,
    "p_min": _floats,
    "p_max": _floats,
    "cost": lambda v, key: _floats(v, key, 1),
    "emissions": lambda v, key: {
        _gas(gas, key): _floats(curve, gas, 1)
        for gas, curve in _kind(v, dict, key, "an object of gas curves").items()
    },
}


def _read(obj, readers: dict, required) -> dict:
    """obj's values through `readers`, once obj is a JSON object with each required key and no other."""
    if type(obj) is not dict:
        raise TypeError(f"expected a JSON object, got {obj!r}")
    if not required <= obj.keys() <= readers.keys():
        wrong = [f"unknown key {key!r}" for key in sorted(obj.keys() - readers.keys())]
        raise ValueError("; ".join(wrong + [f"missing key {key!r}" for key in sorted(required - obj.keys())]))
    return {key: readers[key](value, key) for key, value in obj.items()}


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refused when it repeats a key, of which json.loads keeps the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {max(keys, key=keys.count)!r}")
    return obj


def load_problem(path: Union[str, Path], demand: Optional[float] = None) -> DispatchProblem:
    """Read a problem file, whose keys are those of _FILE_KEYS and its units' those of _UNIT_KEYS.

    A demand passed here overrides the file's, which is checked all the same;
    a passed demand that is not a finite real raises a plain ValueError.  Any
    other file, or one with values the model rejects, raises ProblemFileError
    naming it; a demand beyond the units raises InfeasibleError.  A file holds
    no objective weights: callers set k1 and k2 with dataclasses.replace.
    """
    if demand is not None:
        demand = check_real("demand", demand)
    where = path = Path(path)
    try:
        file = _read(json.loads(path.read_text(), object_pairs_hook=_unique_keys), _FILE_KEYS, {"units"})
        units = []
        for i, entry in enumerate(file["units"], start=1):
            where = f"{path}: unit #{i}"
            units.append(GeneratorUnit(**_read(entry, _UNIT_KEYS, _UNIT_KEYS.keys())))
        where = path
        if demand is None and "demand" not in file:
            raise ValueError("no demand in file and none supplied")
        demand = file["demand"] if demand is None else demand
        losses = None if file.get("b_matrix") is None else LossMatrix(file["b_matrix"])
        gases = file.get("gases", ALL_GASES)
        problem = DispatchProblem(units=tuple(units), demand=demand, gases=gases, losses=losses)
        # the model scores only the gases in `gases`; a curve for another would be dropped unread
        for unit in units:
            for gas in unit.emissions:
                if gas not in gases:
                    raise ValueError(f"unit {unit.id} has a {gas.value} curve that 'gases' leaves out")
        return problem
    except OSError as exc:
        raise DispatchError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DispatchError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    # OverflowError: an integer too large for a float; RecursionError: JSON nested too deep to decode
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ProblemFileError(f"{where}: {exc}") from exc


def format_demand(demand: float) -> str:
    """demand as {:g}, or as repr where {:g} would round it, so that distinct demands read apart."""
    text = f"{demand:g}"
    return text if float(text) == demand else repr(demand)
