"""Instance and result serialization.

Instance files are JSON-syntax documents with a versioned schema: goods carry
their cost parameters, buyer types their bundles and demand curve.  Loading
re-validates every market invariant and reports all violations at once, not
just the first.  Serialization is deterministic: floats are rounded to 12
significant digits and keys are sorted, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

from .costs import CostDomainError, CostFunction
from .demand import InverseDemand
from .market import BuyerType, MarketInstance, MarketValidationError

__all__ = [
    "SCHEMA_VERSION",
    "InstanceFormatError",
    "dump_record",
    "dumps",
    "load",
    "loads",
    "save",
]

SCHEMA_VERSION = "1"
FLOAT_DIGITS = 12

_TOP_KEYS = {"schema_version", "goods", "buyer_types", "metadata"}
_GOOD_KEYS = {"id", "cost"}
_COST_KEYS = {"family", "a", "beta", "breakpoints"}
_TYPE_KEYS = {"id", "bundles", "demand"}
_DEMAND_KEYS = {"family", "lambda_max", "alpha", "scale", "support_ceiling", "points"}
# The types JSON numbers decode to; true and false decode to bool, not a number here.
_NUMBER_TYPES = (int, float)


class InstanceFormatError(ValueError):
    """Parse or validation failure listing every detected problem."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return obj
        return float(f"{obj:.{FLOAT_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def dump_record(obj) -> str:
    """Deterministic JSON for result records: sorted keys, 12 significant digits."""
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n"


def _check_unknown(problems, mapping, allowed, where):
    for k in mapping:
        if k not in allowed:
            problems.append(f"{where}: unknown key {k!r}")


def _is_object(value, where: str, problems: list) -> bool:
    if not isinstance(value, dict):
        problems.append(f"{where}: expected an object")
    return isinstance(value, dict)


def _objects(doc: dict, key: str, problems: list):
    """(where, entry) for each object in the list doc[key]; problems name the rest."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        problems.append(f"{key}: expected a list")
        return
    for k, entry in enumerate(entries):
        if _is_object(entry, f"{key}[{k}]", problems):
            yield f"{key}[{k}]", entry


def _fields_are_numbers(spec: dict, keys, pairs_key: str, where: str, problems: list) -> bool:
    """Whether spec's keys that are present hold numbers, and spec[pairs_key]
    (if present) a list of number pairs; problems name each field that fails."""
    bad = [key for key in keys if key in spec and type(spec[key]) not in _NUMBER_TYPES]
    for key in bad:
        problems.append(f"{where}.{key}: expected a number, found {spec[key]!r}")
    pairs = spec.get(pairs_key, [])
    if not (isinstance(pairs, list) and all(
        type(p) is list and len(p) == 2 and all(type(v) in _NUMBER_TYPES for v in p) for p in pairs
    )):
        problems.append(f"{where}.{pairs_key}: expected a list of [number, number] pairs")
        return False
    return not bad


def _entry_id(entry: dict, where: str, problems: list):
    """The entry's id, or None after naming the problem: it must be a string."""
    if "id" not in entry:
        problems.append(f"{where}: missing id")
        return None
    if not isinstance(entry["id"], str):
        problems.append(f"{where}.id: expected a string, found {entry['id']!r}")
        return None
    return entry["id"]


def _demand_from_spec(spec: dict, where: str, problems: list, strict: bool):
    if not _is_object(spec, where, problems):
        return None
    if strict:
        _check_unknown(problems, spec, _DEMAND_KEYS, where)
    if not _fields_are_numbers(
        spec, ("lambda_max", "alpha", "scale", "support_ceiling"), "points", where, problems
    ):
        return None
    family = spec.get("family")
    try:
        lambda_max = float(spec["lambda_max"])
        alpha = float(spec.get("alpha", 0.0))
        scale = float(spec.get("scale", 1.0))
        if family == "tabulated":
            stated = {key: float(spec[key]) for key in ("scale", "support_ceiling") if key in spec}
            return replace(InverseDemand.tabulated(spec["points"], alpha), lambda_max=lambda_max, **stated)
        if "support_ceiling" in spec:
            return InverseDemand(family, lambda_max, alpha, scale, float(spec["support_ceiling"]))
        if family == "linear":
            return InverseDemand.linear(lambda_max, scale)
        if family == "exponential":
            return InverseDemand.exponential(lambda_max, scale)
        if family == "generalized-pareto":
            return InverseDemand.generalized_pareto(lambda_max, alpha, scale)
        problems.append(f"{where}: unknown demand family {family!r}")
    except KeyError as e:
        problems.append(f"{where}: missing field {e.args[0]!r}")
    except (TypeError, ValueError) as e:
        problems.append(f"{where}: {e}")
    return None


def _cost_from_spec(spec: dict, where: str, problems: list, strict: bool):
    if not _is_object(spec, where, problems):
        return None
    if strict:
        _check_unknown(problems, spec, _COST_KEYS, where)
    if not _fields_are_numbers(spec, ("a", "beta"), "breakpoints", where, problems):
        return None
    try:
        return CostFunction.from_dict(spec)
    except KeyError as e:
        problems.append(f"{where}: missing field {e.args[0]!r}")
    except (TypeError, ValueError, CostDomainError) as e:
        problems.append(f"{where}: {e}")
    return None


def loads(text: str, strict: bool = False) -> MarketInstance:
    """Parse and validate an instance document; see load."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(
            [f"parse error at line {e.lineno}, column {e.colno}: {e.msg}"]
        ) from None
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise InstanceFormatError(["top level must be an object"])
    if strict:
        _check_unknown(problems, doc, _TOP_KEYS, "top level")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(
            f"schema_version: expected {SCHEMA_VERSION!r}, found {version!r}"
        )

    goods = []
    for where, entry in _objects(doc, "goods", problems):
        if strict:
            _check_unknown(problems, entry, _GOOD_KEYS, where)
        good_id = _entry_id(entry, where, problems)
        cost = _cost_from_spec(entry.get("cost", {}), f"{where}.cost", problems, strict)
        if good_id is not None and cost is not None:
            goods.append((good_id, cost))

    buyer_types = []
    for where, entry in _objects(doc, "buyer_types", problems):
        if strict:
            _check_unknown(problems, entry, _TYPE_KEYS, where)
        type_id = _entry_id(entry, where, problems)
        demand = _demand_from_spec(
            entry.get("demand", {}), f"{where}.demand", problems, strict
        )
        bundles = entry.get("bundles", [])
        if not (isinstance(bundles, list) and all(
            isinstance(b, list) and all(isinstance(g, str) for g in b) for b in bundles
        )):
            problems.append(f"{where}.bundles: expected a list of lists of good ids")
        elif type_id is not None and demand is not None:
            buyer_types.append((type_id, bundles, demand))

    if problems:
        raise InstanceFormatError(problems)
    try:
        return MarketInstance.create(goods, buyer_types)
    except MarketValidationError as e:
        raise InstanceFormatError(e.problems) from None


def load(path, strict: bool = False) -> MarketInstance:
    """Load an instance file, reporting every format or invariant violation."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), strict=strict)


def instance_to_dict(inst: MarketInstance, metadata: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "goods": [
            {"id": g, "cost": c.to_dict()} for g, c in inst.goods
        ],
        "buyer_types": [
            {
                "id": t.type_id,
                "bundles": [list(b) for b in t.bundles],
                "demand": t.demand.to_dict(),
            }
            for t in inst.buyer_types
        ],
        "metadata": metadata or {},
    }
    return doc


def dumps(inst: MarketInstance, metadata: dict | None = None) -> str:
    return dump_record(instance_to_dict(inst, metadata))


def save(inst: MarketInstance, path, metadata: dict | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(inst, metadata))
